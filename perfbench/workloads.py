"""The benchmark's three workloads.

A workload is an endless sequence of rounds.  Round r is generated
from `random.Random(f"{name}:{seed}")` after rounds 0..r-1, so a seed
fixes every input, and every round has the same make-up: the same
slots, in the same order, each filled with a fresh seeded input.  A run
always executes whole rounds, so the share of operations that fail is
the same in every run.

Each operation is an `Op(kind, params)`.  `execute` performs it against
nilcalc and returns `(answer, failed)`, where the answer is built from
plain values so that runs can be compared by digest; `check` compares a
non-failed answer with the independent computation in `checks`.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction as F
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import checks

NAMES = "xyz"


class Op(NamedTuple):
    kind: str
    params: tuple


def _rat(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def _ideal_text(gens: Sequence[Sequence[int]]) -> str:
    def mono(g):
        parts = [NAMES[i] if e == 1 else f"{NAMES[i]}^{e}"
                 for i, e in enumerate(g) if e]
        return "*".join(parts) or "1"
    return ", ".join(mono(g) for g in gens)


def m_primary(rng: random.Random, pure: Sequence[int],
              mixed: Tuple[int, int],
              depth: F = F(0)) -> Tuple[Tuple[int, ...], ...]:
    """Pure powers x_i^pure_i plus a few random mixed monomials strictly
    below them in every coordinate, each with sum(g_i / pure_i) >= depth
    (so that depth > 0 keeps them from cutting the polyhedron deeply)."""
    n = len(pure)
    gens = [tuple(a if j == i else 0 for j in range(n))
            for i, a in enumerate(pure)]
    for _ in range(rng.randint(*mixed)):
        while True:
            g = tuple(rng.randint(0, a - 1) for a in pure)
            if sum(1 for v in g if v) >= 2 and \
                    sum(F(v, a) for v, a in zip(g, pure)) >= depth:
                break
        gens.append(g)
    return tuple(sorted(set(gens)))


# -- staircase ------------------------------------------------------------

# (variables, scale c, pure-power exponents, operations at this rung).
# The pure powers alternate between the two exponents along the axes
# (in 2 variables starting from either) and the seed draws the two
# mixed generators, kept off the corner at the origin, so an operation
# on a rung costs about the same whatever the seed, while the rungs
# spread the costs from a few ms to 0.2 s.
LADDER = (
    (2, F(1, 2), (8, 9), ("jumping_numbers", "adjunction_report")),
    (2, F(1), (7, 8), ("adjoint_ideal", "box_audit")),
    (2, F(2), (4, 5), ("jumping_numbers", "openness_margin")),
    (2, F(3), (4, 5), ("multiplier_ideal", "adjunction_report")),
    (2, F(5), (3, 4), ("adjoint_ideal", "box_audit")),
    (3, F(1, 2), (5, 6), ("jumping_numbers", "jumping_numbers")),
    (3, F(1), (4, 5), ("multiplier_ideal", "adjunction_report",
                        "openness_margin")),
    (3, F(3, 2), (3, 4), ("adjoint_ideal", "box_audit")),
    (3, F(2), (3, 3), ("multiplier_ideal", "openness_margin")),
    (4, F(1, 2), (2, 3), ("jumping_numbers", "adjunction_report")),
    (4, F(1), (3, 4), ("multiplier_ideal", "adjoint_ideal")),
    (4, F(3, 2), (2, 3), ("openness_margin", "box_audit")),
)
# 25 calls a round, so that four rounds make the 100 operations a
# 90th percentile needs (a pass usually runs eight).  The six heaviest
# (the c = 5 adjoint and audit, the jump scans at c = 2 in 2 variables
# and c = 1/2 in 3 and 4) cost the same order of magnitude and make a
# quarter of the calls, so the 90th percentile falls inside that group
# rather than between kinds.


class Staircase:
    """Library calls on a seeded ladder of m-primary monomial ideals."""

    # the c = 5 rung has only 18 distinct Newton polyhedra, two used
    # per round
    max_rounds = 8

    def __init__(self, seed: int):
        self.rng = random.Random(f"staircase:{seed}")
        self.seen = set()

    def setup(self, nilcalc) -> None:
        self.ideals = nilcalc.ideals

    def _fresh(self, kind, n, lo, hi):
        """A seeded ideal and axis whose Newton polyhedra (of the ideal
        and, for `adjunction_report`, of its restriction to the axis)
        no earlier operation of the process has used."""
        for _ in range(10_000):
            # two variables: either axis may carry the larger power,
            # which mirrors the ideal and leaves its cost unchanged
            first = self.rng.randrange(2) if n == 2 else 0
            pure = [(lo, hi)[(i + first) % 2] for i in range(n)]
            gens = m_primary(self.rng, pure, (2, 2), F(1, 2))
            axis = self.rng.randrange(n)
            keys = polyhedra(kind, gens, axis)
            if self.seen.isdisjoint(keys):
                self.seen.update(keys)
                return gens, axis
        raise RuntimeError(f"no fresh ideal left on the rung {lo, hi}")

    def round(self) -> List[Op]:
        ops = []
        for slot, (n, c, (lo, hi), kinds) in enumerate(LADDER):
            for kind in kinds:
                gens, axis = self._fresh(kind, n, lo, hi)
                if kind == "box_audit" and slot % 2:
                    axis = None
                ideal = self.ideals.minimalize(gens, n)
                ops.append(Op(kind, (gens, c, axis, ideal)))
        return ops

    def execute(self, op: Op):
        gens, c, axis, ideal = op.params
        fn = getattr(self.ideals, op.kind)
        if op.kind in ("multiplier_ideal", "jumping_numbers",
                       "openness_margin"):
            out = fn(ideal, c)
        else:
            out = fn(ideal, c, axis)
        return _plain(out), False

    @staticmethod
    def check(op: Op, answer) -> None:
        gens, c, axis, _ = op.params
        if op.kind == "multiplier_ideal":
            checks.check_multiplier(gens, c, answer)
        elif op.kind == "adjoint_ideal":
            checks.check_adjoint(gens, c, axis, answer)
        elif op.kind == "jumping_numbers":
            checks.check_jumps(gens, c, [F(*j) for j in answer])
        elif op.kind == "openness_margin":
            checks.check_openness(gens, c, F(*answer))
        elif op.kind == "adjunction_report":
            checks.check_adjunction(gens, c, axis, *answer)
        else:
            checks.require(answer is True, "box audit reported False")


def minimal(points) -> Tuple[Tuple[int, ...], ...]:
    """The componentwise-minimal points of a set, sorted."""
    pts = set(points)
    return tuple(sorted(p for p in pts if not any(
        q != p and all(a >= b for a, b in zip(p, q)) for q in pts)))


def polyhedra(kind, gens, axis) -> List[tuple]:
    """(dimension, minimal generators) of every Newton polyhedron whose
    critical scales a staircase operation computes: the ideal's, and for
    `adjunction_report` that of its restriction to the axis.  A one-
    variable restriction of a two-variable ideal is a pure power that
    necessarily recurs on its rung, and is left out."""
    n = len(gens[0])
    keys = [(n, minimal(gens))]
    if kind == "adjunction_report" and n > 2:
        keys.append((n - 1, minimal(g[:axis] + g[axis + 1:]
                                    for g in gens if g[axis] == 0)))
    return keys


def _plain(out):
    """nilcalc results as tuples of ints and (num, den) pairs."""
    if isinstance(out, bool):
        return out
    if isinstance(out, F):
        return (out.numerator, out.denominator)
    if isinstance(out, list):
        return tuple(_plain(v) for v in out)
    if hasattr(out, "generators"):
        return tuple(tuple(int(v) for v in g) for g in out.generators)
    # AdjunctionReport
    return (_plain(out.adjoint), _plain(out.multiplier),
            _plain(out.restricted_multiplier), out.kernel_exact,
            out.restriction_exact)


# -- certify --------------------------------------------------------------

ORACLE_RADIAL = ["oracle", "--op", "radial", "--k", "5/2", "--beta"]
# (label, argv, expected exit code); F1-F4 are faults of the program
# that make these end in exit 0 or a traceback today
MALFORMED = (
    ("F1", ORACLE_RADIAL + ["2", "--schedule", "nan,20,40"], 2),
    ("F2", ORACLE_RADIAL + ["5/2"], 2),
    ("F3-points", ORACLE_RADIAL + ["2", "--points", "0"], 2),
    ("F3-samples", ORACLE_RADIAL + ["2", "--samples", "0"], 2),
    ("F4", ORACLE_RADIAL + ["2", "--schedule", "10,abc,40"], 2),
    ("parse", ["lct", "--ideal", "x^2, y^"], 2),
    ("hypothesis", ["adj", "--ideal", "x*y, x^2", "--c", "1",
                    "--axis", "x"], 3),
    ("concavity", ["mult", "--toric", "power(2; 2/3, 2/3)"], 2),
)
CERTIFY_KINDS = ("lct", "mult", "mult-min", "mult-power", "adj", "adj0",
                 "valuation-min", "valuation-power", "openness",
                 "check-adjunction", "jump")
PER_KIND = 4
SCALES = (F(1, 2), F(2, 3), F(1), F(4, 3), F(3, 2))


class Certify:
    """In-process `nil ... --format json` on many small distinct inputs."""

    max_rounds = None

    def __init__(self, seed: int):
        self.rng = random.Random(f"certify:{seed}")

    def setup(self, nilcalc) -> None:
        self.cli = nilcalc.cli

    def _ideal(self):
        n = self.rng.choice((2, 2, 3))
        top = 6 if n == 2 else 4
        pure = [self.rng.randint(2, top) for _ in range(n)]
        return m_primary(self.rng, pure, (0, 2))

    def _slopes(self, n):
        rng = self.rng
        slopes = [tuple(F(rng.randint(1, 10), rng.choice((1, 2)))
                        if j == i else F(0) for j in range(n))
                  for i in range(n)]
        slopes.append(tuple(F(rng.randint(0, 6), rng.choice((1, 2)))
                            for _ in range(n)))
        return slopes

    def _alpha(self, n, unit_ok):
        """Exponents with sum 1 (or, when unit_ok, sometimes below 1)."""
        rng = self.rng
        q = rng.choice([v for v in (2, 3, 4, 6) if v >= n]) if n > 1 else 1
        total = q - 1 if unit_ok and n < q and rng.random() < 0.25 else q
        cuts = sorted(rng.sample(range(1, total), n - 1))
        return [F(b - a, q) for a, b in zip([0] + cuts, cuts + [total])]

    def _generate(self, kind):
        rng = self.rng
        if kind in ("lct", "mult", "adj", "openness", "check-adjunction",
                    "jump"):
            gens = self._ideal()
            argv = [kind, "--ideal", _ideal_text(gens),
                    "--vars", ",".join(NAMES[:len(gens[0])])]
            c = rng.choice(SCALES)
            axis = rng.randrange(len(gens[0]))
            if kind in ("mult", "adj", "openness", "check-adjunction"):
                argv += ["--c", _rat(c)]
            if kind in ("adj", "check-adjunction"):
                argv += ["--axis", NAMES[axis]]
            if kind == "jump":
                c = rng.choice((F(1, 2), F(2, 3), F(1)))
                argv += ["--cmax", _rat(c)]
            return argv, (gens, c, axis)
        if kind in ("mult-min", "valuation-min"):
            n = rng.choice((2, 3))
            slopes = self._slopes(n)
            text = "min(" + ", ".join(
                " + ".join(f"{_rat(s)}*{NAMES[i]}"
                           for i, s in enumerate(sl) if s) for sl in slopes
                if any(sl)) + ")"
            slopes = [sl for sl in slopes if any(sl)]
            beta = [rng.randint(0, 4) for _ in range(n)]
            argv = ["--toric", text, "--vars", ",".join(NAMES[:n])]
            if kind == "mult-min":
                return ["mult"] + argv, (slopes,)
            return (["valuation"] + argv + ["--beta",
                                            ",".join(map(str, beta))],
                    (slopes, beta))
        if kind in ("mult-power", "valuation-power"):
            n = rng.choice((1, 2, 2, 3))
            alpha = self._alpha(n, unit_ok=kind == "mult-power")
            k = F(rng.randint(1, 6), 2)
            text = f"power({_rat(k)}; {', '.join(map(_rat, alpha))})"
            beta = [rng.randint(0, 4) for _ in range(n)]
            if kind == "mult-power":
                return ["mult", "--toric", text], (k, alpha)
            return (["valuation", "--toric", text, "--beta",
                     ",".join(map(str, beta))], (k, alpha, beta))
        assert kind == "adj0"
        n = rng.choice((2, 3))
        k = F(rng.randint(1, 12), 2)
        alpha = [F(rng.randint(1, 4), rng.choice((1, 2))) for _ in range(n)]
        beta = [rng.randint(0, 5) for _ in range(n)]
        return (["adj0", "--k", _rat(k), "--alpha", ",".join(map(_rat, alpha)),
                 "--beta", ",".join(map(str, beta))], (k, alpha, beta))

    def round(self) -> List[Op]:
        ops = []
        for _ in range(PER_KIND):
            for kind in CERTIFY_KINDS:
                argv, data = self._generate(kind)
                ops.append(Op(kind, (argv + ["--format", "json"], data, 0)))
        for label, argv, code in MALFORMED:
            ops.append(Op(label, (argv + ["--format", "json"], None, code)))
        return ops

    def execute(self, op: Op):
        argv, _, expected = op.params
        out, err = io.StringIO(), io.StringIO()
        code = self.cli.run(argv, stdout=out, stderr=err)
        failed = code != expected or (expected != 0 and not err.getvalue())
        return (code, out.getvalue()), failed

    @staticmethod
    def check(op: Op, answer) -> None:
        argv, data, expected = op.params
        code, text = answer
        if expected:
            return
        doc = checks.strict_json(text)
        result = doc["result"]
        names = doc["inputs"].get("variables") or list(NAMES)
        kind = op.kind

        def gens_of(key):
            return [checks.parse_monomial(m, names) for m in result[key]]

        if kind == "lct":
            checks.check_lct(data[0], checks.parse_rational(result["lct"]))
        elif kind == "mult":
            checks.check_multiplier(data[0], data[1], gens_of("generators"))
        elif kind == "adj":
            checks.check_adjoint(*data, gens_of("generators"))
        elif kind == "openness":
            checks.check_openness(data[0], data[1],
                                  checks.parse_rational(result["epsilon"]))
        elif kind == "jump":
            checks.check_jumps(data[0], data[1], [
                checks.parse_rational(j) for j in result["jumping_numbers"]])
        elif kind == "check-adjunction":
            gens, c, axis = data
            rest = [v for i, v in enumerate(names) if i != axis]
            checks.check_adjunction(
                gens, c, axis, gens_of("adj"), gens_of("multiplier"),
                [checks.parse_monomial(m, rest)
                 for m in result["restricted_multiplier"]],
                result["kernel_exact"], result["restriction_exact"])
        elif kind == "mult-min":
            checks.check_min_multiplier(data[0], gens_of("generators"))
        elif kind == "mult-power":
            checks.check_power_multiplier(*data, gens_of("generators"))
        elif kind == "adj0":
            want = checks.adj0_ref(*data)
            checks.require(result["member"] == want,
                           f"adj0 member {result['member']} != {want}")
        else:
            cert = doc["certificates"]
            margin = cert.get("margin")
            witness = cert.get("witness")
            margin = margin and checks.parse_rational(margin)
            witness = witness and [checks.parse_rational(w) for w in witness]
            if kind == "valuation-min":
                checks.check_valuation_min(*data, result["member"], margin,
                                           witness)
            else:
                checks.check_valuation_power(*data, result["member"], margin,
                                             witness)


# -- oracle ---------------------------------------------------------------

ORACLE_3D_POINTS = 48
MIN_MARGIN = F(1, 4)
# (operation, dimension, exact class: "boundary" = exactly on the
# boundary, None = at least MIN_MARGIN inside or outside).  Cheap
# one-dimensional calls fill the bottom third of the latency ranks,
# Monte Carlo the middle third (around the median) and the 3-d
# quadrature the top (around the 90th percentile).
ORACLE_SLOTS = (
    *[("radial", 1, None)] * 4, ("radial", 1, "boundary"),
    *[("orthant", 1, None)] * 4, ("orthant", 1, "boundary"),
    *[("polydisk", 1, None)] * 3, *[("polydisk", 2, None)] * 4,
    *[("polydisk", 3, None)] * 3,
    *[("weighted", 2, None)] * 3, *[("orthant", 2, None)] * 3,
    *[("orthant", 3, None)] * 4,
)


class Oracle:
    """Library calls into the numerical oracles; `lp` does no work here."""

    max_rounds = None

    def __init__(self, seed: int):
        self.rng = random.Random(f"oracle:{seed}")

    def setup(self, nilcalc) -> None:
        self.oracle = nilcalc.oracle
        self.toric = nilcalc.toric
        self.cfg = {n: nilcalc.oracle.OracleConfig() for n in (1, 2)}
        self.cfg[3] = nilcalc.oracle.OracleConfig(
            quadrature_points_per_axis=ORACLE_3D_POINTS)

    def _slopes(self, n):
        rng = self.rng
        slopes = [tuple(rng.randint(1, 4) if j == i else 0 for j in range(n))
                  for i in range(n)]
        if n > 1:
            slopes.append(tuple(rng.randint(0, 3) for _ in range(n)))
        return slopes

    def _point(self, n, den=4, top=5):
        return tuple(F(self.rng.randint(1, top * den), den) for _ in range(n))

    def _case(self, kind, n, want):
        rng = self.rng
        while True:
            if kind == "radial":
                beta = rng.randint(0, 5)
                k = F(beta + 1) if want else F(rng.randint(1, 24), 4)
                exact, margin = checks.radial_class(k, beta)
                params = (k, beta)
            else:
                slopes = self._slopes(n)
                if kind == "polydisk":
                    beta = tuple(rng.randint(0, 4) for _ in range(n))
                    point, scale = tuple(b + 1 for b in beta), F(1)
                    params = (slopes, beta)
                elif kind == "weighted":
                    point, scale = self._point(n), rng.choice(
                        (F(0), F(1, 10), F(1, 4)))
                    params = (slopes, point, scale)
                    scale += 1
                else:
                    point, scale = self._point(n), F(1)
                    if want == "boundary":  # 1-d: A at the vertex
                        point = tuple(F(s) for s in slopes[0])
                    params = (slopes, point)
                P = checks.Polyhedron([[scale * s for s in sl]
                                       for sl in slopes])
                exact, margin = checks.exact_class(P, point)
            if (exact == "boundary") == (want == "boundary") and \
                    (want == "boundary" or margin >= MIN_MARGIN):
                return exact, margin, params

    def round(self) -> List[Op]:
        ops = []
        for kind, n, want in ORACLE_SLOTS:
            exact, margin, params = self._case(kind, n, want)
            ops.append(Op(kind, (n, exact, margin, params)))
        return ops

    def _g(self, slopes):
        return self.toric.pwl_min([(s, 0) for s in slopes])

    def execute(self, op: Op):
        n, _, _, params = op.params
        o, cfg = self.oracle, self.cfg[n]
        if op.kind == "radial":
            v = o.radial_power_integral(*params, cfg)
        elif op.kind == "polydisk":
            v = o.polydisk_mc(self._g(params[0]), params[1], o.PLAIN, cfg)
        elif op.kind == "weighted":
            v = o.adjoint_weighted_integral(self._g(params[0]), params[1],
                                            params[2], cfg)
        else:
            v = o.orthant_exp_integral(self._g(params[0]), params[1], cfg)
        return (v.verdict, tuple(v.partial_values)), False

    @staticmethod
    def check(op: Op, answer) -> None:
        _, exact, margin, params = op.params
        verdict = answer[0]
        if op.kind == "radial":
            checks.check_radial(*params, verdict)
        checks.check_oracle(exact, margin, verdict)


WORKLOADS: Dict[str, Callable] = {
    "staircase": Staircase,
    "certify": Certify,
    "oracle": Oracle,
}
