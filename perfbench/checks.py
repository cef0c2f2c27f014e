"""Independent answer checkers.

Nothing here imports nilcalc.  Newton polyhedra are described by a
brute-force H-representation: every hyperplane through n of the
generators and coordinate directions whose normal w is >= 0 and whose
offset b = min <w, g> over the generators is > 0.  Each such inequality
<w, x> >= b is valid on P = conv(G) + R^n_+, and every facet of P that
is not a coordinate hyperplane is among them, so for x > 0

    crit(x) = max{c : x in cP} = min_F <w_F, x> / b_F.

All membership decisions are exact integer comparisons; numpy is used
only to evaluate them on whole boxes of lattice points at once.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from math import ceil, gcd, inf, lcm
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

Vec = Tuple[int, ...]
_INT64_SAFE = 1 << 62


class CheckFailure(AssertionError):
    """A program answer disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _det(rows: List[List[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _normal(rows: List[List[int]], n: int) -> Vec:
    """Generalised cross product: the vector orthogonal to n-1 rows."""
    return tuple((-1) ** i * _det([r[:i] + r[i + 1:] for r in rows])
                 for i in range(n))


class Polyhedron:
    """Newton polyhedron conv(G) + R^n_+ of a rational point set G."""

    def __init__(self, generators: Iterable[Sequence]):
        gens = [tuple(Fraction(v) for v in g) for g in generators]
        require(bool(gens), "empty generator set")
        self.n = len(gens[0])
        self.scale = lcm(*[v.denominator for g in gens for v in g])
        ints = sorted({tuple(int(v * self.scale) for v in g) for g in gens})
        self.generators = ints
        self.facets = self._facets(ints)  # (w, b) with <w, y> >= b on scale*P

    def _facets(self, gens: List[Vec]) -> List[Tuple[Vec, int]]:
        n = self.n
        items = [("g", g) for g in gens] + [("e", i) for i in range(n)]
        found = set()
        for combo in combinations(items, n):
            points = [g for kind, g in combo if kind == "g"]
            if not points:
                continue
            base = points[0]
            rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
            rows += [[1 if j == i else 0 for j in range(n)]
                     for kind, i in combo if kind == "e"]
            w = _normal(rows, n)
            if all(v <= 0 for v in w):
                w = tuple(-v for v in w)
            if any(v < 0 for v in w) or not any(w):
                continue
            b = min(sum(a * x for a, x in zip(w, g)) for g in gens)
            if b <= 0:
                continue
            d = gcd(b, *w)
            found.add((tuple(v // d for v in w), b // d))
        return sorted(found)

    # -- scalar queries -------------------------------------------------
    def crit(self, x: Sequence) -> Fraction:
        """Largest c with x in cP, for x > 0 (inf for the unit ideal)."""
        xs = [Fraction(v) for v in x]
        require(all(v > 0 for v in xs), "crit needs a positive point")
        if not self.facets:
            return inf
        return min(sum((a * v for a, v in zip(w, xs)), Fraction(0)) / b
                   for w, b in self.facets) * self.scale

    def in_closed(self, x: Sequence) -> bool:
        """x in the closed polyhedron P."""
        xs = [Fraction(v) for v in x]
        if any(v < 0 for v in xs):
            return False
        return all(sum((a * v for a, v in zip(w, xs)), Fraction(0))
                   * self.scale >= b for w, b in self.facets)

    def margins(self, x: Sequence) -> Tuple[Fraction, Fraction]:
        """(interior margin, exterior gap) of x >= 0 in the l1 sense.

        The interior margin is the largest eps with x - eps*1 in P; the
        exterior gap is the largest violation of a facet inequality.
        """
        xs = [Fraction(v) for v in x]
        slack = [(sum((a * v for a, v in zip(w, xs)), Fraction(0))
                  - Fraction(b, self.scale)) / sum(w)
                 for w, b in self.facets]
        interior = min(xs + slack)
        gap = max([-s for s in slack] + [Fraction(0)])
        return interior, gap

    # -- box queries ----------------------------------------------------
    def _dot_columns(self, points: np.ndarray, factor: int):
        """<w_F, x> for every facet, as columns that stay exact after
        multiplication by factor: int64 when that cannot overflow,
        Python integers otherwise."""
        bound = int(points.max(initial=0)) * factor * max(
            (sum(w) for w, _ in self.facets), default=0)
        dtype = np.int64 if bound < _INT64_SAFE else object
        pts = points.astype(dtype)
        return [pts @ np.array(w, dtype=dtype) for w, _ in self.facets]

    def interior_mask(self, points: np.ndarray, c: Fraction) -> np.ndarray:
        """Boolean mask: each (positive) point strictly inside cP."""
        c = Fraction(c)
        factor = c.denominator * self.scale
        mask = np.ones(len(points), dtype=bool)
        for col, (_, b) in zip(self._dot_columns(points, factor),
                               self.facets):
            mask &= col * factor > c.numerator * b
        return mask

    def crit_values(self, points: np.ndarray) -> List[Fraction]:
        """Exact crit for each (positive) point of an integer array."""
        if not self.facets:
            return [inf] * len(points)
        L = lcm(*[b for _, b in self.facets])
        best = None
        for col, (_, b) in zip(self._dot_columns(points, L), self.facets):
            scaled = col * (L // b)
            best = scaled if best is None else np.minimum(best, scaled)
        return [Fraction(int(v) * self.scale, L) for v in best]


# -- lattice boxes --------------------------------------------------------

def box_points(caps: Sequence[int]) -> np.ndarray:
    grids = np.indices([c + 1 for c in caps]).reshape(len(caps), -1)
    return grids.T.copy()


def minimal_elements(caps: Sequence[int], mask: np.ndarray) -> Set[Vec]:
    """Minimal points of an upward-closed set given as a box mask."""
    grid = mask.reshape([c + 1 for c in caps])
    minimal = grid.copy()
    for axis in range(len(caps)):
        below = np.zeros_like(grid)
        src = [slice(None)] * len(caps)
        dst = [slice(None)] * len(caps)
        src[axis] = slice(None, -1)
        dst[axis] = slice(1, None)
        below[tuple(dst)] = grid[tuple(src)]
        minimal &= ~below
    return {tuple(int(v) for v in idx) for idx in np.argwhere(minimal)}


def _caps(gens: Sequence[Sequence], c: Fraction, extra: int) -> List[int]:
    n = len(gens[0])
    return [ceil(Fraction(c) * max(Fraction(g[i]) for g in gens)) + extra
            for i in range(n)]


# -- reference answers for monomial ideals --------------------------------

def multiplier_ref(gens: Sequence[Vec], c) -> Set[Vec]:
    """Generators of J(a^c): beta with beta + 1 in int(cP), over the box."""
    P = Polyhedron(gens)
    caps = _caps(gens, c, 1)
    pts = box_points(caps)
    return minimal_elements(caps, P.interior_mask(pts + 1, Fraction(c)))


def adjoint_ref(gens: Sequence[Vec], c, axis: int) -> Set[Vec]:
    """Generators of Adj(a^c) along {z_axis = 0}.

    z^beta is a member iff x = beta + (1 off the axis, 0 on it) lies in
    int(cP) when beta_axis > 0, or in the relative interior of the axis
    face of cP when beta_axis = 0.
    """
    n = len(gens[0])
    P = Polyhedron(gens)
    face = Polyhedron([tuple(v for i, v in enumerate(g) if i != axis)
                       for g in gens if g[axis] == 0])
    caps = _caps(gens, c, 2)
    pts = box_points(caps)
    shifted = pts + np.array([0 if i == axis else 1 for i in range(n)])
    on_face = pts[:, axis] == 0
    mask = np.zeros(len(pts), dtype=bool)
    off = ~on_face
    mask[off] = P.interior_mask(shifted[off], Fraction(c))
    proj = np.delete(shifted[on_face], axis, axis=1)
    mask[on_face] = face.interior_mask(proj, Fraction(c))
    return minimal_elements(caps, mask)


def jumps_ref(gens: Sequence[Vec], c_max) -> List[Fraction]:
    """Distinct values crit(beta + 1) in (0, c_max] over the box."""
    P = Polyhedron(gens)
    pts = box_points(_caps(gens, c_max, 1)) + 1
    c_max = Fraction(c_max)
    return sorted({v for v in P.crit_values(pts) if 0 < v <= c_max})


def lct_ref(gens: Sequence[Vec]):
    return Polyhedron(gens).crit((1,) * len(gens[0]))


def openness_bound(gens: Sequence[Vec], c) -> Fraction:
    """Supremum of the eps with J(a^((1+eps)c)) = J(a^c)."""
    P = Polyhedron(gens)
    c = Fraction(c)
    values = [P.crit(tuple(v + 1 for v in beta)) / c - 1
              for beta in multiplier_ref(gens, c)]
    finite = [v for v in values if v != inf]
    return min(finite) if finite else inf


def restrict(gens: Sequence[Vec], axis: int) -> List[Vec]:
    kept = {tuple(v for i, v in enumerate(g) if i != axis)
            for g in gens if g[axis] == 0}
    return [g for g in kept
            if not any(h != g and all(a >= b for a, b in zip(g, h))
                       for h in kept)]


# -- checks of program answers --------------------------------------------

def check_generators(kind: str, got: Iterable[Sequence], want: Set[Vec]):
    got_set = {tuple(int(v) for v in g) for g in got}
    extra = sorted(got_set - want)
    missing = sorted(want - got_set)
    require(not extra and not missing,
            f"{kind}: extra generators {extra}, missing {missing}")


def check_multiplier(gens, c, got) -> None:
    check_generators("multiplier ideal", got, multiplier_ref(gens, c))


def check_adjoint(gens, c, axis, got) -> None:
    check_generators("adjoint ideal", got, adjoint_ref(gens, c, axis))


def check_jumps(gens, c_max, got: Sequence[Fraction]) -> None:
    want = jumps_ref(gens, c_max)
    require(list(got) == want, f"jumping numbers {list(got)} != {want}")


def check_lct(gens, got) -> None:
    want = lct_ref(gens)
    require(got == want, f"lct {got} != {want}")


def check_openness(gens, c, eps) -> None:
    bound = openness_bound(gens, c)
    require(0 < eps < bound, f"openness margin {eps} not in (0, {bound})")


def check_adjunction(gens, c, axis, adjoint, multiplier, restricted,
                     kernel_exact: bool, restriction_exact: bool) -> None:
    require(kernel_exact and restriction_exact,
            f"adjunction flags {kernel_exact}, {restriction_exact}")
    check_adjoint(gens, c, axis, adjoint)
    check_multiplier(gens, c, multiplier)
    check_generators("restricted multiplier", restricted,
                     multiplier_ref(restrict(gens, axis), c))


# -- toric weights ----------------------------------------------------------

def _power_q(alpha: Sequence[Fraction]) -> int:
    return lcm(*[a.denominator for a in alpha])


def power_value_q(k: Fraction, alpha: Sequence[Fraction],
                  w: Sequence[Fraction]) -> Fraction:
    """(k * prod w_i^alpha_i) ** q, exactly, for the common denominator q."""
    q = _power_q(alpha)
    out = Fraction(k) ** q
    for a, v in zip(alpha, w):
        if a:
            out *= Fraction(v) ** int(a * q)
    return out


def power_criterion(k, alpha, lam, strict: bool = True) -> bool:
    """lam in the (open or closed) body of k * x^alpha, sum(alpha) = 1:
    prod (lam_i / alpha_i)^alpha_i > k, compared as integer powers."""
    alpha = [Fraction(a) for a in alpha]
    if sum(alpha) < 1:
        return all(Fraction(v) > 0 if strict else Fraction(v) >= 0
                   for v, a in zip(lam, alpha) if a)
    if any(Fraction(v) < 0 for v, a in zip(lam, alpha) if a):
        return False
    q = _power_q(alpha)
    lhs = Fraction(1)
    for v, a in zip(lam, alpha):
        if a:
            lhs *= (Fraction(v) / a) ** int(a * q)
    rhs = Fraction(k) ** q
    return lhs > rhs if strict else lhs >= rhs


def power_multiplier_ref(k, alpha) -> Set[Vec]:
    """Generators of the multiplier ideal of k * x^alpha by the criterion."""
    n = len(alpha)

    def member(beta):
        return power_criterion(k, alpha, [b + 1 for b in beta])

    caps = []
    for i, a in enumerate(alpha):
        cap = 0
        if a:
            while not member([cap if j == i else 0 for j in range(n)]):
                cap += 1
                require(cap < 10_000, "power weight box is too large")
        caps.append(cap)
    members = [beta for beta in product(*(range(c + 1) for c in caps))
               if member(beta)]
    mask = np.zeros([c + 1 for c in caps], dtype=bool)
    for beta in members:
        mask[beta] = True
    return minimal_elements(caps, mask.reshape(-1))


def check_power_multiplier(k, alpha, got) -> None:
    check_generators("power multiplier ideal", got,
                     power_multiplier_ref(k, alpha))


def check_min_multiplier(slopes, got) -> None:
    """Toric J of min(<s_i, x>): the multiplier ideal of the slopes at c=1."""
    check_generators("toric multiplier ideal", got, multiplier_ref(slopes, 1))


def check_valuation_min(slopes, beta, member: bool, margin, witness) -> None:
    P = Polyhedron(slopes)
    lam = [Fraction(b) + 1 for b in beta]
    want = P.crit(lam) > 1
    require(member == want, f"valuation member {member} != {want}")
    if member:
        eps = Fraction(margin) * max(lam)
        require(eps > 0 and P.in_closed([v - eps for v in lam]),
                f"valuation margin {margin} does not certify")
    else:
        w = [Fraction(v) for v in witness]
        require(all(v >= 0 for v in w) and any(w), "witness must be >= 0")
        ghat = min(sum((Fraction(s) * v for s, v in zip(sl, w)),
                       Fraction(0)) for sl in slopes)
        bound = sum((v * b for v, b in zip(w, beta)), Fraction(0)) + sum(w)
        require(ghat >= bound, f"witness {witness} fails: {ghat} < {bound}")


def check_valuation_power(k, alpha, beta, member: bool, margin,
                          witness) -> None:
    alpha = [Fraction(a) for a in alpha]
    lam = [Fraction(b) + 1 for b in beta]
    want = power_criterion(k, alpha, lam)
    require(member == want, f"valuation member {member} != {want}")
    if member:
        eps = Fraction(margin) * max(lam)
        require(eps > 0 and power_criterion(
            k, alpha, [v - eps for v in lam], strict=False),
            f"valuation margin {margin} does not certify")
    else:
        w = [Fraction(v) for v in witness]
        require(all(v >= 0 for v in w) and any(w), "witness must be >= 0")
        bound = sum((v * b for v, b in zip(w, beta)), Fraction(0)) + sum(w)
        if sum(alpha) < 1:
            ok = bound <= 0
        else:
            ok = power_value_q(k, alpha, w) >= bound ** _power_q(alpha)
        require(ok, f"witness {witness} fails the valuative inequality")


def adj0_ref(k, alpha, beta) -> bool:
    """Closed form: N = sum (beta_i + 1)/alpha_i exceeds k + 1/alpha_1,
    or meets it with beta_1 > 0."""
    N = sum(Fraction(b + 1) / Fraction(a) for a, b in zip(alpha, beta))
    t = Fraction(k) + 1 / Fraction(alpha[0])
    return N > t or (N == t and beta[0] > 0)


# -- oracles ------------------------------------------------------------------

CONVERGES = "Converges"
DIVERGES = "Diverges"
MARGIN = Fraction(1, 10)


def check_oracle(exact: str, margin: Fraction, verdict: str) -> None:
    """exact is 'interior', 'exterior' or 'boundary'."""
    if exact == "boundary":
        require(verdict != CONVERGES, "boundary case read Converges")
    elif margin >= MARGIN:
        want = CONVERGES if exact == "interior" else DIVERGES
        require(verdict == want, f"{exact} case (margin {margin}) read "
                                 f"{verdict}")


def radial_class(k, beta) -> Tuple[str, Fraction]:
    d = Fraction(beta) + 1 - Fraction(k)
    if d == 0:
        return "boundary", Fraction(0)
    return ("interior" if d > 0 else "exterior"), abs(d)


def check_radial(k, beta, verdict: str) -> None:
    want = Fraction(beta) + 1 > Fraction(k)
    require((verdict == CONVERGES) == want,
            f"radial k={k} beta={beta} read {verdict}")


def exact_class(P: Polyhedron, A: Sequence) -> Tuple[str, Fraction]:
    interior, gap = P.margins(A)
    if interior > 0:
        return "interior", interior
    if gap > 0:
        return "exterior", gap
    return "boundary", Fraction(0)


# -- output parsing -----------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def strict_json(text: str) -> dict:
    """Parse a JSON document, rejecting NaN and Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckFailure(f"output is not strict JSON: {exc}") from None


def parse_monomial(text: str, names: Sequence[str]) -> Vec:
    exps = [0] * len(names)
    if text.strip() == "1":
        return tuple(exps)
    for part in text.split("*"):
        name, _, power = part.strip().partition("^")
        require(name in names, f"unknown variable {name!r} in {text!r}")
        exps[names.index(name)] += int(power) if power else 1
    return tuple(exps)


def parse_rational(text: str):
    return inf if text == "inf" else Fraction(text)
