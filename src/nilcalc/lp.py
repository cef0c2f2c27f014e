"""Exact rational linear programming for small dense problems.

A two-phase primal simplex over `fractions.Fraction` with Bland's
anti-cycling rule.  Problem sizes here are tiny (a handful of variables
and constraints), so the implementation favours exactness and
verifiable certificates over speed:

* optimal outcomes carry the primal point and an optimal dual vector,
* infeasible outcomes carry a Farkas certificate,
* everything re-verifies by exact arithmetic (`satisfies_point`,
  `verify_farkas`, `verify_optimal_dual`).

Pivot selection is lowest-index (Bland), so identical inputs produce
bitwise-identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log10
from typing import Iterable, Optional, Sequence, Tuple

LEQ = "<="
EQ = "="
GEQ = ">="

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

ZERO = Fraction(0)
ONE = Fraction(1)


class InputError(ValueError):
    """Malformed problem data: dimension mismatch, bad relation, ..."""


class HypothesisError(InputError):
    """A mathematical hypothesis of an operation is violated."""


def frac(x) -> Fraction:
    """Coerce ints, strings 'p/q' and Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not an exact rational: {x!r}") from exc
    raise InputError(f"not an exact rational: {x!r}")


def positive(x, name: str) -> Fraction:
    """x as a Fraction, checked > 0; the error names it `name`."""
    x = frac(x)
    if x <= 0:
        raise InputError(f"{name} must be positive")
    return x


def fvec(xs: Iterable) -> Tuple[Fraction, ...]:
    return tuple(frac(x) for x in xs)


def numeral(value) -> str:
    """value, an int or a Fraction, in decimal, or as "about 10^d" where
    it is longer than Python prints (4,300 digits by default,
    sys.get_int_max_str_digits)."""
    try:
        return str(value)
    except ValueError:
        v = Fraction(value)
        d = round(log10(abs(v.numerator)) - log10(v.denominator))
        return f"about {'-' if v < 0 else ''}10^{d}"


@dataclass(frozen=True)
class LinearConstraintSystem:
    """Constraints a.x {<=,=,>=} b over `variable_count` variables.

    Variables whose index is in `nonnegative` are sign-restricted;
    the rest are free.
    """

    variable_count: int
    constraints: Tuple[Tuple[Tuple[Fraction, ...], str, Fraction], ...]
    nonnegative: frozenset

    @staticmethod
    def make(variable_count: int,
             constraints: Sequence[Tuple[Sequence, str, object]],
             nonnegative: Iterable[int] = ()) -> "LinearConstraintSystem":
        if variable_count < 0:
            raise InputError("variable_count must be non-negative")
        rows = []
        for coeffs, rel, bound in constraints:
            cs = fvec(coeffs)
            if len(cs) != variable_count:
                raise InputError(
                    f"constraint has {len(cs)} coefficients, "
                    f"expected {variable_count}")
            if rel not in (LEQ, EQ, GEQ):
                raise InputError(f"unknown relation {rel!r}")
            rows.append((cs, rel, frac(bound)))
        nn = frozenset(nonnegative)
        for i in nn:
            if not 0 <= i < variable_count:
                raise InputError(f"nonnegative index {i} out of range")
        return LinearConstraintSystem(variable_count, tuple(rows), nn)


@dataclass(frozen=True)
class LpOutcome:
    status: str
    optimum: Optional[Fraction] = None
    primal_point: Optional[Tuple[Fraction, ...]] = None
    dual_certificate: Optional[Tuple[Fraction, ...]] = None


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    point: Optional[Tuple[Fraction, ...]] = None
    certificate: Optional[Tuple[Fraction, ...]] = None


def _oriented(system: LinearConstraintSystem):
    """Rows with >= flipped to <=; '=' rows kept as equalities."""
    rows = []
    for coeffs, rel, b in system.constraints:
        if rel == GEQ:
            rows.append((tuple(-c for c in coeffs), LEQ, -b))
        else:
            rows.append((coeffs, rel, b))
    return rows


class _Standardized:
    """Equality standard form: split free variables, add slacks."""

    def __init__(self, system: LinearConstraintSystem):
        self.system = system
        self.rows = _oriented(system)
        self.colmap = []  # per original variable: (pos_col, neg_col|None)
        cols = 0
        for j in range(system.variable_count):
            if j in system.nonnegative:
                self.colmap.append((cols, None))
                cols += 1
            else:
                self.colmap.append((cols, cols + 1))
                cols += 2
        self.slack_col = {}
        for i, (_, rel, _) in enumerate(self.rows):
            if rel == LEQ:
                self.slack_col[i] = cols
                cols += 1
        self.ncols = cols
        m = len(self.rows)
        self.m = m
        # scaled matrix: each row multiplied by sigma_i so that rhs >= 0
        self.sigma = []
        self.A = []  # m x ncols, scaled
        self.b = []  # scaled rhs, >= 0
        for i, (coeffs, rel, b) in enumerate(self.rows):
            s = ONE if b >= 0 else Fraction(-1)
            self.sigma.append(s)
            row = [ZERO] * cols
            for j, c in enumerate(coeffs):
                p, ncol = self.colmap[j]
                row[p] = s * c
                if ncol is not None:
                    row[ncol] = -s * c
            if rel == LEQ:
                row[self.slack_col[i]] = s
            self.A.append(row)
            self.b.append(s * b)

    def expand_objective(self, objective: Sequence[Fraction]):
        c = [ZERO] * self.ncols
        for j, v in enumerate(objective):
            p, ncol = self.colmap[j]
            c[p] = v
            if ncol is not None:
                c[ncol] = -v
        return c

    def shrink_point(self, x: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        out = []
        for p, ncol in self.colmap:
            v = x[p]
            if ncol is not None:
                v -= x[ncol]
            out.append(v)
        return tuple(out)


def _pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [v / piv for v in T[r]]
    prow = T[r]
    for i in range(len(T)):
        if i == r:
            continue
        f = T[i][c]
        if f:
            T[i] = [a - f * b for a, b in zip(T[i], prow)]
    basis[r] = c


def _run_simplex(T, basis, zrow, allowed_cols):
    """Bland simplex on tableau rows T with reduced-cost row zrow.

    Returns 'optimal' or ('unbounded', entering_col).  T rows carry the
    rhs in the last slot; zrow carries the objective value there.
    """
    rhs = len(zrow) - 1
    while True:
        enter = -1
        for j in allowed_cols:
            if zrow[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal", -1
        leave = -1
        best = None
        for r in range(len(T)):
            a = T[r][enter]
            if a > 0:
                ratio = T[r][rhs] / a
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return "unbounded", enter
        _pivot(T, basis, leave, enter)
        f = zrow[enter]
        if f:
            prow = T[leave]
            for j in range(len(zrow)):
                zrow[j] -= f * prow[j]


def _solve_linear(M, rhs):
    """Exact Gaussian elimination; M square, assumed nonsingular."""
    n = len(M)
    A = [list(row) + [rhs[i]] for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        prow = A[col]
        inv = ONE / prow[col]
        A[col] = [v * inv for v in prow]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [A[i][n] for i in range(n)]


def maximize(objective: Sequence, system: LinearConstraintSystem) -> LpOutcome:
    """Maximize objective.x subject to the system, exactly.

    Deterministic; certificates verify via `verify_farkas` and
    `verify_optimal_dual`.
    """
    obj = fvec(objective)
    if len(obj) != system.variable_count:
        raise InputError("objective length does not match variable count")
    std = _Standardized(system)
    m, ncols = std.m, std.ncols

    # --- phase 1: artificial columns form the starting basis -----------
    nart = m
    width = ncols + nart + 1
    T = []
    for i in range(m):
        row = list(std.A[i]) + [ZERO] * nart + [std.b[i]]
        row[ncols + i] = ONE
        T.append(row)
    basis = [ncols + i for i in range(m)]
    # reduced costs for maximize(-sum of artificials)
    zrow = [ZERO] * width
    for i in range(m):
        for j in range(width):
            zrow[j] += T[i][j]
    for i in range(m):
        zrow[ncols + i] = ZERO
    allowed = list(range(ncols + nart))
    _run_simplex(T, basis, zrow, allowed)
    infeas = sum(T[r][width - 1] for r in range(m) if basis[r] >= ncols)
    if infeas > 0:
        # Farkas certificate from the phase-1 dual.
        c1 = [ZERO] * ncols + [Fraction(-1)] * nart
        B = [[(std.A[i][col] if col < ncols else
               (ONE if col == ncols + i else ZERO))
              for col in basis] for i in range(m)]
        cB = [c1[col] for col in basis]
        y = _solve_linear([[B[i][k] for i in range(m)] for k in range(m)], cB)
        cert = tuple(std.sigma[i] * y[i] for i in range(m))
        return LpOutcome(INFEASIBLE, dual_certificate=cert)

    # drive leftover artificials out of the basis; drop redundant rows
    rowids = list(range(m))
    r = 0
    while r < len(T):
        if basis[r] >= ncols:
            piv = next((j for j in range(ncols) if T[r][j] != 0), -1)
            if piv >= 0:
                _pivot(T, basis, r, piv)
                r += 1
            else:
                del T[r], basis[r], rowids[r]
        else:
            r += 1

    # --- phase 2 --------------------------------------------------------
    rhs = width - 1
    c2 = std.expand_objective(obj) + [ZERO] * nart
    zrow = list(c2) + [ZERO]
    for r in range(len(T)):
        f = c2[basis[r]]
        if f:
            for j in range(width):
                zrow[j] -= f * T[r][j]
    allowed = list(range(ncols))
    status, _ = _run_simplex(T, basis, zrow, allowed)

    xfull = [ZERO] * (ncols + nart)
    for r in range(len(T)):
        xfull[basis[r]] = T[r][rhs]
    point = std.shrink_point(xfull)
    if status == "unbounded":
        return LpOutcome(UNBOUNDED, primal_point=point)

    optimum = sum((cj * xj for cj, xj in zip(obj, point)), ZERO)
    k = len(T)
    B = [[std.A[rowids[i]][col] for col in basis] for i in range(k)]
    cB = [c2[col] for col in basis]
    yk = _solve_linear([[B[i][j] for i in range(k)] for j in range(k)], cB) \
        if k else []
    cert = [ZERO] * m
    for i, rid in enumerate(rowids):
        cert[rid] = std.sigma[rid] * yk[i]
    return LpOutcome(OPTIMAL, optimum=optimum, primal_point=point,
                     dual_certificate=tuple(cert))


def feasible(system: LinearConstraintSystem) -> FeasibilityResult:
    """Decide feasibility with an exact witness or Farkas certificate."""
    out = maximize([ZERO] * system.variable_count, system)
    if out.status == INFEASIBLE:
        return FeasibilityResult(False, certificate=out.dual_certificate)
    return FeasibilityResult(True, point=out.primal_point)


# --- exact certificate verification ------------------------------------

def satisfies_point(system: LinearConstraintSystem,
                    point: Sequence[Fraction]) -> bool:
    if len(point) != system.variable_count:
        return False
    for j in system.nonnegative:
        if point[j] < 0:
            return False
    for coeffs, rel, b in system.constraints:
        v = sum((c * x for c, x in zip(coeffs, point)), ZERO)
        if rel == LEQ and v > b:
            return False
        if rel == GEQ and v < b:
            return False
        if rel == EQ and v != b:
            return False
    return True


def _aggregate(system, cert):
    """Combine oriented rows with the given multipliers."""
    rows = _oriented(system)
    v = [ZERO] * system.variable_count
    rhs = ZERO
    for (coeffs, rel, b), lam in zip(rows, cert):
        if rel == LEQ and lam < 0:
            return None, None
        for j, c in enumerate(coeffs):
            v[j] += lam * c
        rhs += lam * b
    return v, rhs


def verify_farkas(system: LinearConstraintSystem,
                  cert: Sequence[Fraction]) -> bool:
    """Check that cert exactly certifies infeasibility."""
    v, rhs = _aggregate(system, cert)
    if v is None:
        return False
    for j in range(system.variable_count):
        if j in system.nonnegative:
            if v[j] < 0:
                return False
        elif v[j] != 0:
            return False
    return rhs < 0


def verify_optimal_dual(system: LinearConstraintSystem,
                        objective: Sequence[Fraction],
                        cert: Sequence[Fraction],
                        optimum: Fraction) -> bool:
    """Check dual feasibility and that the implied bound equals optimum."""
    v, rhs = _aggregate(system, cert)
    if v is None:
        return False
    for j in range(system.variable_count):
        if j in system.nonnegative:
            if v[j] < objective[j]:
                return False
        elif v[j] != objective[j]:
            return False
    return rhs == optimum
