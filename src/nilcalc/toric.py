"""Concave toric weight functions and their Newton convex bodies.

Two families are representable exactly:

* `PiecewiseLinearMin` -- g(x) = min_i (<slope_i, x> + offset_i) with
  componentwise non-negative slopes; offsets never change any verdict.
* `PowerProduct` -- g(x) = k * x_1^a_1 ... x_n^a_n with k > 0 and
  sum(a) <= 1 (the concavity threshold).

Each has one exact body.  `body_polyhedron` gives its Newton polyhedron
where it is polyhedral, read by `newton.classify`: the slopes' for a
minimum, the orthant for sum(a) < 1 (the homogenization is 0).  For
sum(a) = 1 and a = p/q, lam is interior iff lam > 0 and prod lam_i^p_i >
R = k^q prod a_i^p_i: one integer sign test, shared by membership, the
interior margin and `ideals`' least members; no float enters a verdict.

`homogenized_value` is the monomial-valuation weight of the attached
torus-invariant psh function along w (the limit of g(tw)/t), and
`valuative_membership` is the valuation-based membership test with an
exact certificate for non-members.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, lcm, log, prod
from typing import List, Optional, Sequence, Tuple, Union

from .lp import ZERO, InputError, frac, fvec
from .newton import (BOUNDARY, EXTERIOR, INTERIOR, NewtonPolyhedron,
                     PointClassification, Vector, _scaled, build, classify,
                     dot, vector)

_LOG_FLOAT_MIN = log(sys.float_info.min)  # least positive normal float
_LOG_FLOAT_MAX = log(sys.float_info.max)


@dataclass(frozen=True)
class PiecewiseLinearMin:
    pieces: Tuple[Tuple[Vector, Fraction], ...]  # (slope, offset)

    @property
    def dimension(self) -> int:
        return len(self.pieces[0][0])


@dataclass(frozen=True)
class PowerProduct:
    scale: Fraction            # k
    exponents: Vector          # alpha, componentwise >= 0, sum <= 1

    @property
    def dimension(self) -> int:
        return len(self.exponents)


ConcaveToricFunction = Union[PiecewiseLinearMin, PowerProduct]


@dataclass(frozen=True)
class ValuativeReport:
    member: bool
    margin: Optional[Fraction] = None    # member: a certified gap delta
    certificate: Optional[Vector] = None  # non-member: valuation weight w


def pwl_min(pieces: Sequence[Tuple[Sequence, object]]) -> PiecewiseLinearMin:
    if not pieces:
        raise InputError("need at least one affine piece")
    parsed = []
    n = None
    for slope, offset in pieces:
        s = fvec(slope)
        if n is None:
            n = len(s)
        elif len(s) != n:
            raise InputError("mixed dimensions in pieces")
        if any(c < 0 for c in s):
            raise InputError("slopes must be componentwise non-negative")
        parsed.append((s, frac(offset)))
    return PiecewiseLinearMin(tuple(parsed))


def power_product(k, exponents: Sequence) -> PowerProduct:
    kf = frac(k)
    if kf <= 0:
        raise InputError("the factor k must be positive")
    al = fvec(exponents)
    if not al:
        raise InputError("need at least one exponent")
    if any(a < 0 for a in al):
        raise InputError("exponents must be non-negative")
    if sum(al, ZERO) > 1:
        raise InputError("sum of exponents exceeds 1; the function "
                         "would not be concave")
    return PowerProduct(kf, al)


def _floor_root(value: int, k: int) -> int:
    """floor(value ** (1/k)) for an integer value >= 0."""
    if value < 2 or k == 1:
        return value
    # Newton's iteration from above 2^ceil(bits/k) > root descends to
    # the floor of the root
    r = 1 << -(-value.bit_length() // k)
    while True:
        s = ((k - 1) * r + value // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _iroot(value: int, k: int) -> Optional[int]:
    """Exact integer k-th root, or None."""
    if value < 0:
        return None
    r = _floor_root(value, k)
    return r if r ** k == value else None


def _rational_root(value: Fraction, k: int) -> Optional[Fraction]:
    num = _iroot(value.numerator, k)
    if num is None:
        return None
    den = _iroot(value.denominator, k)
    if den is None:
        return None
    return Fraction(num, den)


def _power_data(g: PowerProduct) -> Tuple[int, List[int]]:
    """Common denominator q and integer numerators p_i of the exponents."""
    q = lcm(*[a.denominator for a in g.exponents]) if g.exponents else 1
    return q, [int(a * q) for a in g.exponents]


def _power_value_pow_q(g: PowerProduct, x: Vector) -> Tuple[Fraction, int]:
    """(k * prod x^alpha) ** q as an exact rational, with q."""
    q, ps = _power_data(g)
    val = g.scale ** q
    for xi, p in zip(x, ps):
        if p:
            val *= xi ** p
    return val, q


def evaluate(g: ConcaveToricFunction, x: Sequence):
    """g(x); exact rational when possible, else a float."""
    if isinstance(g, PiecewiseLinearMin):
        xv = vector(x, g.dimension)
        return min(dot(s, xv) + off for s, off in g.pieces)
    xv = vector(x, g.dimension)
    if any(v < 0 for v in xv):
        raise InputError("evaluation point must be componentwise >= 0")
    if any(xi == 0 and a > 0 for xi, a in zip(xv, g.exponents)):
        return Fraction(0)
    vq, q = _power_value_pow_q(g, xv)
    exact = _rational_root(vq, q)
    if exact is not None:
        return exact
    # vq > 0 may not fit a float: take the q-th root in log space
    log_value = (log(vq.numerator) - log(vq.denominator)) / q
    if not _LOG_FLOAT_MIN <= log_value <= _LOG_FLOAT_MAX:
        raise InputError(f"g(x) = e^{log_value:.6g} is beyond float range")
    return exp(log_value)


def body_polyhedron(g: ConcaveToricFunction) -> Optional[NewtonPolyhedron]:
    """The Newton polyhedron of g's body when it is polyhedral: the slopes'
    for a minimum of linear forms, the orthant's for a power product of
    exponent sum below 1 (its homogenization is 0); else None."""
    if isinstance(g, PiecewiseLinearMin):
        return build([s for s, _ in g.pieces])
    if sum(g.exponents, ZERO) < 1:
        return build([(ZERO,) * g.dimension])
    return None


def _power_criterion(g: PowerProduct) -> Tuple[List[int], Fraction]:
    """(p, R) for exponent sum 1: with a_i = p_i/q, lam >= 0 lies in the
    closed body iff prod lam_i^p_i >= R = k^q prod a_i^p_i."""
    q, ps = _power_data(g)
    return ps, g.scale ** q * prod(a ** p for a, p in zip(g.exponents, ps))


def _power_sign(ps: Sequence[int], R: Fraction, xs: Sequence[int],
                den: int) -> int:
    """Sign of prod (xs_i/den)^p_i - R for sum p_i = q, on integers."""
    lhs = R.denominator * prod(x ** p for x, p in zip(xs, ps))
    rhs = R.numerator * den ** sum(ps)
    return (lhs > rhs) - (lhs < rhs)


def homogenized_value(g: ConcaveToricFunction, w: Sequence):
    """lim g(tw)/t -- the Kiselman number of the attached weight along w."""
    wv = vector(w)
    if len(wv) != g.dimension:
        raise InputError("dimension mismatch")
    if all(v == 0 for v in wv):
        raise InputError("the direction w must be non-zero")
    if any(v < 0 for v in wv):
        raise InputError("the direction w must be componentwise >= 0")
    P = body_polyhedron(g)
    if P is None:
        return evaluate(g, wv)
    return min(dot(s, wv) for s in P.generators)


def _body_margin_power(ps: Sequence[int], R: Fraction, xs: Sequence[int],
                       den: int) -> Fraction:
    """Certified dyadic lower bound for the interior margin of lam = xs/den
    (exponent sum 1), which is irrational in general: the largest m*h/2^40
    with lam - (m*h/2^40)*1 in the closed body, h = min xs/den over the
    support and m < 2^40 (keeping the support positive), by bisection."""
    h = min(x for x, p in zip(xs, ps) if p)
    lo, hi = 0, 1 << 40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _power_sign(ps, R, [(x << 40) - mid * h for x in xs],
                       den << 40) >= 0:
            lo = mid
        else:
            hi = mid
    return Fraction(lo * h, den << 40)


def _power_separating_direction(g: PowerProduct, lam: Vector) -> Vector:
    """A weight w >= 0 with ghat(w) >= <w, lam>, strict off the boundary."""
    support = [i for i, a in enumerate(g.exponents) if a > 0]
    zero_support = [i for i in support if lam[i] == 0]
    if not zero_support:
        return tuple(a / li if a > 0 else Fraction(0)
                     for li, a in zip(lam, g.exponents))
    # lam vanishes on the support: push mass along that axis until the
    # homogeneous value exactly beats <w, lam>.
    i = zero_support[0]
    m = 1
    while True:
        w = tuple(Fraction(1) + (Fraction(m) if j == i else ZERO)
                  for j in range(g.dimension))
        ghat_q, q = _power_value_pow_q(g, w)
        if ghat_q >= dot(w, lam) ** q:
            return w
        m *= 2


def classify_in_body(g: ConcaveToricFunction,
                     lam: Sequence) -> PointClassification:
    """Locate lam relative to the Newton convex body of g, exactly.

    Verdicts refer to the closure of the body (the polyhedron of the
    homogenization); all downstream theorems consume interiors only.
    """
    lv = vector(lam)
    if len(lv) != g.dimension:
        raise InputError("dimension mismatch")
    if any(v < 0 for v in lv):
        raise InputError("the point must be componentwise >= 0")
    P = body_polyhedron(g)
    if P is not None:
        return classify(P, lv, Fraction(1))
    ps, R = _power_criterion(g)
    den = lcm(*(v.denominator for v in lv))
    xs = _scaled(lv, den)
    sign = _power_sign(ps, R, xs, den)
    if sign <= 0:
        return PointClassification(BOUNDARY if sign == 0 else EXTERIOR,
                                   witness=_power_separating_direction(g, lv))
    # lam is interior in the coordinates g depends on; the orthant bounds
    # the rest, and caps the margin at min lam
    orthant = classify(build([(ZERO,) * g.dimension]), lv, Fraction(1))
    if orthant.verdict != INTERIOR:
        return orthant
    return PointClassification(INTERIOR, margin=min(
        orthant.margin, _body_margin_power(ps, R, xs, den)))


def exp_integrable(g: ConcaveToricFunction) -> bool:
    """Does exp(g) have finite integral over the positive orthant?"""
    zero = (ZERO,) * g.dimension
    return classify_in_body(g, zero).verdict == INTERIOR


def exp_integrable_shifted(g: ConcaveToricFunction, shift: Sequence) -> bool:
    """Does exp(g - <shift, .>) have finite integral over the orthant?"""
    sv = vector(shift, g.dimension)
    if any(v < 0 for v in sv):
        raise InputError("shift must be componentwise >= 0")
    return classify_in_body(g, sv).verdict == INTERIOR


def certificate_slack(g: ConcaveToricFunction, beta: Sequence,
                      w: Vector) -> int:
    """Sign of ghat(w) - (<w, beta> + |w|), decided exactly.

    >= 0 certifies that beta is NOT a member (the valuation ratio is
    at least 1 along w).
    """
    bv = vector(beta, g.dimension)
    bound = dot(w, bv) + sum(w, ZERO)
    P = body_polyhedron(g)
    if P is not None:
        ghat = min(dot(s, w) for s in P.generators)
    else:  # compared as q-th powers
        ghat, q = _power_value_pow_q(g, w)
        bound **= q
    return (ghat > bound) - (ghat < bound)


def valuative_membership(g: ConcaveToricFunction,
                         beta: Sequence) -> ValuativeReport:
    """Membership of z^beta decided through monomial valuations.

    Member iff beta + 1 lies in the interior of the body; non-members
    carry a weight w with ghat(w) >= <w, beta> + |w| exactly.
    """
    bv = vector(beta, g.dimension)
    if any(v < 0 for v in bv):
        raise InputError("beta must be componentwise >= 0")
    lam = tuple(b + 1 for b in bv)
    cls = classify_in_body(g, lam)
    if cls.verdict == INTERIOR:
        # lam - margin*1 in the closed body gives ratio <= 1 - delta
        delta = cls.margin / max(lam)
        return ValuativeReport(True, margin=delta)
    w = cls.witness
    if certificate_slack(g, bv, w) < 0:  # pragma: no cover - soundness net
        raise AssertionError("witness fails the valuative inequality")
    return ValuativeReport(False, certificate=w)
