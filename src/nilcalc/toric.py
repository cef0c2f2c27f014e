"""Concave toric weight functions and their Newton convex bodies.

Two families are representable exactly:

* `PiecewiseLinearMin` -- g(x) = min_i (<slope_i, x> + offset_i) with
  componentwise non-negative slopes.  Its body has the same interior as
  the Newton polyhedron built on the slopes; offsets never change any
  verdict.
* `PowerProduct` -- g(x) = k * x_1^a_1 ... x_n^a_n with k > 0 and
  sum(a) <= 1 (the concavity threshold).  Body membership is decided
  exactly by clearing the denominators of the exponents and comparing
  integer powers; no floating point enters any verdict.

`homogenized_value` is the monomial-valuation weight of the attached
torus-invariant psh function along w (the limit of g(tw)/t), and
`valuative_membership` is the valuation-based membership test with an
exact certificate for non-members.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import exp, lcm, log
from typing import List, Optional, Sequence, Tuple, Union

from .lp import ZERO, InputError, frac, fvec
from .newton import (BOUNDARY, EXTERIOR, INTERIOR, PointClassification,
                     Vector, build, classify, dot, vector)

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


def homogenized_value(g: ConcaveToricFunction, w: Sequence):
    """lim g(tw)/t -- the Kiselman number of the attached weight along w."""
    wv = vector(w)
    if len(wv) != g.dimension:
        raise InputError("dimension mismatch")
    if all(v == 0 for v in wv):
        raise InputError("the direction w must be non-zero")
    if any(v < 0 for v in wv):
        raise InputError("the direction w must be componentwise >= 0")
    if isinstance(g, PiecewiseLinearMin):
        return min(dot(s, wv) for s, _ in g.pieces)
    if sum(g.exponents, ZERO) < 1:
        return Fraction(0)
    return evaluate(g, wv)


def _body_margin_power(g: PowerProduct, lam: Vector) -> Fraction:
    """Certified dyadic lower bound for the interior margin of lam > 0.

    The exact margin solves a polynomial equation and is irrational in
    general; the bisection bound still satisfies lam - margin*1 in the
    closed body.
    """
    support = [i for i, a in enumerate(g.exponents) if a > 0]
    if not support:
        return min(lam)
    if sum(g.exponents, ZERO) < 1:
        return min(lam[i] for i in support) / 2
    lo = ZERO
    hi = min(lam[i] for i in support)
    for _ in range(40):
        # mid < hi keeps lam - mid positive on the support
        mid = (lo + hi) / 2
        if _power_ratio_sign(g, tuple(v - mid for v in lam)) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def _power_ratio_sign(g: PowerProduct, lam: Vector) -> int:
    """Sign of prod_{a_i>0} (lam_i/a_i)^{a_i} - k, decided exactly."""
    q, ps = _power_data(g)
    lhs = Fraction(1)
    for li, ai, p in zip(lam, g.exponents, ps):
        if p:
            if li == 0:
                return -1
            lhs *= (li / ai) ** p
    rhs = g.scale ** q
    return (lhs > rhs) - (lhs < rhs)


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
    if isinstance(g, PiecewiseLinearMin):
        P = build([s for s, _ in g.pieces])
        return classify(P, lv, Fraction(1))

    def unit(j: int) -> Vector:
        return tuple(Fraction(1) if i == j else ZERO
                     for i in range(g.dimension))

    if sum(g.exponents, ZERO) < 1:
        for i, a in enumerate(g.exponents):
            if a > 0 and lv[i] == 0:
                return PointClassification(EXTERIOR, witness=unit(i))
    else:
        sign = _power_ratio_sign(g, lv)
        if sign <= 0:
            verdict = BOUNDARY if sign == 0 else EXTERIOR
            return PointClassification(
                verdict, witness=_power_separating_direction(g, lv))
    # lam is interior to the body in the coordinates g depends on; a zero
    # coordinate off the support still puts it on the orthant's boundary
    for j, a in enumerate(g.exponents):
        if a == 0 and lv[j] == 0:
            return PointClassification(BOUNDARY, witness=unit(j))
    return PointClassification(INTERIOR, margin=_body_margin_power(g, lv))


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
    if isinstance(g, PiecewiseLinearMin):
        ghat = homogenized_value(g, w)
        return (ghat > bound) - (ghat < bound)
    if sum(g.exponents, ZERO) < 1:
        return (0 > bound) - (0 < bound) if bound != 0 else 0
    vq, q = _power_value_pow_q(g, w)
    rq = bound ** q
    return (vq > rq) - (vq < rq)


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
