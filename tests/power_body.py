"""Fraction references for the body of a power product k * x^a: the
criterion prod (lam_i/a_i)^a_i against k, the 40-step bisection of the
interior margin, both on Fractions, and the classification built on them
before `toric` decided polyhedral bodies through `newton.classify` and
the exponent-sum-1 body through one integer criterion."""

from fractions import Fraction
from math import lcm

from nilcalc.newton import BOUNDARY, EXTERIOR, INTERIOR, PointClassification
from nilcalc.toric import PowerProduct, _power_separating_direction


def _q(g: PowerProduct) -> int:
    return lcm(*(a.denominator for a in g.exponents))


def power_ratio_sign(g: PowerProduct, lam) -> int:
    """Sign of prod_{a_i>0} (lam_i/a_i)^{a_i} - k, decided exactly."""
    q = _q(g)
    lhs = Fraction(1)
    for li, ai in zip(lam, g.exponents):
        if ai:
            if li == 0:
                return -1
            lhs *= (Fraction(li) / ai) ** int(ai * q)
    rhs = g.scale ** q
    return (lhs > rhs) - (lhs < rhs)


def body_margin(g: PowerProduct, lam) -> Fraction:
    """The interior margin as `toric` bounded it: min lam with no support,
    half the least support coordinate below exponent sum 1, else 40
    bisection steps on Fractions below the least support coordinate."""
    support = [i for i, a in enumerate(g.exponents) if a > 0]
    if not support:
        return min(lam)
    if sum(g.exponents) < 1:
        return min(lam[i] for i in support) / 2
    lo, hi = Fraction(0), min(lam[i] for i in support)
    for _ in range(40):
        mid = (lo + hi) / 2
        if power_ratio_sign(g, tuple(v - mid for v in lam)) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def classify_power(g: PowerProduct, lam) -> PointClassification:
    """`toric.classify_in_body` for a power product, as it was decided by
    `power_ratio_sign` and `body_margin`."""
    lam = tuple(Fraction(v) for v in lam)

    def unit(j):
        return tuple(Fraction(int(i == j)) for i in range(g.dimension))

    if sum(g.exponents) < 1:
        for i, a in enumerate(g.exponents):
            if a > 0 and lam[i] == 0:
                return PointClassification(EXTERIOR, witness=unit(i))
    else:
        sign = power_ratio_sign(g, lam)
        if sign <= 0:
            return PointClassification(
                BOUNDARY if sign == 0 else EXTERIOR,
                witness=_power_separating_direction(g, lam))
    for j, a in enumerate(g.exponents):
        if a == 0 and lam[j] == 0:
            return PointClassification(BOUNDARY, witness=unit(j))
    return PointClassification(INTERIOR, margin=body_margin(g, lam))


def verdict(g: PowerProduct, lam) -> str:
    """Where lam >= 0 lies against the closed body: the orthant when the
    exponent sum is below 1, else {prod (lam_i/a_i)^a_i >= k}."""
    if sum(g.exponents) == 1:
        sign = power_ratio_sign(g, lam)
        if sign <= 0:
            return BOUNDARY if sign == 0 else EXTERIOR
    return INTERIOR if min(lam) > 0 else BOUNDARY


def certifies(g: PowerProduct, lam, cls: PointClassification) -> bool:
    """Does the margin or witness of `cls` hold for lam?  A margin eps > 0
    must keep lam - eps*1 in the closed body; a witness w >= 0, w != 0
    must have ghat(w) >= <w, lam>, compared as q-th powers (ghat is 0
    below exponent sum 1)."""
    if cls.verdict == INTERIOR:
        shifted = tuple(Fraction(v) - cls.margin for v in lam)
        return cls.margin > 0 and min(shifted) >= 0 and (
            sum(g.exponents) < 1 or power_ratio_sign(g, shifted) >= 0)
    w = cls.witness
    if min(w) < 0 or not any(w):
        return False
    bound = sum(x * Fraction(v) for x, v in zip(w, lam))
    if sum(g.exponents) < 1:
        return bound <= 0
    q = _q(g)
    ghat_q = g.scale ** q
    for x, a in zip(w, g.exponents):
        ghat_q *= x ** int(a * q)
    return ghat_q >= bound ** q
