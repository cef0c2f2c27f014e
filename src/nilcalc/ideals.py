"""Monomial ideals and the polyhedral ideal calculus.

Monomial ideals are stored as Dickson-minimal antichains of natural
exponent vectors (empty antichain = zero ideal, the single zero vector
= unit ideal).  Multiplier ideals, adjoint ideals, log canonical
thresholds, jumping numbers and the adjunction report are all computed
exactly from the facets <w, x> >= b of the Newton polyhedron P:

* z^beta lies in the multiplier ideal at scale c iff beta + (1,...,1)
  is interior to c*P: min <w, beta + 1>/b > c over the facets,
* z^beta lies in the adjoint ideal along the axis hyperplane H iff
  x = beta + (0,1,...,1) is interior to c*P or in the relative interior
  of c*F, F the face of P on H: again min <w, x>/b > c, since the facets
  of F other than coordinate ones are traces on H of facets of P, all
  of which hold on F (when F is empty, x_axis >= min g_axis gives 0).

Generator enumerations walk the staircase of the ideal inside the box
0 <= beta_i <= ceil(c * max g_i); `box_audit` re-runs any enumeration
with the caps pushed out and checks that the antichain is unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, inf, prod
from typing import Iterable, List, Optional, Sequence, Tuple

from .lp import ZERO, HypothesisError, InputError, frac
from .newton import (INTERIOR, NewtonPolyhedron, Vector, _facet_minimum,
                     axis_complement_ones, build, critical_scale, dominates,
                     minimal_antichain, ones, vadd, vector)
from .toric import (ConcaveToricFunction, PiecewiseLinearMin, PowerProduct,
                    classify_in_body)

# most lattice points jumping_numbers scans; one critical scale costs
# tens of microseconds, so a box this size takes tens of seconds
JUMP_SCAN_LIMIT = 10 ** 6


@dataclass(frozen=True)
class MonomialIdeal:
    dimension: int
    generators: Tuple[Vector, ...]  # lexicographically sorted antichain

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and \
            all(c == 0 for c in self.generators[0])


@dataclass(frozen=True)
class AdjunctionReport:
    adjoint: MonomialIdeal
    multiplier: MonomialIdeal
    restricted_multiplier: MonomialIdeal
    kernel: MonomialIdeal
    restriction: MonomialIdeal
    kernel_exact: bool
    restriction_exact: bool


def _natural_vector(coords: Sequence, dimension: Optional[int]) -> Vector:
    v = vector(coords, dimension)
    for c in v:
        if c < 0 or c.denominator != 1:
            raise InputError("exponents must be natural numbers")
    return v


def minimalize(exponents: Iterable[Sequence],
               dimension: Optional[int] = None) -> MonomialIdeal:
    """The ideal generated by the given exponents, in canonical form."""
    vecs = []
    n = dimension
    for e in exponents:
        v = _natural_vector(e, n)
        n = len(v)
        vecs.append(v)
    if n is None:
        raise InputError("cannot infer dimension of the zero ideal; "
                         "pass dimension explicitly")
    return MonomialIdeal(n, minimal_antichain(vecs))


def contains(ideal: MonomialIdeal, beta: Sequence) -> bool:
    bv = _natural_vector(beta, ideal.dimension)
    return any(dominates(bv, g) for g in ideal.generators)


def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    if ideal.is_zero:
        raise InputError("the zero ideal has no Newton polyhedron")
    return build(ideal.generators)


def _enumerate_minimal(dimension: int, caps: Sequence[int],
                       member) -> Tuple[Vector, ...]:
    """The minimal members of the box prod [0, caps_i], for an upward
    closed `member`, in descending lexicographic order.

    Walks the staircase: for each prefix of the first n-1 coordinates,
    in lexicographic order, the least member last coordinate is found
    by stepping down from the least one of a predecessor prefix (which
    is a member, by upward closure), or from the cap when no
    predecessor has any.  The point is minimal iff it lies strictly
    below every predecessor's.
    """
    *head, top = caps
    least = {}
    found = []
    for prefix in itertools.product(*(range(c + 1) for c in head)):
        start = tuple(Fraction(b) for b in prefix)
        predecessors = (prefix[:i] + (b - 1,) + prefix[i + 1:]
                        for i, b in enumerate(prefix) if b)
        above = min((least[p] for p in predecessors if p in least),
                    default=None)
        if above is None:
            if not member(start + (Fraction(top),)):
                continue
            last = top
        else:
            last = above
        while last > 0 and member(start + (Fraction(last - 1),)):
            last -= 1
        least[prefix] = last
        if above is None or last < above:
            found.append(start + (Fraction(last),))
    return tuple(sorted(found, reverse=True))


def _facet_member(P: NewtonPolyhedron, c: Fraction, shift: Vector):
    """z^beta is a member iff min <w, beta + shift>/b > c (shift >= 0)."""
    def member(beta: Vector) -> bool:
        return _facet_minimum(P, vadd(beta, shift)) > c
    return member


def _caps(P: NewtonPolyhedron, c: Fraction) -> List[int]:
    return [ceil(c * max(g[i] for g in P.generators))
            for i in range(P.dimension)]


def _facet_ideal(P: NewtonPolyhedron, c: Fraction, shift: Vector,
                 cap_bump: int = 0) -> MonomialIdeal:
    """The ideal of `_facet_member`, enumerated in the box of `_caps`."""
    caps = [b + cap_bump for b in _caps(P, c)]
    gens = _enumerate_minimal(P.dimension, caps, _facet_member(P, c, shift))
    return MonomialIdeal(P.dimension, gens)


def multiplier_ideal(ideal: MonomialIdeal, c,
                     cap_bump: int = 0) -> MonomialIdeal:
    """The multiplier ideal of ideal^c; see module docstring."""
    c = frac(c)
    if c <= 0:
        raise InputError("scale c must be positive")
    if ideal.is_zero:
        raise InputError("the zero ideal has no multiplier ideal")
    return _facet_ideal(newton_polyhedron(ideal), c, ones(ideal.dimension),
                        cap_bump)


def _axis_power_cap(dimension: int, axis_index: int, member) -> int:
    """min{b : b*e_axis is a member}; an InputError if it exceeds 2^20.

    Membership is upward closed (ideals are stable under multiplication
    by coordinates), so the minimum is found by doubling and bisection.
    """
    def at(b: int) -> bool:
        return member(tuple(Fraction(b if i == axis_index else 0)
                            for i in range(dimension)))

    if at(0):
        return 0
    if not at(1 << 20):
        raise InputError("generator enumeration box is too large "
                         "for these exponents")
    hi = 1
    while not at(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if at(mid):
            hi = mid
        else:
            lo = mid
    return hi


def multiplier_ideal_toric(g: ConcaveToricFunction) -> MonomialIdeal:
    """Multiplier ideal of the toric weight attached to g."""
    n = g.dimension
    if isinstance(g, PiecewiseLinearMin):
        return _facet_ideal(build([s for s, _ in g.pieces]), Fraction(1),
                            ones(n))
    assert isinstance(g, PowerProduct)
    if sum(g.exponents, ZERO) < 1:
        return MonomialIdeal(n, (tuple(ZERO for _ in range(n)),))

    def member(beta: Vector) -> bool:
        lam = vadd(beta, ones(n))
        return classify_in_body(g, lam).verdict == INTERIOR

    caps = [_axis_power_cap(n, i, member) if a > 0 else 0
            for i, a in enumerate(g.exponents)]
    return MonomialIdeal(n, _enumerate_minimal(n, caps, member))


def lct(ideal: MonomialIdeal):
    """Log canonical threshold; math.inf for the unit ideal."""
    if ideal.is_zero:
        raise InputError("the zero ideal has no log canonical threshold")
    return critical_scale(newton_polyhedron(ideal), ones(ideal.dimension))


def jumping_numbers(ideal: MonomialIdeal, c_max) -> List[Fraction]:
    """All jumping numbers in (0, c_max], sorted increasingly."""
    c_max = frac(c_max)
    if c_max <= 0:
        raise InputError("c_max must be positive")
    if ideal.is_zero:
        raise InputError("the zero ideal has no jumping numbers")
    if ideal.is_unit:
        raise InputError("the unit ideal has no jumping numbers")
    P = newton_polyhedron(ideal)
    caps = _caps(P, c_max)
    box = prod(c + 1 for c in caps)
    if box > JUMP_SCAN_LIMIT:
        raise InputError(f"the jump search box has {box} points, more than "
                         f"{JUMP_SCAN_LIMIT}; lower c_max")
    jumps = set()
    for beta in itertools.product(*(range(c + 1) for c in caps)):
        x = vadd(tuple(Fraction(b) for b in beta), ones(ideal.dimension))
        c = critical_scale(P, x)
        if c is not inf and 0 < c <= c_max:
            jumps.add(c)
    return sorted(jumps)


def openness_margin(ideal: MonomialIdeal, c) -> Fraction:
    """An eps > 0 with J(ideal^((1+eps)c)) = J(ideal^c), exactly checked."""
    c = frac(c)
    if c <= 0:
        raise InputError("scale c must be positive")
    if ideal.is_zero:
        raise InputError("the zero ideal has no openness margin")
    if ideal.is_unit:
        return Fraction(1)
    P = newton_polyhedron(ideal)
    current = multiplier_ideal(ideal, c)
    eps = None
    for beta in current.generators:
        cb = critical_scale(P, vadd(beta, ones(ideal.dimension)))
        if cb is inf:
            continue
        margin = cb / c - 1
        eps = margin if eps is None else min(eps, margin)
    eps = Fraction(1) if eps is None else eps / 2
    if multiplier_ideal(ideal, (1 + eps) * c) != current:  # pragma: no cover
        raise AssertionError("openness margin failed to certify")
    return eps


def adjoint_ideal(ideal: MonomialIdeal, c, axis: int,
                  cap_bump: int = 0) -> MonomialIdeal:
    """Adjoint ideal of ideal^c along the hyperplane {z_axis = 0}.

    Requires that the ideal is not contained in (z_axis), i.e. some
    generator has zero axis coordinate.
    """
    c = frac(c)
    if c <= 0:
        raise InputError("scale c must be positive")
    if ideal.is_zero:
        raise InputError("the zero ideal has no adjoint ideal")
    if not 0 <= axis < ideal.dimension:
        raise InputError("axis index out of range")
    if not any(g[axis] == 0 for g in ideal.generators):
        raise HypothesisError(
            "the ideal is contained in the axis hyperplane ideal; "
            "the restricted weight is identically -infinity")
    # The multiplier's caps suffice: a member stays one when a coordinate
    # is lowered to a value still >= c * max g_i, by the multiplier's
    # argument, except that on the axis (> 0 there unless P = F x R_+)
    # the lowered point may lie on the boundary of c*P; moving a little
    # weight onto a generator with g_axis = 0, as the hypothesis above
    # provides, puts it back inside.
    return _facet_ideal(newton_polyhedron(ideal), c,
                        axis_complement_ones(ideal.dimension, axis),
                        cap_bump)


def adj0_power_membership(k, alpha: Sequence, beta: Sequence) -> bool:
    """Zero-adjoint membership for the power weight along {z_1 = 0}.

    z^beta is a member iff N = sum (beta_i + 1)/alpha_i either exceeds
    k + 1/alpha_1 strictly, or meets it with beta_1 > 0.
    """
    kf = frac(k)
    if kf <= 0:
        raise InputError("k must be positive")
    al = vector(alpha)
    if any(a <= 0 for a in al):
        raise InputError("all alpha_i must be positive")
    bv = _natural_vector(beta, len(al))
    total = sum(((b + 1) / a for b, a in zip(bv, al)), ZERO)
    threshold = kf + 1 / al[0]
    if total > threshold:
        return True
    return total == threshold and bv[0] > 0


def restrict_to_axis(ideal: MonomialIdeal, axis: int) -> MonomialIdeal:
    """Restriction to {z_axis = 0}: keep generators vanishing nowhere on it."""
    if ideal.dimension < 2:
        raise InputError("restriction needs dimension >= 2")
    if not 0 <= axis < ideal.dimension:
        raise InputError("axis index out of range")
    kept = [tuple(v for i, v in enumerate(g) if i != axis)
            for g in ideal.generators if g[axis] == 0]
    return MonomialIdeal(ideal.dimension - 1, minimal_antichain(kept))


def shift_by_axis(ideal: MonomialIdeal, axis: int) -> MonomialIdeal:
    """Multiply by z_axis: increment the axis exponent of every generator."""
    if not 0 <= axis < ideal.dimension:
        raise InputError("axis index out of range")
    gens = [tuple(v + 1 if i == axis else v for i, v in enumerate(g))
            for g in ideal.generators]
    return MonomialIdeal(ideal.dimension, minimal_antichain(gens))


def intersect_axis_multiples(ideal: MonomialIdeal,
                             axis: int) -> MonomialIdeal:
    """The intersection with (z_axis), as an antichain."""
    if not 0 <= axis < ideal.dimension:
        raise InputError("axis index out of range")
    gens = [tuple(max(v, Fraction(1)) if i == axis else v
                  for i, v in enumerate(g)) for g in ideal.generators]
    return MonomialIdeal(ideal.dimension, minimal_antichain(gens))


def adjunction_report(ideal: MonomialIdeal, c, axis: int) -> AdjunctionReport:
    """Exact check of the adjunction sequence at the monomial level.

    kernel_exact: adj intersected with (z_axis) equals z_axis * J.
    restriction_exact: the restriction of adj to the hyperplane equals
    the multiplier ideal of the restricted ideal.
    """
    adj = adjoint_ideal(ideal, c, axis)
    J = multiplier_ideal(ideal, c)
    restricted = restrict_to_axis(ideal, axis)
    if restricted.is_zero:
        raise HypothesisError("the restricted ideal is zero; the weight "
                              "is identically -infinity on the hyperplane")
    J_H = multiplier_ideal(restricted, c)
    kernel = intersect_axis_multiples(adj, axis)
    shifted = shift_by_axis(J, axis)
    restriction = restrict_to_axis(adj, axis)
    return AdjunctionReport(
        adjoint=adj, multiplier=J, restricted_multiplier=J_H,
        kernel=kernel, restriction=restriction,
        kernel_exact=(kernel == shifted),
        restriction_exact=(restriction == J_H))


def box_audit(ideal: MonomialIdeal, c, axis: Optional[int] = None,
              bump: int = 2) -> bool:
    """Re-run a generator enumeration with caps pushed out by `bump`.

    Returns True iff the antichain is unchanged, validating the cap
    choice for this input.
    """
    if axis is None:
        return multiplier_ideal(ideal, c) == \
            multiplier_ideal(ideal, c, cap_bump=bump)
    return adjoint_ideal(ideal, c, axis) == \
        adjoint_ideal(ideal, c, axis, cap_bump=bump)


def monomial_power(dimension: int, degree: int) -> MonomialIdeal:
    """The power m^degree of the maximal ideal (all |beta| = degree)."""
    if degree < 0:
        raise InputError("degree must be non-negative")
    gens = [tuple(Fraction(b) for b in beta)
            for beta in itertools.product(range(degree + 1),
                                          repeat=dimension)
            if sum(beta) == degree]
    return minimalize(gens, dimension)
