"""Monomial ideals and the polyhedral ideal calculus.

Monomial ideals are stored as Dickson-minimal antichains of natural
exponent vectors, tuples of ints (`newton.Exponents`; empty antichain =
zero ideal, the single zero vector = unit ideal).  By Howald's theorem
every generator returned is such a vector, and no Fraction is built for
one; an ideal built from Fraction tuples of the same values compares
and hashes equal, and its operations give the same answers.

Multiplier ideals, adjoint ideals, log canonical thresholds, jumping
numbers and the adjunction report are all computed exactly from the
facets <w, x> >= b of the Newton polyhedron P:

* z^beta lies in the multiplier ideal at scale c iff beta + (1,...,1)
  is interior to c*P: min <w, beta + 1>/b > c over the facets,
* z^beta lies in the adjoint ideal along the axis hyperplane H iff
  x = beta + (0,1,...,1) is interior to c*P or in the relative interior
  of c*F, F the face of P on H: again min <w, x>/b > c, since the facets
  of F other than coordinate ones are traces on H of facets of P, all
  of which hold on F (when F is empty, x_axis >= min g_axis gives 0).

With c = p/q in lowest terms and the integer shift s = x - beta, both
tests are q*<w, beta> > p*b - q*<w, s> for every facet: integer dot
products against integer thresholds, computed once per enumeration.
Jumping numbers, and the margins of `openness_margin`, are the least
ratios <w, beta + 1>/b: jumps as integers over the common denominator of
the b, margins compared by cross-multiplication.

Generator enumerations walk the staircase of the ideal inside the box
0 <= beta_i <= ceil(c * max g_i) on integer exponent vectors, the caps
computed on integers from the per-axis maxima that P holds; with the
other coordinates fixed, the least member last coordinate is a maximum
of integer floors over the facets (an integer root for a power product).
`box_audit` re-runs any enumeration with the caps pushed out and checks
that the antichain is unchanged.

The walk and the jump scan stop at the staircase.  In lexicographic
order, the walk ends a coordinate's run at the first prefix whose least
member is 0, and the scan at the first point whose least ratio exceeds
c_max: by upward closure (the facet normals are >= 0) every later point
of that run is at 0, or above c_max, too.  So their cost follows the
region below the staircase, not the box; the unit ideal's walk ends at
its first prefix.

An ideal is its own Newton polyhedron: `MonomialIdeal` is a
`NewtonPolyhedron` on its generators as they stand (they are already a
canonical antichain), so its facets (the double description) and
per-axis maxima are computed once per ideal, on first use, however many
operations read them; `adjunction_report` reads a second ideal's, the
restricted one's.  `_criterion` checks an operation's scale, ideal and
axis once and gives the (P, c, shift) of its facet criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .lp import ZERO, HypothesisError, InputError, frac, numeral
from .newton import (Exponents, NewtonPolyhedron, _least_facet_ratio,
                     axis_complement_ones, critical_scale, dominates,
                     minimal_antichain, natural_vector, ones, vector)
from .toric import (ConcaveToricFunction, PowerProduct, _floor_root,
                    _power_criterion, body_polyhedron)
# not called here; perfbench's tracer resolves these bindings in `ideals`
from .newton import build  # noqa: F401
from .toric import classify_in_body  # noqa: F401

# most lattice points in the jump scan's box, and most prefixes in the
# generator walk's; both visit only the region below the staircase, which
# can be most of the box (for an ideal that is not m-primary, say).  On a
# 2-vCPU Xeon VM a visited scan point costs 1-4 us (its jump's Fraction
# included) and a prefix 1-4 us (one closed-form least member and a
# generator built per prefix included); a whole box this size took 1.2 s
# to scan (x^3*y^3*z^3 to c_max = 33) and 1.7 s to walk (x^999*y^999*z)
SCAN_LIMIT = 10 ** 6


@dataclass(frozen=True)
class MonomialIdeal(NewtonPolyhedron):
    """An ideal as its generators, a descending lexicographically sorted
    antichain of int tuples, and so as its Newton polyhedron."""

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


def minimalize(exponents: Iterable[Sequence],
               dimension: Optional[int] = None) -> MonomialIdeal:
    """The ideal generated by the given exponents, in canonical form."""
    vecs = []
    n = dimension
    for e in exponents:
        v = natural_vector(e, n)
        n = len(v)
        vecs.append(v)
    if n is None:
        raise InputError("cannot infer dimension of the zero ideal; "
                         "pass dimension explicitly")
    return MonomialIdeal(n, minimal_antichain(vecs))


def contains(ideal: MonomialIdeal, beta: Sequence) -> bool:
    bv = natural_vector(beta, ideal.dimension)
    return any(dominates(bv, g) for g in ideal.generators)


def _walk_box(ranges: Sequence[range], visit, prefix: Tuple[int, ...] = (),
              k: int = 0) -> bool:
    """Calls visit(point, rank) on the points of the box prod ranges that
    extend prefix, in lexicographic order, rank the place of the point in
    that order (k that of the first), for a visit whose False points are
    upward closed: it skips only points above one where visit returned
    False.  Returns False iff visit returned False on the first point.

    Once a coordinate's subtree (the points with that coordinate's value
    and the coordinates before it fixed) gets False at its first point,
    the rest of that coordinate is skipped, so the cost follows the
    region below the False points, not the box.  (A module function, not
    a recursive closure, whose reference cycle would hold the visit's
    state until the next garbage collection.)
    """
    i = len(prefix)
    if i == len(ranges):  # a box of dimension 0
        return visit(prefix, k)
    if i == len(ranges) - 1:
        for j, b in enumerate(ranges[i]):
            if not visit(prefix + (b,), k + j):
                return j > 0
        return True
    stride = prod(map(len, ranges[i + 1:]))
    for j, b in enumerate(ranges[i]):
        if not _walk_box(ranges, visit, prefix + (b,), k + j * stride):
            return j > 0
    return True


def _enumerate_minimal(dimension: int, caps: Sequence[int],
                       least_last) -> Tuple[Exponents, ...]:
    """The minimal members of the box prod [0, caps_i] of an upward
    closed set of int tuples, in descending lexicographic order;
    `least_last(prefix)` is the least last coordinate of a member with
    the first n-1 coordinates `prefix`, or None if no member has them.

    Walks the staircase: for each prefix, in lexicographic order, the
    point with the least member last coordinate is minimal iff it lies
    strictly below every predecessor prefix's (whose least values are
    upper bounds, by upward closure); a predecessor at 0 puts the prefix
    at 0 with no call.  A prefix at 0 ends its coordinate's run in
    `_walk_box`, since every later prefix there is at 0 too.  The
    prefixes are bounded by SCAN_LIMIT.
    """
    *head, top = caps
    prefixes = prod(c + 1 for c in head)
    if prefixes > SCAN_LIMIT:
        raise InputError(f"the generator walk has {numeral(prefixes)} "
                         f"prefixes, more than {SCAN_LIMIT}; lower c or the "
                         "exponents")
    # least[k] is the least member last coordinate of the k-th prefix in
    # lexicographic order, or `none` if it has no member in the box; the
    # predecessor lowering coordinate i is `strides[i]` places back, and
    # a prefix the walk skips is at 0
    strides = [prod(c + 1 for c in head[i + 1:]) for i in range(len(head))]
    none = top + 1
    least = [0] * prefixes
    found = []

    def visit(prefix: Tuple[int, ...], k: int) -> bool:
        above = none
        for s, b in zip(strides, prefix):
            if b and least[k - s] < above:
                above = least[k - s]
        last = least_last(prefix) if above else 0
        if last is None or last > top:
            last = none
        least[k] = last
        if last < above:
            found.append(prefix + (last,))
        return last > 0
    _walk_box([range(c + 1) for c in head], visit)
    found.sort(reverse=True)
    return tuple(found)


def _facet_least_last(P: NewtonPolyhedron, c: Fraction,
                      shift: Sequence[int]):
    """`least_last` for min <w, beta + shift>/b > c, an integer shift >= 0:
    for c = p/q, q*<w, beta> > t = p*b - q*<w, shift> on every facet
    (w, b), so beta_last > (t - q*<w_head, prefix>)/(q*w_last) where
    w_last > 0, and the prefix alone decides where w_last = 0."""
    p, q = c.numerator, c.denominator
    rows = [(tuple(q * v for v in w[:-1]), q * w[-1],
             p * b - q * sum(map(mul, w, shift))) for w, b in P.facets]

    def least_last(prefix: Sequence[int]) -> Optional[int]:
        last = 0
        for w, d, t in rows:
            r = t - sum(map(mul, w, prefix))
            if d:
                r = r // d + 1
                if r > last:
                    last = r
            elif r >= 0:
                return None
        return last
    return least_last


def _caps(P: NewtonPolyhedron, c: Fraction) -> List[int]:
    """ceil(c * max g_i) per axis, on integers: ceil(p*m/q) for c = p/q
    and the maximum m = m.numerator/m.denominator."""
    p, q = c.numerator, c.denominator
    return [-(-p * m.numerator // (q * m.denominator)) for m in P.maxima]


def _facet_ideal(P: NewtonPolyhedron, c: Fraction, shift: Sequence[int],
                 cap_bump: int = 0) -> MonomialIdeal:
    """The ideal of `_facet_least_last`, enumerated in the box of `_caps`."""
    caps = [b + cap_bump for b in _caps(P, c)]
    gens = _enumerate_minimal(P.dimension, caps,
                              _facet_least_last(P, c, shift))
    return MonomialIdeal(P.dimension, gens)


def _scale(ideal: MonomialIdeal, c, what: str) -> Fraction:
    """c as a Fraction, after checking that c > 0 and the ideal is not
    zero (it has no `what`)."""
    c = frac(c)
    if c <= 0:
        raise InputError("scale c must be positive")
    if ideal.is_zero:
        raise InputError(f"the zero ideal has no {what}")
    return c


def _check_axis(ideal: MonomialIdeal, axis: int) -> None:
    if not 0 <= axis < ideal.dimension:
        raise InputError("axis index out of range")


def _criterion(ideal: MonomialIdeal, c, axis: Optional[int] = None
               ) -> Tuple[MonomialIdeal, Fraction, Tuple[int, ...]]:
    """(P, c, shift) of the multiplier criterion, shift 1, or with an
    axis of the adjoint one, shift 1 - e_axis, after checking c, the
    ideal, the axis and that some generator has zero axis coordinate."""
    c = _scale(ideal, c, "multiplier ideal" if axis is None
               else "adjoint ideal")
    if axis is None:
        return ideal, c, (1,) * ideal.dimension
    _check_axis(ideal, axis)
    if not any(g[axis] == 0 for g in ideal.generators):
        raise HypothesisError(
            "the ideal is contained in the axis hyperplane ideal; "
            "the restricted weight is identically -infinity")
    return ideal, c, axis_complement_ones(ideal.dimension, axis)


def multiplier_ideal(ideal: MonomialIdeal, c) -> MonomialIdeal:
    """The multiplier ideal of ideal^c; see module docstring."""
    return _facet_ideal(*_criterion(ideal, c))


def multiplier_ideal_toric(g: ConcaveToricFunction) -> MonomialIdeal:
    """Multiplier ideal of the toric weight attached to g."""
    n = g.dimension
    P = body_polyhedron(g)
    if P is not None:
        return _facet_ideal(P, Fraction(1), (1,) * n)
    # None only where p_i = 0, and minimal generators have beta_i = 0 there
    caps = [_power_least(g, i)((0,) * (n - 1)) or 0 for i in range(n)]
    return MonomialIdeal(n, _enumerate_minimal(n, caps,
                                               _power_least(g, n - 1)))


def _power_least(g: PowerProduct, axis: int):
    """`least_last` along the axis for the multiplier ideal of g
    (exponent sum 1), as a function of the other coordinates of beta.

    By `toric`'s power criterion (p, R), z^beta is a member iff prod
    (beta_j + 1)^p_j > R, iff (beta_axis + 1)^p_axis > m = floor(R / prod_{j
    != axis} (beta_j + 1)^p_j): the floor p_axis-th root of m, or where
    p_axis = 0, 0 if m = 0 and None otherwise.  At 0 it is the axis cap.
    """
    ps, R = _power_criterion(g)
    p = ps[axis]
    others = ps[:axis] + ps[axis + 1:]

    def least(rest: Sequence[int]) -> Optional[int]:
        m = R.numerator // (R.denominator * prod(
            (b + 1) ** e for b, e in zip(rest, others) if e))
        if p:
            return _floor_root(m, p)
        return None if m else 0
    return least


def lct(ideal: MonomialIdeal):
    """Log canonical threshold; math.inf for the unit ideal."""
    if ideal.is_zero:
        raise InputError("the zero ideal has no log canonical threshold")
    return critical_scale(ideal, ones(ideal.dimension))


def jumping_numbers(ideal: MonomialIdeal, c_max) -> List[Fraction]:
    """All jumping numbers in (0, c_max], sorted increasingly."""
    c_max = frac(c_max)
    if c_max <= 0:
        raise InputError("c_max must be positive")
    if ideal.is_zero:
        raise InputError("the zero ideal has no jumping numbers")
    if ideal.is_unit:
        raise InputError("the unit ideal has no jumping numbers")
    caps = _caps(ideal, c_max)
    box = prod(c + 1 for c in caps)
    if box > SCAN_LIMIT:
        raise InputError(f"the jump search box has {numeral(box)} points, "
                         f"more than {SCAN_LIMIT}; lower c_max")
    facets = ideal.facets
    # a ratio v/b is the integer key v*(den/b) over the common denominator
    # den of the b, and at most c_max iff the key is at most top
    den = lcm(*(b for _, b in facets))
    top = c_max.numerator * den // c_max.denominator
    keys = set()

    def visit(x: Tuple[int, ...], _) -> bool:
        # every ratio is > 0, and grows with each coordinate since w >= 0
        v, b = _least_facet_ratio(facets, x)
        key = v * (den // b)
        if key > top:
            return False
        keys.add(key)
        return True
    # x = beta + 1 runs over the box shifted by 1
    _walk_box([range(1, c + 2) for c in caps], visit)
    return [Fraction(k, den) for k in sorted(keys)]


def openness_margin(ideal: MonomialIdeal, c) -> Fraction:
    """An eps > 0 with J(ideal^((1+eps)c)) = J(ideal^c), exactly checked.

    eps is half the least margin v/(b*c) - 1 of a generator beta of
    J(ideal^c), (v, b) its least facet ratio <w, beta + 1>/b: the least
    ratio v/b over the generators, found by cross-multiplication.
    """
    c = _scale(ideal, c, "openness margin")
    if ideal.is_unit:
        return Fraction(1)
    shift = (1,) * ideal.dimension
    current = _facet_ideal(ideal, c, shift)
    least = None
    for beta in current.generators:
        # a non-unit ideal's P has a facet
        v, b = _least_facet_ratio(ideal.facets, [x + 1 for x in beta])
        if least is None or v * least[1] < least[0] * b:
            least = (v, b)
    # J(ideal^c) is not zero, so it has a generator
    (v, b), p, q = least, c.numerator, c.denominator
    eps = Fraction(q * v - p * b, 2 * p * b)
    again = _facet_ideal(ideal, (1 + eps) * c, shift)
    if again != current:  # pragma: no cover
        raise AssertionError("openness margin failed to certify")
    return eps


def adjoint_ideal(ideal: MonomialIdeal, c, axis: int) -> MonomialIdeal:
    """Adjoint ideal of ideal^c along the hyperplane {z_axis = 0}.

    Requires that the ideal is not contained in (z_axis), i.e. some
    generator has zero axis coordinate.
    """
    # The multiplier's caps suffice: a member stays one when a coordinate
    # is lowered to a value still >= c * max g_i, by the multiplier's
    # argument, except that on the axis (> 0 there unless P = F x R_+)
    # the lowered point may lie on the boundary of c*P; moving a little
    # weight onto a generator with g_axis = 0, as the hypothesis above
    # provides, puts it back inside.
    return _facet_ideal(*_criterion(ideal, c, axis))


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
    bv = natural_vector(beta, len(al))
    total = sum(((b + 1) / a for b, a in zip(bv, al)), ZERO)
    threshold = kf + 1 / al[0]
    if total > threshold:
        return True
    return total == threshold and bv[0] > 0


# The three maps below take an antichain to one by a pass (and a sort)
# over its generators, not by a quadratic `minimal_antichain`.

def restrict_to_axis(ideal: MonomialIdeal, axis: int) -> MonomialIdeal:
    """Restriction to {z_axis = 0}: keep generators vanishing nowhere on it,
    dropping their zero axis coordinate, which keeps their order."""
    if ideal.dimension < 2:
        raise InputError("restriction needs dimension >= 2")
    _check_axis(ideal, axis)
    kept = tuple(g[:axis] + g[axis + 1:]
                 for g in ideal.generators if g[axis] == 0)
    return MonomialIdeal(ideal.dimension - 1, kept)


def shift_by_axis(ideal: MonomialIdeal, axis: int) -> MonomialIdeal:
    """Multiply by z_axis: increment the axis exponent of every generator,
    which keeps their order."""
    _check_axis(ideal, axis)
    gens = tuple(g[:axis] + (g[axis] + 1,) + g[axis + 1:]
                 for g in ideal.generators)
    return MonomialIdeal(ideal.dimension, gens)


def intersect_axis_multiples(ideal: MonomialIdeal,
                             axis: int) -> MonomialIdeal:
    """The intersection with (z_axis): the generators g with g_axis > 0,
    and g + e_axis for those with g_axis = 0 unless a generator h with
    h_axis = 1 lies below it (it lies below no generator, or g would)."""
    _check_axis(ideal, axis)

    def rest(g):
        return g[:axis] + g[axis + 1:]
    ones = [rest(h) for h in ideal.generators if h[axis] == 1]
    gens = [g if g[axis] else g[:axis] + (1,) + g[axis + 1:]
            for g in ideal.generators
            if g[axis] or not any(dominates(rest(g), h) for h in ones)]
    return MonomialIdeal(ideal.dimension, tuple(sorted(gens, reverse=True)))


def adjunction_report(ideal: MonomialIdeal, c, axis: int) -> AdjunctionReport:
    """Exact check of the adjunction sequence at the monomial level.

    kernel_exact: adj intersected with (z_axis) equals z_axis * J.
    restriction_exact: the restriction of adj to the hyperplane equals
    the multiplier ideal of the restricted ideal.
    """
    P, c, shift = _criterion(ideal, c, axis)
    adj = _facet_ideal(P, c, shift)
    J = _facet_ideal(P, c, (1,) * ideal.dimension)
    J_H = multiplier_ideal(restrict_to_axis(ideal, axis), c)
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
    criterion = _criterion(ideal, c, axis)
    return _facet_ideal(*criterion) == _facet_ideal(*criterion, bump)
