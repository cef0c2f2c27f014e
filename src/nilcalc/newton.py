"""Newton polyhedra P = conv(points) + R_+^n with exact classification.

The polyhedron is given by a canonical antichain of generating points
whose convex hull, fattened by the positive orthant, is the represented
set: a monomial ideal's exponent vectors (`ideals.MonomialIdeal` is a
NewtonPolyhedron), int tuples that are their own integer rows, or
`build`'s Fraction points, scaled to integers over a common
denominator.  Its facets (the H-representation) are enumerated once
per object, on first use, by exact integer double description, and
critical scales are read off them with one integer dot product per
facet, the ratios <w, x>/b compared by cross-multiplication.
`classify` reads the dilate cP = {y : <w, y> >= c*b for each facet,
y >= 0} off the same facets: the largest eps with x - eps*1 in cP is the
least slack (<w, x> - c*b)/|w|_1 over the facets and the rows y_i >= 0,
and the row that attains it supports or separates x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, inf, lcm
from operator import ge, mul
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .lp import ZERO, InputError, fvec, positive
# not called here; perfbench's tracer resolves this binding in `newton`
from .lp import maximize  # noqa: F401

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

Vector = Tuple[Fraction, ...]
# a natural exponent vector, the monomial z^beta of a monomial ideal
Exponents = Tuple[int, ...]


def vector(coords: Sequence, dimension: Optional[int] = None) -> Vector:
    v = fvec(coords)
    if dimension is not None and len(v) != dimension:
        raise InputError(f"expected dimension {dimension}, got {len(v)}")
    return v


def natural_vector(coords: Sequence,
                   dimension: Optional[int]) -> Exponents:
    """The exponent vector of the monomial z^coords, checked natural."""
    v = vector(coords, dimension)
    for c in v:
        if c < 0 or c.denominator != 1:
            raise InputError("exponents must be natural numbers")
    return tuple(c.numerator for c in v)


def ones(n: int) -> Vector:
    return (Fraction(1),) * n


def axis_complement_ones(n: int, axis: int) -> Tuple[int, ...]:
    """The integer vector with 0 in slot `axis` and 1 elsewhere."""
    return tuple(int(i != axis) for i in range(n))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def dominates(a: Vector, b: Vector) -> bool:
    """a >= b componentwise."""
    return all(x >= y for x, y in zip(a, b))


@dataclass(frozen=True)
class NewtonPolyhedron:
    dimension: int
    # an ideal's exponent vectors, or `build`'s Fraction points
    generators: Tuple[Union[Exponents, Vector], ...]

    @cached_property
    def facets(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        """The inequalities <w, x> >= b of the facets that are not
        coordinate hyperplanes, with w >= 0 and b > 0 coprime integers."""
        if not self.generators:
            raise InputError("the zero ideal has no Newton polyhedron")
        return _facets(self.generators, self.dimension)

    @cached_property
    def maxima(self) -> Union[Exponents, Vector]:
        """The largest coordinate of a generator along each axis."""
        return tuple(map(max, zip(*self.generators)))


@dataclass(frozen=True)
class PointClassification:
    verdict: str
    # interior: the maximal eps with x - eps*1 in cP
    margin: Optional[Fraction] = None
    # boundary/exterior: a supporting/separating functional w >= 0, w != 0
    witness: Optional[Vector] = None


def minimal_antichain(points: Sequence) -> tuple:
    """Deduplicate and keep only the componentwise-minimal points.

    Sorted in descending lexicographic order, so pure powers of the
    first variable print first (x^2, x*y, y^3).
    """
    # compared as integer vectors (see `_integer_rows`); a point can only
    # dominate points after it in ascending lexicographic order, and one
    # dominating a dropped point dominates the point that dropped it
    uniq = list(set(points))
    keep = []
    for key, p in sorted(zip(_integer_rows(uniq)[0], uniq)):
        if not any(all(map(ge, key, k)) for k, _ in keep):
            keep.append((key, p))
    return tuple(p for _, p in reversed(keep))


def integers(values: Iterable, den: Optional[int] = None
             ) -> Tuple[Tuple[int, ...], int]:
    """(ints, den): the rationals as integers den*v, for den their least
    common denominator or, if given, a multiple of it."""
    values = tuple(values)
    if den is None:
        den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _integer_rows(points: Sequence) -> Tuple[List[Tuple[int, ...]], int]:
    """(rows, den): the points as integer vectors den*p, for the least
    common denominator den; int points are their own rows, over 1."""
    if set(map(type, chain.from_iterable(points))) <= {int}:
        return list(points), 1
    den = integers(chain.from_iterable(points))[1]
    return [integers(p, den)[0] for p in points], den


def build(points: Sequence[Sequence]) -> NewtonPolyhedron:
    """Canonical Newton polyhedron of a non-empty point set."""
    pts = [fvec(p) for p in points]
    if not pts:
        raise InputError("a Newton polyhedron needs at least one point")
    n = len(pts[0])
    if n < 1:
        raise InputError("ambient dimension must be at least 1")
    for p in pts:
        if len(p) != n:
            raise InputError("mixed dimensions in generator list")
        if any(c < 0 for c in p):
            raise InputError("generators must have non-negative coordinates")
    return NewtonPolyhedron(n, minimal_antichain(pts))


def classify(P: NewtonPolyhedron, x: Sequence, c) -> PointClassification:
    """Locate x relative to the dilated polyhedron cP, exactly.

    The margin eps is min (<w, x> - c*b)/|w|_1 over the facets (w, b)
    and the rows (e_i, 0) of y_i >= 0, ties going to the least row.
    Interior (eps > 0) comes with eps, the largest margin with
    x - eps*1 in cP; boundary (eps = 0) and exterior (eps < 0) come with
    that row's w, divided by c*b when b > 0, as a supporting or
    separating functional.
    """
    c = positive(c, "scale c")
    xv = vector(x, P.dimension)
    n = P.dimension
    # on integers: den*x and den*c for a common denominator den
    ints, den = integers(xv + (c,))
    xs, cs = ints[:-1], ints[-1]
    units = tuple((tuple(int(i == j) for j in range(n)), 0) for i in range(n))
    gap, w, b = min((Fraction(sum(map(mul, w, xs)) - cs * b, sum(w)), w, b)
                    for w, b in P.facets + units)
    if gap > 0:
        return PointClassification(INTERIOR, margin=gap / den)
    scale = c * b if b else Fraction(1)
    return PointClassification(BOUNDARY if gap == 0 else EXTERIOR,
                               witness=tuple(v / scale for v in w))


def critical_scale(P: NewtonPolyhedron, x: Sequence):
    """Largest c with x in the closure of cP; x in c'P-interior iff c' < c.

    Requires x strictly positive (the interior equivalence fails on
    coordinate hyperplanes, where membership tests use the facets
    directly).  This is min <w, x>/b over the facets: with x = xs/den
    for an integer vector xs, v/(b*den) for the pair (v, b) that
    `_least_facet_ratio` picks; math.inf for the unit ideal, which has
    no facets.
    """
    xv = vector(x, P.dimension)
    if any(v <= 0 for v in xv):
        raise InputError("critical_scale needs a strictly positive point")
    xs, den = integers(xv)
    least = _least_facet_ratio(P.facets, xs)
    return inf if least is None else Fraction(least[0], least[1] * den)


def _least_facet_ratio(facets, xs: Sequence[int]
                      ) -> Optional[Tuple[int, int]]:
    """The pair (<w, xs>, b) of least ratio over the facets (w, b), for
    an integer vector xs, compared by cross-multiplication (the b are
    positive); None when there are no facets."""
    best = None
    for w, b in facets:
        v = sum(map(mul, w, xs))
        if best is None or v * best[1] < best[0] * b:
            best = (v, b)
    return best


def _facets(generators: Sequence, n: int):
    """Double description (Fukuda & Prodon 1996) of the cone of valid
    inequalities {(w, t) : w >= 0, <w, g> + t >= 0 for every g} of the
    generators scaled to integers by `_integer_rows`; its extreme rays
    with t < 0 are the facets <w, x> >= -t that are not coordinate
    hyperplanes.

    Constraint i < n is w_i >= 0 and constraint n + j is generator j;
    each ray carries the bit set of the constraints tight on it.
    """
    rows, scale = _integer_rows(generators)
    # w >= 0 and the first generator cut out a simplicial cone whose
    # rays are the columns of the inverse constraint matrix
    axes = (1 << n) - 1  # the constraints w_i >= 0
    rays = [(tuple(int(j == i) for j in range(n)) + (-rows[0][i],),
             axes ^ (1 << i) | 1 << n) for i in range(n)]
    rays.append(((0,) * n + (1,), axes))
    for k, row in enumerate(rows[1:], start=n + 1):
        # the rays where the generator's constraint is slack, violated
        # and tight; the tight ones gain constraint k
        pos, neg, kept = [], [], []
        for r, z in rays:
            v = sum(map(mul, row, r)) + r[n]
            if v > 0:
                pos.append((r, z, v))
                kept.append((r, z))
            elif v < 0:
                neg.append((r, z, v))
            else:
                kept.append((r, z | 1 << k))
        masks = [z for _, z in rays]
        for p, zp, vp in pos:
            for q, zq, vq in neg:
                common = zp & zq
                if common.bit_count() < n - 1:
                    continue
                # adjacent iff p and q are the only rays tight on all
                # of `common`
                tight = 0
                for z in masks:
                    if z & common == common:
                        tight += 1
                        if tight > 2:
                            break
                else:
                    ray = [vp * b - vq * a for a, b in zip(p, q)]
                    g = gcd(*ray)
                    kept.append((tuple(v // g for v in ray),
                                 common | 1 << k))
        rays = kept
    facets = set()
    for r, _ in rays:
        if r[n] < 0:
            # <w, scale*x> >= -t, i.e. <scale*w, x> >= -t
            ints = [scale * v for v in r[:n]] + [-r[n]]
            g = gcd(*ints)
            facets.add((tuple(v // g for v in ints[:n]), ints[n] // g))
    return tuple(sorted(facets))
