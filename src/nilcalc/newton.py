"""Newton polyhedra P = conv(points) + R_+^n with exact classification.

The polyhedron is given by a canonical antichain of generating points
whose convex hull, fattened by the positive orthant, is the represented
set.  Its facets (the H-representation) are enumerated once per object,
on first use, by exact integer double description, and critical scales
are read off them with one dot product per facet.  `classify`, which
must produce a margin or a separating functional, runs the exact LP
(see `lp`)

    max eps  s.t.  x - eps*1 >= c * sum_j t_j alpha_j,  sum t_j = 1,
                   t >= 0, eps >= 0

which is valid because every outer normal of P is componentwise >= 0,
so moving along -1 from an interior point stays interior for a while.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, inf, lcm
from typing import Optional, Sequence, Tuple

from .lp import (EQ, INFEASIBLE, LEQ, UNBOUNDED, ZERO, InputError,
                 LinearConstraintSystem, frac, fvec, maximize)

INTERIOR = "interior"
BOUNDARY = "boundary"
EXTERIOR = "exterior"

Vector = Tuple[Fraction, ...]


def vector(coords: Sequence, dimension: Optional[int] = None) -> Vector:
    v = fvec(coords)
    if dimension is not None and len(v) != dimension:
        raise InputError(f"expected dimension {dimension}, got {len(v)}")
    return v


def ones(n: int) -> Vector:
    return (Fraction(1),) * n


def axis_complement_ones(n: int, axis: int) -> Vector:
    """The vector with 0 in slot `axis` and 1 elsewhere."""
    return tuple(Fraction(0) if i == axis else Fraction(1) for i in range(n))


def vadd(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), ZERO)


def dominates(a: Vector, b: Vector) -> bool:
    """a >= b componentwise."""
    return all(x >= y for x, y in zip(a, b))


@dataclass(frozen=True)
class NewtonPolyhedron:
    dimension: int
    generators: Tuple[Vector, ...]

    @cached_property
    def facets(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        """The inequalities <w, x> >= b of the facets that are not
        coordinate hyperplanes, with w >= 0 and b > 0 coprime integers."""
        return _facets(self.generators, self.dimension)


@dataclass(frozen=True)
class PointClassification:
    verdict: str
    # interior: the maximal eps with x - eps*1 in cP
    margin: Optional[Fraction] = None
    # boundary/exterior: a supporting/separating functional w >= 0, w != 0
    witness: Optional[Vector] = None


def minimal_antichain(points: Sequence[Vector]) -> Tuple[Vector, ...]:
    """Deduplicate and keep only the componentwise-minimal points.

    Sorted in descending lexicographic order, so pure powers of the
    first variable print first (x^2, x*y, y^3).
    """
    uniq = sorted(set(points), reverse=True)
    keep = []
    for p in uniq:
        if not any(q != p and dominates(p, q) for q in uniq):
            keep.append(p)
    return tuple(keep)


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


def _membership_system(P: NewtonPolyhedron, x: Vector, c: Fraction,
                       with_eps: bool) -> LinearConstraintSystem:
    gens = P.generators
    r = len(gens)
    nvars = r + (1 if with_eps else 0)
    cons = []
    for i in range(P.dimension):
        coeffs = [c * g[i] for g in gens]
        if with_eps:
            coeffs.append(Fraction(1))
        cons.append((coeffs, LEQ, x[i]))
    coeffs = [Fraction(1)] * r + ([Fraction(0)] if with_eps else [])
    cons.append((coeffs, EQ, Fraction(1)))
    return LinearConstraintSystem.make(nvars, cons, range(nvars))


def _normalize_witness(P: NewtonPolyhedron, w: Vector, c: Fraction) -> Vector:
    scale = min(c * dot(w, g) for g in P.generators)
    if scale <= 0:
        scale = sum(w, ZERO)
    return tuple(v / scale for v in w)


def classify(P: NewtonPolyhedron, x: Sequence, c) -> PointClassification:
    """Locate x relative to the dilated polyhedron cP, exactly.

    Interior comes with the maximal margin eps (x - eps*1 in cP);
    boundary and exterior come with a supporting or separating
    functional extracted from the LP dual.
    """
    c = frac(c)
    if c <= 0:
        raise InputError("scale c must be positive")
    xv = vector(x, P.dimension)
    n = P.dimension
    sysm = _membership_system(P, xv, c, with_eps=True)
    objective = [ZERO] * len(P.generators) + [Fraction(1)]
    out = maximize(objective, sysm)
    if out.status == INFEASIBLE:
        w = tuple(out.dual_certificate[:n])
        return PointClassification(EXTERIOR,
                                   witness=_normalize_witness(P, w, c))
    if out.status == UNBOUNDED:  # pragma: no cover - eps is always bounded
        raise AssertionError("interior margin LP cannot be unbounded")
    eps = out.optimum
    if eps > 0:
        return PointClassification(INTERIOR, margin=eps)
    w = tuple(out.dual_certificate[:n])
    return PointClassification(BOUNDARY,
                               witness=_normalize_witness(P, w, c))


def critical_scale(P: NewtonPolyhedron, x: Sequence):
    """Largest c with x in the closure of cP; x in c'P-interior iff c' < c.

    Requires x strictly positive (the interior equivalence fails on
    coordinate hyperplanes, where membership tests call `_facet_minimum`
    directly).  This is min <w, x>/b over the facets; math.inf for the
    unit ideal, which has none.
    """
    xv = vector(x, P.dimension)
    if any(v <= 0 for v in xv):
        raise InputError("critical_scale needs a strictly positive point")
    return _facet_minimum(P, xv)


def _facet_minimum(P: NewtonPolyhedron, x: Vector):
    """min <w, x>/b over the facets, for an unchecked x >= 0 (on a
    coordinate hyperplane, see the adjoint criterion in `ideals`)."""
    den = lcm(*(v.denominator for v in x))
    xs = [v.numerator * (den // v.denominator) for v in x]
    return min((Fraction(sum(a * b for a, b in zip(w, xs)), b * den)
                for w, b in P.facets), default=inf)


def _facets(generators: Sequence[Vector], n: int):
    """Double description (Fukuda & Prodon 1996) of the cone of valid
    inequalities {(w, t) : w >= 0, <w, g> + t >= 0 for every g} of the
    generators scaled to integers; its extreme rays with t < 0 are the
    facets <w, x> >= -t that are not coordinate hyperplanes.

    Constraint i < n is w_i >= 0 and constraint n + j is generator j;
    each ray carries the bit set of the constraints tight on it.
    """
    scale = lcm(*(v.denominator for g in generators for v in g))
    rows = [[int(v * scale) for v in g] for g in generators]
    # w >= 0 and the first generator cut out a simplicial cone whose
    # rays are the columns of the inverse constraint matrix
    axes = (1 << n) - 1  # the constraints w_i >= 0
    rays = [(tuple(int(j == i) for j in range(n)) + (-rows[0][i],),
             axes ^ (1 << i) | 1 << n) for i in range(n)]
    rays.append(((0,) * n + (1,), axes))
    for k, row in enumerate(rows[1:], start=n + 1):
        values = [sum(a * b for a, b in zip(row, r)) + r[n] for r, _ in rays]
        kept = [(r, z | (1 << k) if v == 0 else z)
                for (r, z), v in zip(rays, values) if v >= 0]
        for (p, zp), vp in zip(rays, values):
            if vp <= 0:
                continue
            for (q, zq), vq in zip(rays, values):
                if vq >= 0:
                    continue
                common = zp & zq
                # adjacent iff no third ray is tight on all of `common`
                if common.bit_count() < n - 1 or any(
                        z & common == common for r, z in rays
                        if r is not p and r is not q):
                    continue
                ray = [vp * b - vq * a for a, b in zip(p, q)]
                g = gcd(*ray)
                kept.append((tuple(v // g for v in ray), common | 1 << k))
        rays = kept
    facets = set()
    for r, _ in rays:
        if r[n] < 0:
            # <w, scale*x> >= -t, i.e. <scale*w, x> >= -t
            ints = [scale * v for v in r[:n]] + [-r[n]]
            g = gcd(*ints)
            facets.add((tuple(v // g for v in ints[:n]), ints[n] // g))
    return tuple(sorted(facets))


def axis_face(P: NewtonPolyhedron, axis: int) -> Optional[NewtonPolyhedron]:
    """The face of P in the hyperplane {x_axis = 0}, projected.

    Present iff some generator has zero `axis` coordinate.  Only
    defined for ambient dimension >= 2 (the 1-d face is the point {0}
    and is handled directly by the relative-interior test).
    """
    if not 0 <= axis < P.dimension:
        raise InputError("axis index out of range")
    if P.dimension < 2:
        raise InputError("axis_face needs ambient dimension >= 2")
    on_face = [g for g in P.generators if g[axis] == 0]
    if not on_face:
        return None
    proj = [tuple(v for i, v in enumerate(g) if i != axis) for g in on_face]
    return build(proj)


def in_relative_interior_of_axis_face(P: NewtonPolyhedron, axis: int,
                                      x: Sequence, c) -> bool:
    """Is x in c * ri(F_axis), the relative interior of the axis face?"""
    c = frac(c)
    if c <= 0:
        raise InputError("scale c must be positive")
    xv = vector(x, P.dimension)
    if xv[axis] != 0:
        return False
    if P.dimension == 1:
        # the face, when present, is the single point {0}
        return any(g[0] == 0 for g in P.generators)
    face = axis_face(P, axis)
    if face is None:
        return False
    proj = tuple(v for i, v in enumerate(xv) if i != axis)
    return classify(face, proj, c).verdict == INTERIOR
