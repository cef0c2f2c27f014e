"""LP references for the facet tests: point classification by an exact
LP over the generators of a Newton polyhedron, and, through it, the axis
face of a polyhedron and membership in its relative interior (the
adjoint's facet test)."""

from fractions import Fraction
from typing import Optional, Sequence

from nilcalc.lp import (EQ, INFEASIBLE, LEQ, UNBOUNDED, ZERO, InputError,
                        LinearConstraintSystem, frac, maximize)
from nilcalc.newton import (BOUNDARY, EXTERIOR, INTERIOR, NewtonPolyhedron,
                            PointClassification, Vector, build, dot, vector)


def _membership_system(P: NewtonPolyhedron, x: Vector,
                       c: Fraction) -> LinearConstraintSystem:
    """x - eps*1 >= c * sum_j t_j g_j, sum t_j = 1, t >= 0, eps >= 0 over
    the generators g_j, the variables t then eps."""
    gens = P.generators
    r = len(gens)
    cons = [([c * g[i] for g in gens] + [Fraction(1)], LEQ, x[i])
            for i in range(P.dimension)]
    cons.append(([Fraction(1)] * r + [ZERO], EQ, Fraction(1)))
    return LinearConstraintSystem.make(r + 1, cons, range(r + 1))


def _normalize_witness(P: NewtonPolyhedron, w: Vector, c: Fraction) -> Vector:
    scale = min(c * dot(w, g) for g in P.generators)
    if scale <= 0:
        scale = sum(w, ZERO)
    return tuple(v / scale for v in w)


def lp_classify(P: NewtonPolyhedron, x: Sequence, c) -> PointClassification:
    """Locate x relative to cP by the exact LP max eps over
    `_membership_system`, which is valid because every outer normal of P
    is componentwise >= 0, so moving along -1 from an interior point
    stays interior for a while.

    Interior comes with the maximal margin eps; boundary and exterior
    come with a supporting or separating functional from the LP dual.
    """
    c = frac(c)
    if c <= 0:
        raise InputError("scale c must be positive")
    xv = vector(x, P.dimension)
    n = P.dimension
    objective = [ZERO] * len(P.generators) + [Fraction(1)]
    out = maximize(objective, _membership_system(P, xv, c))
    if out.status == INFEASIBLE:
        w = tuple(out.dual_certificate[:n])
        return PointClassification(EXTERIOR,
                                   witness=_normalize_witness(P, w, c))
    if out.status == UNBOUNDED:  # pragma: no cover - eps is always bounded
        raise AssertionError("interior margin LP cannot be unbounded")
    if out.optimum > 0:
        return PointClassification(INTERIOR, margin=out.optimum)
    w = tuple(out.dual_certificate[:n])
    return PointClassification(BOUNDARY, witness=_normalize_witness(P, w, c))


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
    return lp_classify(face, proj, c).verdict == INTERIOR
