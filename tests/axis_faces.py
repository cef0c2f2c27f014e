"""LP reference for the adjoint's facet test: the axis face of a Newton
polyhedron and membership in its relative interior, decided by the
exact LP behind `newton.classify`."""

from typing import Optional, Sequence

from nilcalc.lp import InputError, frac
from nilcalc.newton import (INTERIOR, NewtonPolyhedron, build, classify,
                            vector)


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
