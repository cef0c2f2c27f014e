import random
from fractions import Fraction as F
from math import inf

import pytest

from axis_faces import (axis_face, in_relative_interior_of_axis_face,
                        lp_classify)
from dd_reference import reference_facets
from nilcalc.lp import InputError
from nilcalc.newton import (BOUNDARY, EXTERIOR, INTERIOR, _facets, build,
                            classify, critical_scale, dot, minimal_antichain,
                            ones)


def check_witness(P, x, c, cls):
    """Re-verify the certificate invariants by exact arithmetic."""
    if cls.verdict == INTERIOR:
        assert cls.margin > 0
        shifted = tuple(v - cls.margin for v in x)
        # shifted point lies in cP: its critical scale is at least c
        # when strictly positive, otherwise check via classification
        assert classify(P, tuple(max(v, 0) for v in shifted),
                        c).verdict != EXTERIOR or min(shifted) < 0
    else:
        w = cls.witness
        assert all(v >= 0 for v in w) and any(v > 0 for v in w)
        support = min(c * dot(w, g) for g in P.generators)
        if cls.verdict == EXTERIOR:
            assert dot(w, x) < support
        else:
            assert dot(w, x) == support


def test_build_canonical():
    P = build([(1, 1), (2, 2)])
    assert P.generators == ((F(1), F(1)),)
    P = build([(2, 0), (0, 3), (2, 1)])
    assert set(P.generators) == {(F(2), F(0)), (F(0), F(3))}


def test_build_errors():
    with pytest.raises(InputError):
        build([])
    with pytest.raises(InputError):
        build([(1, -1)])
    with pytest.raises(InputError):
        build([(1, 0), (1, 0, 0)])
    with pytest.raises(InputError, match="ambient dimension must be"):
        build([()])
    with pytest.raises(InputError, match="scale c must be positive"):
        classify(build([(2, 0), (0, 3)]), (1, 1), 0)


def test_minimal_antichain_order():
    pts = [(F(0), F(3)), (F(2), F(0)), (F(1), F(1))]
    assert minimal_antichain(pts) == ((F(2), F(0)), (F(1), F(1)),
                                      (F(0), F(3)))


def test_classify_examples():
    P = build([(2, 0), (0, 3)])
    ext = classify(P, (1, 1), 1)
    assert ext.verdict == EXTERIOR
    assert ext.witness == (F(1, 2), F(1, 3))
    check_witness(P, (F(1), F(1)), F(1), ext)

    inn = classify(P, (2, 1), 1)
    assert inn.verdict == INTERIOR
    check_witness(P, (F(2), F(1)), F(1), inn)

    bnd = classify(P, (2, 0), 1)
    assert bnd.verdict == BOUNDARY
    check_witness(P, (F(2), F(0)), F(0) + 1, bnd)


def test_critical_scale_examples():
    P = build([(2, 0), (0, 3)])
    assert critical_scale(P, ones(2)) == F(5, 6)
    assert critical_scale(build([(0, 0)]), (1, 1)) == inf
    assert critical_scale(build([(1, 0), (0, 1)]), ones(2)) == 2
    with pytest.raises(InputError):
        critical_scale(P, (1, 0))


def test_axis_face():
    P = build([(2, 0), (0, 3)])
    face = axis_face(P, 0)
    assert face is not None and face.generators == ((F(3),),)
    assert axis_face(build([(1, 1)]), 0) is None
    full = axis_face(build([(0, 0)]), 0)
    assert full.generators == ((F(0),),)


def test_relative_interior_of_face():
    P = build([(2, 0), (0, 3)])
    assert in_relative_interior_of_axis_face(P, 0, (0, 4), 1)
    assert not in_relative_interior_of_axis_face(P, 0, (0, 3), 1)
    assert not in_relative_interior_of_axis_face(P, 0, (1, 4), 1)
    assert not in_relative_interior_of_axis_face(build([(1, 1)]), 0,
                                                 (0, 5), 1)


def test_one_dimensional_face():
    # in one variable the axis face, when present, is the origin
    assert in_relative_interior_of_axis_face(build([(0,)]), 0, (0,), 1)
    assert not in_relative_interior_of_axis_face(build([(2,)]), 0, (0,), 1)


def test_scaling_law():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [tuple(F(rng.randint(0, 5)) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        P = build(gens)
        x = tuple(F(rng.randint(0, 6), rng.choice([1, 2])) for _ in range(n))
        c = F(rng.randint(1, 5), rng.randint(1, 4))
        scaled = tuple(v / c for v in x)
        assert classify(P, x, c).verdict == classify(P, scaled, 1).verdict


def test_upward_closedness_and_consistency():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = [tuple(F(rng.randint(0, 5)) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        P = build(gens)
        x = tuple(F(rng.randint(1, 6)) for _ in range(n))
        c = F(rng.randint(1, 4), rng.randint(1, 3))
        cls = classify(P, x, c)
        check_witness(P, x, c, cls)
        cstar = critical_scale(P, x)
        assert (cls.verdict == INTERIOR) == (c < cstar)
        if cls.verdict == INTERIOR:
            for i in range(n):
                bumped = tuple(v + (1 if j == i else 0)
                               for j, v in enumerate(x))
                assert classify(P, bumped, c).verdict == INTERIOR


def test_face_consistency():
    # a point on a coordinate hyperplane is never interior
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 3)
        gens = [tuple(F(rng.randint(0, 4)) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        P = build(gens)
        p = rng.randrange(n)
        x = tuple(F(0) if i == p else F(rng.randint(0, 5))
                  for i in range(n))
        assert classify(P, x, 1).verdict != INTERIOR


def test_classify_agrees_with_lp():
    # rational generators, points with zero and negative coordinates
    rng = random.Random(14)
    for _ in range(1000):
        n = rng.randint(1, 4)
        P = build([tuple(F(rng.randint(0, 6), rng.randint(1, 3))
                         for _ in range(n))
                   for _ in range(rng.randint(1, 5))])
        x = tuple(F(rng.randint(-2, 8), rng.randint(1, 3)) if rng.random()
                  < 0.8 else F(0) for _ in range(n))
        c = F(rng.randint(1, 6), rng.randint(1, 4))
        cls, ref = classify(P, x, c), lp_classify(P, x, c)
        assert cls.verdict == ref.verdict and cls.margin == ref.margin
        check_witness(P, x, c, cls)


def test_facets_match_the_reference_double_description():
    # raw point sets (duplicates, dominated points, not m-primary) and
    # `build`'s canonical Fraction points, in 1-4 variables
    rng = random.Random(2024)
    for trial in range(2400):
        n = trial % 4 + 1
        top = (9, 6, 4, 3)[n - 1]
        points = [tuple(rng.randint(0, top) for _ in range(n))
                  for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.5:  # m-primary: a pure power on each axis
            points += [tuple(rng.randint(1, top) if i == j else 0
                             for j in range(n)) for i in range(n)]
        points += rng.sample(points, rng.randint(0, len(points)))
        rng.shuffle(points)
        if trial % 3 == 0:
            den = rng.randint(2, 5)
            points = build([tuple(F(v, den) for v in p)
                            for p in points]).generators
        assert _facets(points, n) == reference_facets(points, n), points
