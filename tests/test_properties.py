"""Randomized property suites over generated instances.

Counts are chosen so the suites together exercise well over 1000
instances while staying fast; every check is exact.
"""

import itertools
import random
from fractions import Fraction as F
from math import ceil, inf, prod

import pytest
from axis_faces import in_relative_interior_of_axis_face, lp_classify
from nilcalc.ideals import (_caps, _facet_least_last, adjoint_ideal,
                            box_audit, contains, jumping_numbers,
                            minimalize, multiplier_ideal,
                            multiplier_ideal_toric, openness_margin,
                            shift_by_axis)
from nilcalc.lp import InputError
from nilcalc.newton import (BOUNDARY, EXTERIOR, INTERIOR, NewtonPolyhedron,
                            axis_complement_ones, build, classify,
                            critical_scale, dominates, minimal_antichain,
                            ones)
from nilcalc.parsing import format_ideal, parse_ideal
from nilcalc.toric import pwl_min, scaled


def random_ideal(rng, n=None, max_exp=4, max_gens=4):
    n = n or rng.randint(1, 3)
    gens = [tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))]
    return minimalize(gens, n)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def is_antichain(I):
    gens = I.generators
    return all(not dominates(a, b)
               for a in gens for b in gens if a is not b)


def subset(I, J):
    """Upward-closed containment: every generator of I is in J."""
    return all(contains(J, g) for g in I.generators)


def test_antichain_and_upward_closedness():
    rng = random.Random(101)
    for _ in range(250):
        I = random_ideal(rng)
        c = F(rng.randint(1, 5), rng.randint(3, 4))
        J = multiplier_ideal(I, c)
        assert is_antichain(J)
        for _ in range(4):
            beta = tuple(rng.randint(0, 6) for _ in range(I.dimension))
            if contains(J, beta):
                for i in range(I.dimension):
                    up = tuple(b + (1 if j == i else 0)
                               for j, b in enumerate(beta))
                    assert contains(J, up)


def test_nesting_in_c():
    rng = random.Random(102)
    for _ in range(150):
        I = random_ideal(rng)
        c1 = F(rng.randint(1, 4), rng.randint(3, 4))
        c2 = c1 + F(rng.randint(1, 2), rng.randint(2, 4))
        assert subset(multiplier_ideal(I, c2), multiplier_ideal(I, c1))


def test_adjoint_sandwich():
    rng = random.Random(103)
    done = 0
    while done < 150:
        n = rng.randint(2, 3)
        I = random_ideal(rng, n=n)
        p = rng.randrange(n)
        if not any(g[p] == 0 for g in I.generators):
            continue
        done += 1
        c = F(rng.randint(1, 4), rng.randint(1, 3))
        J = multiplier_ideal(I, c)
        adj = adjoint_ideal(I, c, p)
        assert is_antichain(adj)
        assert subset(shift_by_axis(J, p), adj)
        assert subset(adj, J)


def test_classification_scaling_law():
    rng = random.Random(104)
    for _ in range(250):
        n = rng.randint(1, 3)
        P = build([tuple(F(rng.randint(0, 5)) for _ in range(n))
                   for _ in range(rng.randint(1, 4))])
        x = tuple(F(rng.randint(0, 6), rng.choice([1, 2, 3]))
                  for _ in range(n))
        c = F(rng.randint(1, 5), rng.randint(1, 4))
        assert classify(P, x, c).verdict == \
            classify(P, tuple(v / c for v in x), 1).verdict


def test_parse_print_round_trip():
    rng = random.Random(105)
    names_pool = ["x", "y", "z", "w"]
    for _ in range(300):
        n = rng.randint(1, 4)
        I = random_ideal(rng, n=n, max_exp=9, max_gens=6)
        names = names_pool[:n]
        assert parse_ideal(format_ideal(I, names), names)[0] == I


def random_polyhedron(rng, kind):
    n = rng.randint(1, 4)
    if kind == "unit":
        return build([(0,) * n])
    if kind == "slopes":
        # the body of a rational min(...) weight
        g = pwl_min([(tuple(F(rng.randint(0, 6), rng.randint(1, 4))
                            for _ in range(n)), 0)
                     for _ in range(rng.randint(1, 4))])
        return build([s for s, _ in g.pieces])
    # monomial ideals, m-primary or not
    return build(random_ideal(rng, n=n, max_exp=5, max_gens=5).generators)


def test_critical_scale_agrees_with_lp():
    rng = random.Random(106)
    kinds = ["ideal"] * 6 + ["slopes"] * 3 + ["unit"]
    for i in range(320):
        P = random_polyhedron(rng, kinds[i % len(kinds)])
        x = tuple(F(rng.randint(1, 9), rng.randint(1, 3))
                  for _ in range(P.dimension))
        cstar = critical_scale(P, x)
        if cstar == inf:
            assert P.generators == ((F(0),) * P.dimension,)
            assert lp_classify(P, x, 1000).verdict == INTERIOR
            continue
        assert lp_classify(P, x, cstar).verdict == BOUNDARY
        assert lp_classify(P, x, cstar * F(99, 100)).verdict == INTERIOR
        assert lp_classify(P, x, cstar * F(101, 100)).verdict == EXTERIOR


def fraction_facet_minimum(P, x):
    """min <w, x>/b over the facets, on Fractions throughout."""
    return min((sum((F(a) * v for a, v in zip(w, x)), F(0)) / b
                for w, b in P.facets), default=inf)


def test_critical_scale_agrees_with_fractions():
    rng = random.Random(111)
    kinds = ["ideal", "slopes", "slopes", "unit"]
    for i in range(400):
        P = random_polyhedron(rng, kinds[i % len(kinds)])
        x = tuple(F(rng.randint(1, 9), rng.randint(1, 4))
                  for _ in range(P.dimension))
        assert critical_scale(P, x) == fraction_facet_minimum(P, x)
        zero = rng.randrange(P.dimension)
        with pytest.raises(InputError, match="strictly positive"):
            critical_scale(P, x[:zero] + (F(0),) + x[zero + 1:])


def test_facet_member_agrees_with_fractions():
    # integer thresholds against the Fraction test min <w, x>/b > c; most
    # scales are the minimum at the first point, which is then on the
    # boundary of c*P and not a member
    rng = random.Random(112)
    kinds = ["ideal", "ideal", "slopes", "unit"]
    for i in range(400):
        P = random_polyhedron(rng, kinds[i % len(kinds)])
        n = P.dimension
        shift = ones(n) if i % 2 else \
            axis_complement_ones(n, rng.randrange(n))
        points = [tuple(rng.randint(0, 6) for _ in range(n))
                  for _ in range(4)]

        def reference(beta):
            return fraction_facet_minimum(P, vadd(beta, shift))

        c = reference(points[0])
        if i % 3 == 0 or c in (0, inf):
            c = F(rng.randint(1, 12), rng.randint(1, 4))
        least_last = _facet_least_last(P, c, shift)
        for beta in points:
            *head, last = beta
            L = least_last(head)
            assert (L is not None and last >= L) == (reference(beta) > c), \
                (P, c, beta)
            # L is the least member; None leaves none up to the cap
            below = _caps(P, c)[-1] if L is None else L - 1
            if below >= 0:
                assert not reference((*head, below)) > c, (P, c, beta)


def test_caps_agree_with_fractions():
    rng = random.Random(115)
    kinds = ["ideal", "slopes", "slopes", "unit"]
    for i in range(400):
        P = random_polyhedron(rng, kinds[i % len(kinds)])
        c = F(rng.randint(1, 24), rng.randint(1, 7))
        assert _caps(P, c) == [ceil(c * max(g[i] for g in P.generators))
                               for i in range(P.dimension)], (P, c)


def test_openness_margin_agrees_with_critical_scales():
    # half the least margin critical_scale(P, beta + 1)/c - 1 over the
    # generators beta of J(I^c), on Fraction points
    rng = random.Random(116)
    for _ in range(150):
        I = random_ideal(rng, n=rng.randint(1, 4), max_exp=4, max_gens=4)
        c = F(rng.randint(1, 12), rng.randint(1, 4))
        if I.is_unit:
            assert openness_margin(I, c) == 1
            continue
        P = build(I.generators)
        margins = [critical_scale(P, vadd(beta, ones(I.dimension))) / c - 1
                   for beta in multiplier_ideal(I, c).generators]
        assert openness_margin(I, c) == min(margins) / 2, (I, c)


def test_newton_polyhedron_is_the_built_one():
    # an ideal is its own Newton polyhedron, with the facets and maxima of
    # the one `build` makes of its generators
    rng = random.Random(117)
    for _ in range(200):
        I = random_ideal(rng, n=rng.randint(1, 4), max_exp=5, max_gens=6)
        P = build(I.generators)
        assert isinstance(I, NewtonPolyhedron)
        assert (I.facets, I.maxima) == (P.facets, P.maxima), I


def test_scaled_minimum_of_the_generators_is_the_scaled_ideal():
    # J(c * min(<g, x>)) over the generators g of a is J(a^c)
    rng = random.Random(118)
    for _ in range(200):
        I = random_ideal(rng, n=rng.randint(1, 4), max_exp=4, max_gens=5)
        g = pwl_min([(gen, 0) for gen in I.generators])
        for c in (F(1, 2), F(5, 6), F(1), F(3, 2), F(3)):
            assert multiplier_ideal_toric(scaled(g, c)) == \
                multiplier_ideal(I, c), (I, c)


def test_minimal_antichain_agrees_with_definition():
    rng = random.Random(113)
    for _ in range(400):
        n = rng.randint(1, 4)
        points = [tuple(F(rng.randint(0, 4), rng.randint(1, 2))
                        for _ in range(n))
                  for _ in range(rng.randint(1, 12))]
        points += rng.sample(points, rng.randint(0, len(points)))
        rng.shuffle(points)
        uniq = set(points)
        minimal = [p for p in uniq
                   if not any(q != p and dominates(p, q) for q in uniq)]
        assert minimal_antichain(points) == \
            tuple(sorted(minimal, reverse=True))


def test_jumping_numbers_agree_with_critical_scales():
    # the integer scan against critical scales of Fraction points over
    # the same box, beta + 1 for 0 <= beta_i <= ceil(c_max * max g_i)
    rng = random.Random(114)
    done = 0
    while done < 80:
        I = random_ideal(rng, n=rng.randint(1, 4), max_exp=3, max_gens=4)
        n = I.dimension
        c_max = F(rng.randint(1, 2 * n + 2), rng.randint(1, 3))
        caps = [ceil(c_max * max(g[i] for g in I.generators))
                for i in range(n)]
        if I.is_unit or prod(c + 1 for c in caps) > 3000:
            continue
        done += 1
        P = build(I.generators)
        scales = {critical_scale(P, tuple(F(b + 1) for b in beta))
                  for beta in itertools.product(*(range(c + 1)
                                                  for c in caps))}
        assert jumping_numbers(I, c_max) == \
            sorted(c for c in scales if c <= c_max)


def test_adjoint_face_test_agrees_with_lp():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(1, 4)
        P = build(random_ideal(rng, n=n, max_exp=4, max_gens=5).generators)
        axis = rng.randrange(n)
        c = F(rng.randint(1, 8), rng.randint(1, 4))
        shift = axis_complement_ones(n, axis)
        least_last = _facet_least_last(P, c, shift)

        def reference(beta):
            return in_relative_interior_of_axis_face(
                P, axis, vadd(beta, shift), c)
        for _ in range(3):
            beta = tuple(F(0) if i == axis else F(rng.randint(0, 6))
                         for i in range(n))
            *head, last = beta
            L = least_last(head)
            assert (L is not None and last >= L) == reference(beta)
            below = _caps(P, c)[-1] if L is None else L - 1
            if below >= 0:
                assert not reference((*head, F(below)))


def test_adjoint_caps_pass_box_audit():
    # the adjoint enumerates in the multiplier's box ceil(c * max g_i);
    # every third scale puts c * max g_axis on an integer, where the cap
    # is reached by a member on the boundary of c*P
    rng = random.Random(110)
    for i in range(150):
        n = rng.randint(1, 4)
        e = 4 if n < 3 else 2
        gens = [tuple(rng.randint(0, e) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        axis = rng.randrange(n)
        gens.append(tuple(0 if j == axis else rng.randint(1, e)
                          for j in range(n)))
        I = minimalize(gens, n)
        top = int(max(g[axis] for g in I.generators))
        if i % 3 == 0 and top:
            c = F(rng.randint(1, 3 * top), top)
        else:
            c = F(rng.randint(1, 8), rng.randint(2, 5))
        assert box_audit(I, c, axis, bump=3), (gens, c, axis)


def product(I, J):
    return minimalize([tuple(a + b for a, b in zip(g, h))
                       for g in I.generators for h in J.generators],
                      I.dimension)


def test_skoda():
    # J(a^c) = a * J(a^(c-1)) for c >= n (Lazarsfeld, Positivity II, 9.6)
    rng = random.Random(108)
    for _ in range(40):
        I = random_ideal(rng, max_exp=3, max_gens=3)
        n = I.dimension
        c = n + F(rng.randint(0, 5), 6)
        # J(a^0) is the unit ideal
        previous = multiplier_ideal(I, c - 1) if c > 1 else \
            minimalize([(0,) * n], n)
        assert multiplier_ideal(I, c) == product(I, previous)


def test_jump_periodicity():
    # for xi > n - 1, xi is a jumping number iff xi + 1 is (ELSV 2004)
    rng = random.Random(109)
    done = 0
    while done < 40:
        I = random_ideal(rng, max_exp=3, max_gens=3)
        if I.is_unit:
            continue
        done += 1
        n = I.dimension
        c_max = n + 1
        jumps = set(jumping_numbers(I, c_max))
        for xi in jumps:
            if n - 1 < xi <= c_max - 1:
                assert xi + 1 in jumps
            if xi - 1 > n - 1:
                assert xi - 1 in jumps
