"""Randomized property suites over generated instances.

Counts are chosen so the suites together exercise well over 1000
instances while staying fast; every check is exact.
"""

import random
from fractions import Fraction as F
from math import inf

from nilcalc.ideals import (_facet_member, adjoint_ideal, box_audit,
                            contains, jumping_numbers, minimalize,
                            multiplier_ideal, shift_by_axis)
from nilcalc.newton import (BOUNDARY, EXTERIOR, INTERIOR,
                            axis_complement_ones, build, classify,
                            critical_scale, dominates,
                            in_relative_interior_of_axis_face, vadd)
from nilcalc.parsing import format_ideal, parse_ideal
from nilcalc.toric import pwl_min


def random_ideal(rng, n=None, max_exp=4, max_gens=4):
    n = n or rng.randint(1, 3)
    gens = [tuple(rng.randint(0, max_exp) for _ in range(n))
            for _ in range(rng.randint(1, max_gens))]
    return minimalize(gens, n)


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
            assert classify(P, x, 1000).verdict == INTERIOR
            continue
        assert classify(P, x, cstar).verdict == BOUNDARY
        assert classify(P, x, cstar * F(99, 100)).verdict == INTERIOR
        assert classify(P, x, cstar * F(101, 100)).verdict == EXTERIOR


def test_adjoint_face_test_agrees_with_lp():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.randint(1, 4)
        P = build(random_ideal(rng, n=n, max_exp=4, max_gens=5).generators)
        axis = rng.randrange(n)
        c = F(rng.randint(1, 8), rng.randint(1, 4))
        shift = axis_complement_ones(n, axis)
        member = _facet_member(P, c, shift)
        for _ in range(3):
            beta = tuple(F(0) if i == axis else F(rng.randint(0, 6))
                         for i in range(n))
            assert member(beta) == in_relative_interior_of_axis_face(
                P, axis, vadd(beta, shift), c)


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
