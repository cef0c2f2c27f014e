import itertools
import random
import time
from fractions import Fraction as F
from math import inf

import pytest

from nilcalc.ideals import (MonomialIdeal, _power_least, adj0_power_membership,
                            adjoint_ideal, adjunction_report, box_audit,
                            contains, intersect_axis_multiples,
                            jumping_numbers, lct, minimalize,
                            multiplier_ideal, multiplier_ideal_toric,
                            openness_margin, restrict_to_axis, shift_by_axis)
from nilcalc import newton
from nilcalc.lp import HypothesisError, InputError
from nilcalc.toric import power_product, pwl_min
from power_body import power_ratio_sign


def ideal(*gens, dim=None):
    return minimalize(list(gens), dim)


def monomial_power(n, d):
    """m^d, the d-th power of the maximal ideal in n variables."""
    return minimalize([b for b in itertools.product(range(d + 1), repeat=n)
                       if sum(b) == d], n)


def gens_set(I):
    return {tuple(int(v) for v in g) for g in I.generators}


A23 = ideal((2, 0), (0, 3))


def test_minimalize():
    assert gens_set(ideal((2, 0), (0, 3), (2, 1))) == {(2, 0), (0, 3)}
    assert ideal(dim=2).is_zero
    assert gens_set(ideal((1, 2), (2, 1), (1, 1))) == {(1, 1)}
    with pytest.raises(InputError):
        minimalize([(1, 0), (1, 0, 0)])
    with pytest.raises(InputError):
        minimalize([(F(1, 2), 0)])


def test_contains():
    assert contains(A23, (2, 5))
    assert not contains(A23, (1, 2))
    assert contains(ideal((0, 0)), (0, 0))
    assert not contains(ideal(dim=2), (9, 9))


def test_multiplier_ideal():
    assert gens_set(multiplier_ideal(A23, 1)) == {(1, 0), (0, 1)}
    assert gens_set(multiplier_ideal(ideal((1,)), 3)) == {(3,)}
    m2 = ideal((2, 0), (1, 1), (0, 2))
    assert gens_set(multiplier_ideal(m2, 1)) == {(1, 0), (0, 1)}
    with pytest.raises(InputError):
        multiplier_ideal(ideal(dim=2), 1)
    with pytest.raises(InputError):
        multiplier_ideal(A23, 0)


def test_multiplier_ideal_toric():
    g = power_product(2, (F(1, 2), F(1, 2)))
    assert gens_set(multiplier_ideal_toric(g)) == {(1, 0), (0, 1)}
    assert multiplier_ideal_toric(power_product(1, (F(1, 3),
                                                    F(1, 3)))).is_unit
    gm = pwl_min([((2, 0), 0), ((0, 3), 0)])
    assert multiplier_ideal_toric(gm) == multiplier_ideal(A23, 1)


def test_power_caps_are_least_axis_members():
    rng = random.Random(15)
    big = 0
    for _ in range(1500):
        n = rng.randint(1, 3)
        q = rng.choice((1, 2, 3, 5, 12))
        ps = [rng.randint(0, q) for _ in range(n)]
        while sum(ps) > q:
            ps[rng.randrange(n)] = 0
        k = F(rng.randint(1, 10 ** rng.randint(1, 9)), rng.randint(1, 50))
        g = power_product(k, tuple(F(p, q) for p in ps))
        for i in range(n):
            # the cap at the other coordinates 0, then at a random point
            for rest in ((0,) * (n - 1),
                         tuple(rng.randint(0, 5) for _ in range(n - 1))):
                def member(b):
                    beta = rest[:i] + (b,) + rest[i:]
                    return power_ratio_sign(
                        g, tuple(F(v + 1) for v in beta)) > 0
                least = _power_least(g, i)(rest)
                if ps[i]:
                    assert member(least)
                    assert least == 0 or not member(least - 1)
                    big += least >= 1 << 20
                else:
                    assert least == (0 if member(0) else None)
    assert big > 0  # caps the former 2^20 bound refused


def test_lct():
    assert lct(A23) == F(5, 6)
    assert lct(ideal((1,))) == 1
    assert lct(monomial_power(2, 3)) == F(2, 3)
    assert lct(monomial_power(3, 2)) == F(3, 2)
    assert lct(ideal((0, 0))) == inf
    with pytest.raises(InputError):
        lct(ideal(dim=1))


def test_jumping_numbers():
    assert jumping_numbers(A23, 1) == [F(5, 6)]
    assert jumping_numbers(A23, F(7, 6)) == [F(5, 6), F(7, 6)]
    assert jumping_numbers(ideal((1,)), 3) == [1, 2, 3]
    assert jumping_numbers(A23, F(7, 6))[0] == lct(A23)
    with pytest.raises(InputError):
        jumping_numbers(ideal((0, 0)), 1)


def test_openness_margin():
    assert openness_margin(A23, 1) == F(1, 12)
    assert openness_margin(ideal((0, 0)), 7) == 1
    assert openness_margin(ideal((1,)), F(1, 2)) == F(1, 2)
    eps = openness_margin(A23, F(5, 6))
    assert multiplier_ideal(A23, (1 + eps) * F(5, 6)) == \
        multiplier_ideal(A23, F(5, 6))


def test_adjoint_ideal():
    assert gens_set(adjoint_ideal(A23, 1, 0)) == {(2, 0), (1, 1), (0, 3)}
    m6 = monomial_power(2, 6)
    assert adjoint_ideal(m6, 1, 0) == m6
    assert adjoint_ideal(ideal((0, 0)), 1, 0).is_unit
    with pytest.raises(HypothesisError):
        adjoint_ideal(ideal((1, 1)), 1, 0)


def test_adj0_power_membership():
    assert adj0_power_membership(6, (1, 1), (3, 3))   # case (i), N = 8 > 7
    assert adj0_power_membership(6, (1, 1), (2, 3))   # case (ii), equality
    assert not adj0_power_membership(6, (1, 1), (0, 5))
    with pytest.raises(InputError):
        adj0_power_membership(6, (1, 0), (1, 1))
    with pytest.raises(InputError):
        adj0_power_membership(0, (1, 1), (1, 1))


def test_restrict_to_axis():
    assert gens_set(restrict_to_axis(A23, 0)) == {(3,)}
    assert restrict_to_axis(ideal((1, 1)), 0).is_zero
    assert gens_set(restrict_to_axis(monomial_power(2, 6), 0)) == {(6,)}


def test_shift_by_axis():
    assert gens_set(shift_by_axis(ideal((1, 0), (0, 1)), 0)) == \
        {(2, 0), (1, 1)}
    assert shift_by_axis(ideal(dim=2), 0).is_zero
    assert gens_set(shift_by_axis(ideal((0, 0)), 0)) == {(1, 0)}


def test_intersect_axis_multiples():
    adj = ideal((2, 0), (1, 1), (0, 3))
    assert gens_set(intersect_axis_multiples(adj, 0)) == {(2, 0), (1, 1)}
    assert gens_set(intersect_axis_multiples(ideal((0, 1)), 0)) == {(1, 1)}
    assert gens_set(intersect_axis_multiples(ideal((0, 0)), 0)) == {(1, 0)}


def test_adjunction_report():
    rep = adjunction_report(A23, 1, 0)
    assert rep.kernel_exact and rep.restriction_exact
    assert gens_set(rep.adjoint) == {(2, 0), (1, 1), (0, 3)}
    assert gens_set(rep.multiplier) == {(1, 0), (0, 1)}
    assert gens_set(rep.restricted_multiplier) == {(3,)}

    m6 = monomial_power(2, 6)
    rep = adjunction_report(m6, 1, 0)
    assert rep.adjoint == m6
    assert rep.multiplier == monomial_power(2, 5)
    assert rep.kernel == shift_by_axis(monomial_power(2, 5), 0)
    assert gens_set(rep.restricted_multiplier) == {(6,)}
    assert rep.kernel_exact and rep.restriction_exact

    rep = adjunction_report(ideal((0, 0)), 1, 0)
    assert rep.adjoint.is_unit and rep.kernel_exact and rep.restriction_exact

    with pytest.raises(HypothesisError):
        adjunction_report(ideal((1, 1)), 1, 0)


def test_strict_inclusion_witness():
    """The zero adjoint strictly contains the adjoint at the power weight."""
    m6 = monomial_power(2, 6)
    adj = adjoint_ideal(m6, 1, 0)
    assert adj0_power_membership(6, (1, 1), (2, 3))
    assert not contains(adj, (2, 3))


def test_box_audit():
    assert box_audit(A23, 1)
    assert box_audit(A23, F(5, 6))
    assert box_audit(A23, 1, axis=0)
    assert box_audit(monomial_power(2, 6), 1, axis=0)


def test_zero_and_unit_are_first_class():
    zero = MonomialIdeal(2, ())
    unit = ideal((0, 0))
    assert zero.is_zero and not zero.is_unit
    assert unit.is_unit and not unit.is_zero
    assert multiplier_ideal(unit, 100).is_unit


@pytest.mark.parametrize("n, d", [(4, 4), (3, 8)])
def test_many_generators_stay_fast(n, d):
    # m^d has C(n+d-1, d) generators but one facet; J(m^d) = m^(d-n+1)
    I = monomial_power(n, d)
    start = time.perf_counter()
    assert lct(I) == F(n, d)
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    assert multiplier_ideal(I, 1) == monomial_power(n, d - n + 1)
    assert time.perf_counter() - start < 1


def test_one_double_description_per_operation(monkeypatch):
    # every operation builds the Newton polyhedron of its ideal once;
    # the adjunction report also builds that of the restricted ideal
    runs = []
    facets = newton._facets

    def counted(generators, n):
        runs.append(n)
        return facets(generators, n)
    monkeypatch.setattr(newton, "_facets", counted)
    I = ideal((5, 0, 0), (0, 4, 0), (0, 0, 3), (2, 1, 1), (0, 2, 1))
    operations = [
        (lambda: multiplier_ideal(I, F(3, 2)), 1),
        (lambda: adjoint_ideal(I, F(3, 2), 1), 1),
        (lambda: lct(I), 1),
        (lambda: jumping_numbers(I, 1), 1),
        (lambda: openness_margin(I, F(3, 2)), 1),
        (lambda: box_audit(I, F(3, 2)), 1),
        (lambda: box_audit(I, F(3, 2), axis=1), 1),
        (lambda: adjunction_report(I, F(3, 2), 1), 2),
    ]
    for k, (operation, expected) in enumerate(operations):
        runs.clear()
        operation()
        assert len(runs) == expected, k
