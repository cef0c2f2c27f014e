from fractions import Fraction as F

import pytest

from nilcalc.ideals import (adj0_power_membership, jumping_numbers,
                            minimalize, multiplier_ideal)
from nilcalc.lp import (EQ, GEQ, INFEASIBLE, LEQ, OPTIMAL, UNBOUNDED,
                        InputError, LinearConstraintSystem, feasible,
                        maximize, satisfies_point, verify_farkas,
                        verify_optimal_dual)
from nilcalc.newton import build, classify
from nilcalc.oracle import radial_power_integral
from nilcalc.toric import power_product, pwl_min, scaled


def system(nvars, cons, nonneg=None):
    if nonneg is None:
        nonneg = range(nvars)
    return LinearConstraintSystem.make(nvars, cons, nonneg)


def test_basic_optimum():
    # max s1 + s2  s.t.  2 s1 <= 1, 3 s2 <= 1, s >= 0
    sysm = system(2, [((2, 0), LEQ, 1), ((0, 3), LEQ, 1)])
    out = maximize((1, 1), sysm)
    assert out.status == OPTIMAL
    assert out.optimum == F(5, 6)
    assert out.primal_point == (F(1, 2), F(1, 3))
    assert satisfies_point(sysm, out.primal_point)
    assert verify_optimal_dual(sysm, (F(1), F(1)), out.dual_certificate,
                               out.optimum)


def test_unbounded():
    sysm = system(1, [((1,), GEQ, 0)])
    out = maximize((1,), sysm)
    assert out.status == UNBOUNDED


def test_infeasible_with_farkas():
    sysm = system(1, [((1,), GEQ, 1), ((1,), LEQ, 0)])
    out = maximize((1,), sysm)
    assert out.status == INFEASIBLE
    assert verify_farkas(sysm, out.dual_certificate)


def test_feasible_simplex():
    sysm = system(2, [((1, 1), EQ, 1)])
    res = feasible(sysm)
    assert res.feasible
    assert satisfies_point(sysm, res.point)


def test_feasible_with_fixed_objective_value():
    sysm = system(2, [((2, 0), LEQ, 1), ((0, 3), LEQ, 1),
                      ((1, 1), EQ, F(5, 6))])
    assert feasible(sysm).feasible


def test_infeasible_feasibility():
    sysm = system(1, [((1,), GEQ, 1), ((1,), LEQ, 0)])
    res = feasible(sysm)
    assert not res.feasible
    assert verify_farkas(sysm, res.certificate)


def test_free_variables():
    # max -x over free x with x >= -3 is attained at the boundary
    sysm = LinearConstraintSystem.make(1, [((1,), GEQ, -3)], ())
    out = maximize((-1,), sysm)
    assert out.status == OPTIMAL
    assert out.optimum == 3
    assert out.primal_point == (F(-3),)


def test_equality_only_system():
    sysm = LinearConstraintSystem.make(
        2, [((1, 0), EQ, 2), ((0, 1), EQ, 5)], ())
    out = maximize((1, 1), sysm)
    assert out.status == OPTIMAL
    assert out.optimum == 7
    assert verify_optimal_dual(sysm, (F(1), F(1)), out.dual_certificate, 7)


def test_redundant_rows():
    sysm = system(1, [((1,), LEQ, 1), ((2,), LEQ, 2), ((1,), EQ, 1)])
    out = maximize((1,), sysm)
    assert out.status == OPTIMAL and out.optimum == 1
    assert verify_optimal_dual(sysm, (F(1),), out.dual_certificate, F(1))


def test_determinism():
    sysm = system(3, [((1, 2, 3), LEQ, 6), ((3, 1, 1), LEQ, 4),
                      ((1, 1, 1), GEQ, 1)])
    runs = [maximize((2, 1, 1), sysm) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_dimension_mismatch():
    sysm = system(2, [((1, 1), LEQ, 1)])
    with pytest.raises(InputError):
        maximize((1,), sysm)
    with pytest.raises(InputError):
        LinearConstraintSystem.make(2, [((1,), LEQ, 1)])


def test_bad_relation_and_index():
    with pytest.raises(InputError):
        LinearConstraintSystem.make(1, [((1,), "<", 1)])
    with pytest.raises(InputError):
        LinearConstraintSystem.make(1, [], [3])


def test_random_certificates_verify():
    import random
    rng = random.Random(20240817)
    for _ in range(150):
        nvars = rng.randint(1, 4)
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [F(rng.randint(-4, 4)) for _ in range(nvars)]
            rel = rng.choice([LEQ, EQ, GEQ])
            cons.append((coeffs, rel, F(rng.randint(-5, 5))))
        sysm = system(nvars, cons)
        obj = [F(rng.randint(-3, 3)) for _ in range(nvars)]
        out = maximize(obj, sysm)
        if out.status == OPTIMAL:
            assert satisfies_point(sysm, out.primal_point)
            got = sum(c * x for c, x in zip(obj, out.primal_point))
            assert got == out.optimum
            assert verify_optimal_dual(sysm, obj, out.dual_certificate,
                                       out.optimum)
        elif out.status == INFEASIBLE:
            assert verify_farkas(sysm, out.dual_certificate)
        else:
            assert out.status == UNBOUNDED
            assert satisfies_point(sysm, out.primal_point)


# every check that a number is positive, through its public entry point,
# with the message it gives
IDEAL = minimalize([(2, 0), (0, 3)])
POSITIVITY = [
    (lambda v: multiplier_ideal(IDEAL, v), "scale c must be positive"),
    (lambda v: jumping_numbers(IDEAL, v), "c_max must be positive"),
    (lambda v: adj0_power_membership(v, (1, 1), (0, 0)),
     "k must be positive"),
    (lambda v: classify(build([(1, 1)]), (1, 1), v),
     "scale c must be positive"),
    (lambda v: scaled(pwl_min([((2, 3), 0)]), v), "scale c must be positive"),
    (lambda v: power_product(v, (F(1, 2),)), "the factor k must be positive"),
    (lambda v: radial_power_integral(v, 0), "k must be positive"),
]


@pytest.mark.parametrize("value", [0, F(-1, 2)])
@pytest.mark.parametrize("call, message", POSITIVITY)
def test_positivity_checks(call, message, value):
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == message
