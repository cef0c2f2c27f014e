"""Monomial ideals hold natural exponent vectors as int tuples: every
operation returns them, and answers equal those for the same ideal with
Fraction exponents (`fraction_kernel`)."""

import random
from fractions import Fraction as F

from nilcalc.ideals import (MonomialIdeal, adjoint_ideal, adjunction_report,
                            intersect_axis_multiples, jumping_numbers, lct,
                            minimalize, multiplier_ideal,
                            multiplier_ideal_toric, openness_margin,
                            restrict_to_axis, shift_by_axis)
from nilcalc.lp import HypothesisError
from nilcalc.parsing import default_variables, format_ideal, parse_ideal
from nilcalc.toric import power_product, pwl_min
import fraction_kernel

SCALES = (F(1, 3), F(5, 6), F(1), F(3, 2), F(2))


def int_generators(ideal: MonomialIdeal) -> MonomialIdeal:
    assert all(type(v) is int for g in ideal.generators for v in g), \
        ideal.generators
    return ideal


def sweep(seed=13, per_dimension=6):
    """Seeded ideals in 1-4 variables, some not m-primary."""
    rng = random.Random(seed)
    for n in range(1, 5):
        top = (6, 4, 3, 2)[n - 1]
        for _ in range(per_dimension):
            gens = [tuple(rng.randint(0, top) for _ in range(n))
                    for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.7:  # m-primary: a pure power on each axis
                gens += [tuple(rng.randint(1, top) if i == j else 0
                               for j in range(n)) for i in range(n)]
            yield n, gens


def test_constructors_hold_int_tuples():
    for n, gens in sweep():
        I = int_generators(minimalize(gens, n))
        assert int_generators(minimalize(
            [tuple(F(v) for v in g) for g in gens], n)) == I
        names = default_variables(n)
        text = format_ideal(I, names)
        assert int_generators(parse_ideal(text, names)[0]) == I
        FI = fraction_kernel.fraction_ideal(I)
        assert FI == I and hash(FI) == hash(I)
        for axis in range(n):
            for op in (shift_by_axis, intersect_axis_multiples) + \
                    ((restrict_to_axis,) if n > 1 else ()):
                assert int_generators(op(I, axis)) == op(FI, axis)


def test_operations_match_fraction_exponents():
    for n, gens in sweep():
        I = minimalize(gens, n)
        FI = fraction_kernel.fraction_ideal(I)
        assert lct(I) == lct(FI)
        if not I.is_unit:
            assert jumping_numbers(I, 2) == jumping_numbers(FI, 2)
        for c in SCALES:
            J = int_generators(multiplier_ideal(I, c))
            assert J == int_generators(multiplier_ideal(FI, c))
            eps = openness_margin(I, c)
            assert eps == openness_margin(FI, c) \
                == fraction_kernel.openness_margin(FI, c)
            # the weight min <c*g, x> over the generators g has body c*P
            g = pwl_min([(tuple(c * v for v in s), 0)
                         for s in I.generators])
            assert int_generators(multiplier_ideal_toric(g)) == J
            for axis in range(n):
                try:
                    adj = adjoint_ideal(I, c, axis)
                except HypothesisError:
                    continue
                assert int_generators(adj) == adjoint_ideal(FI, c, axis)
                if n == 1 or not restrict_to_axis(I, axis).generators:
                    continue
                report = adjunction_report(I, c, axis)
                assert report == adjunction_report(FI, c, axis)
                for field in ("adjoint", "multiplier",
                              "restricted_multiplier", "kernel",
                              "restriction"):
                    int_generators(getattr(report, field))


def test_power_product_walk_holds_int_tuples():
    # exponent sum 1 runs the closed-form walk, below 1 the orthant body
    for alpha in ((1,), (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)),
                  (F(1, 2), F(1, 4), F(1, 4)), (F(1, 3), F(1, 3)),
                  (F(1, 4), F(1, 4), F(1, 4))):
        for k in (1, F(5, 2), 7):
            int_generators(multiplier_ideal_toric(power_product(k, alpha)))
