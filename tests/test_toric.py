import random
from fractions import Fraction as F

import pytest

from nilcalc.lp import InputError
from nilcalc.newton import BOUNDARY, EXTERIOR, INTERIOR
from nilcalc.toric import (certificate_slack, classify_in_body, evaluate,
                           exp_integrable, exp_integrable_shifted,
                           homogenized_value, power_product, pwl_min,
                           valuative_membership)
from power_body import certifies, classify_power, verdict

G_23 = pwl_min([((2, 0), 0), ((0, 3), 0)])


def test_constructors_validate():
    with pytest.raises(InputError):
        pwl_min([])
    with pytest.raises(InputError):
        pwl_min([((-1, 0), 0)])
    with pytest.raises(InputError):
        power_product(0, (F(1, 2),))
    with pytest.raises(InputError):
        power_product(1, (F(2, 3), F(2, 3)))


def test_evaluate():
    assert evaluate(G_23, (1, 1)) == 2
    assert evaluate(power_product(2, (F(1, 2), F(1, 2))), (4, 9)) == 12
    assert evaluate(pwl_min([((2, 0), 1), ((0, 3), 0)]), (0, 0)) == 0


def test_evaluate_exact_roots_of_large_rationals():
    root = power_product(1, (F(1, 2), F(1, 2)))
    big = 2 ** 80 + 3
    assert evaluate(root, (big ** 2, 1)) == big
    assert evaluate(root, (10 ** 400, 1)) == 10 ** 200
    assert evaluate(root, (F(big ** 2, 9), 4)) == F(2 * big, 3)
    cube = power_product(1, (F(1, 3),))
    assert evaluate(cube, (big ** 3,)) == big
    assert evaluate(cube, (big ** 3 + 1,)) != big
    # irrational value comes back as a float close to the truth
    v = evaluate(power_product(1, (F(1, 2), F(1, 2))), (2, 1))
    assert isinstance(v, float) and abs(v - 2 ** 0.5) < 1e-12


def test_evaluate_float_fallback_beyond_float_range():
    root = power_product(1, (F(1, 2), F(1, 2)))
    # 10^401 has no exact square root and is too large for a float
    v = evaluate(root, (10 ** 401, 1))
    assert isinstance(v, float) and abs(v / 10 ** 200.5 - 1) < 1e-12
    for x in [(10 ** 617, 1), (F(1, 10 ** 617), 1)]:
        with pytest.raises(InputError):
            evaluate(root, x)


def test_homogenized_value():
    g = pwl_min([((2, 0), 5), ((0, 3), -1)])
    assert homogenized_value(g, (1, 1)) == 2
    assert homogenized_value(power_product(3, (F(1, 3), F(1, 3))),
                             (1, 1)) == 0
    assert homogenized_value(power_product(3, (F(1, 2), F(1, 2))),
                             (4, 1)) == 6
    with pytest.raises(InputError):
        homogenized_value(g, (0, 0))


def test_classify_in_body():
    assert classify_in_body(G_23, (1, 1)).verdict == EXTERIOR
    k2 = power_product(2, (F(1, 2), F(1, 2)))
    assert classify_in_body(k2, (1, 1)).verdict == BOUNDARY
    assert classify_in_body(k2, (2, 2)).verdict == INTERIOR
    # exponent sum below 1: the body's closure is the closed orthant
    sub = power_product(1, (F(1, 3), F(1, 3)))
    assert classify_in_body(sub, (1, 0)).verdict == BOUNDARY
    assert classify_in_body(sub, (1, 1)).verdict == INTERIOR


def test_power_product_zero_coordinate_off_support_is_boundary():
    # y = 0 bounds the body of k*x^a as it bounds that of min(x)
    for g, lam in ((power_product(1, (1, 0)), (2, 0)),
                   (power_product(1, (F(1, 2), 0)), (1, 0)),
                   (pwl_min([((1, 0), 0)]), (2, 0))):
        cls = classify_in_body(g, lam)
        assert cls.verdict == BOUNDARY and cls.witness == (0, 1)
        assert not exp_integrable_shifted(g, lam)
    assert not exp_integrable(power_product(1, (0, 0)))
    cls = classify_in_body(power_product(1, (1, 0)), (2, 1))
    assert cls.verdict == INTERIOR and cls.margin > 0


def test_power_product_matches_its_linear_form():
    # k*x_i written as a power product and as a minimum of one linear form
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(1, 3)
        i = rng.randrange(n)
        k = F(rng.randint(1, 6), rng.randint(1, 3))
        e = tuple(1 if j == i else 0 for j in range(n))
        lam = tuple(F(rng.randint(0, 8), rng.randint(1, 3)) if rng.random()
                    < 0.6 else F(0) for _ in range(n))
        power = classify_in_body(power_product(k, e), lam)
        linear = classify_in_body(pwl_min([(tuple(k * v for v in e), 0)]),
                                  lam)
        assert power.verdict == linear.verdict, (k, i, lam)


def test_interior_margin_stays_in_orthant():
    # the margin is capped at min lam, off the support too
    cls = classify_in_body(power_product(1, (1, 0)), (10, F(1, 2)))
    assert cls.verdict == INTERIOR and cls.margin == F(1, 2)
    cls = classify_in_body(power_product(1, (F(1, 3), F(1, 3))), (2, 1))
    assert cls.verdict == INTERIOR and cls.margin == 1


def test_power_bodies_match_the_fraction_reference():
    # answers equal the Fraction reference's except in four classes, and
    # every margin and witness certifies against it
    rng = random.Random(25)
    same, changed = 0, {}
    for _ in range(3000):
        n = rng.randint(1, 3)
        q = rng.choice((1, 2, 3, 4, 6))
        ps = [rng.choice((0, rng.randint(0, q))) for _ in range(n)]
        while sum(ps) > q:
            ps[rng.randrange(n)] = 0
        if rng.random() < 0.6 and sum(ps) < q:
            ps[rng.randrange(n)] += q - sum(ps)  # exponent sum 1
        g = power_product(F(rng.randint(1, 8), rng.randint(1, 3)),
                          tuple(F(p, q) for p in ps))
        if rng.random() < 0.3:  # on the boundary where a sum 1 allows it
            lam = tuple(g.scale * a for a in g.exponents)
        else:
            lam = tuple(F(rng.randint(1, 12), rng.randint(1, 3))
                        for _ in range(n))
        lam = tuple(F(0) if rng.random() < 0.2 else v for v in lam)
        old, new = classify_power(g, lam), classify_in_body(g, lam)
        assert new.verdict == verdict(g, lam) and certifies(g, lam, new), \
            (g, lam, new)
        if new == old:
            same += 1
            continue
        support = [v for v, a in zip(lam, g.exponents) if a]
        if sum(g.exponents) < 1 and old.verdict == EXTERIOR:
            kind = "zero on the support"
            assert new.verdict == BOUNDARY and 0 in support
        elif sum(g.exponents) < 1 and old.verdict == INTERIOR:
            kind = "min lam below exponent sum 1"
            assert old.margin == min(support) / 2
            assert new.margin == min(lam)
        elif old.verdict == INTERIOR:
            kind = "capped at min lam"
            assert old.margin > min(lam) and new.margin == min(lam)
        else:
            kind = "zero off the support"
            assert old.verdict == new.verdict == BOUNDARY
            j = new.witness.index(1)
            assert lam[j] == 0 and g.exponents[j] == 0
            assert old.witness != new.witness
        changed[kind] = changed.get(kind, 0) + 1
    assert len(changed) == 4 and same > 1500, (same, changed)


def test_interior_margin_stays_in_body():
    k2 = power_product(2, (F(1, 2), F(1, 2)))
    cls = classify_in_body(k2, (3, 2))
    assert cls.verdict == INTERIOR and cls.margin > 0
    shifted = tuple(v - cls.margin for v in (F(3), F(2)))
    assert classify_in_body(k2, shifted).verdict != EXTERIOR


def test_exp_integrable():
    assert not exp_integrable(G_23)
    assert not exp_integrable(power_product(1, (F(1, 2), F(1, 2))))
    assert exp_integrable_shifted(G_23, (2, 1))
    assert not exp_integrable_shifted(G_23, (1, 1))
    assert exp_integrable_shifted(pwl_min([((0, 0), 0)]), (1, 1))


def test_valuative_membership():
    rep = valuative_membership(G_23, (0, 0))
    assert not rep.member
    assert rep.certificate == (F(1, 2), F(1, 3))
    assert homogenized_value(G_23, rep.certificate) == 1  # >= 5/6
    assert certificate_slack(G_23, (0, 0), rep.certificate) >= 0

    assert valuative_membership(G_23, (1, 0)).member
    assert valuative_membership(pwl_min([((0, 0), 0)]), (4, 7)).member


def test_valuative_membership_power():
    k2 = power_product(2, (F(1, 2), F(1, 2)))
    rep = valuative_membership(k2, (0, 0))
    assert not rep.member
    assert certificate_slack(k2, (0, 0), rep.certificate) >= 0
    rep = valuative_membership(k2, (1, 0))
    assert rep.member and rep.margin > 0


def test_homogeneity_and_monotonicity():
    rng = random.Random(21)
    funcs = [G_23,
             pwl_min([((1, 2), 3), ((4, 0), -2), ((2, 2), 0)]),
             power_product(3, (F(1, 2), F(1, 2))),
             power_product(2, (F(1, 4), F(1, 4)))]
    for g in funcs:
        for _ in range(40):
            w = tuple(F(rng.randint(0, 6), rng.choice([1, 2, 3]))
                      for _ in range(2))
            if all(v == 0 for v in w):
                continue
            t = F(rng.randint(1, 5), rng.randint(1, 3))
            tw = tuple(t * v for v in w)
            lhs, rhs = homogenized_value(g, tw), t * homogenized_value(g, w)
            if isinstance(lhs, F) and isinstance(rhs, F):
                assert lhs == rhs
            else:
                assert abs(float(lhs) - float(rhs)) < 1e-9
            up = tuple(v + F(rng.randint(0, 2)) for v in w)
            assert float(homogenized_value(g, up)) >= \
                float(homogenized_value(g, w)) - 1e-9


def test_offsets_never_change_verdicts():
    rng = random.Random(22)
    for _ in range(30):
        slopes = [tuple(F(rng.randint(0, 4)) for _ in range(2))
                  for _ in range(rng.randint(1, 3))]
        lam = tuple(F(rng.randint(0, 5)) for _ in range(2))
        base = pwl_min([(s, 0) for s in slopes])
        shifted = pwl_min([(s, F(rng.randint(-5, 5))) for s in slopes])
        assert classify_in_body(base, lam).verdict == \
            classify_in_body(shifted, lam).verdict


def test_body_scaling():
    rng = random.Random(23)
    for _ in range(30):
        slopes = [tuple(F(rng.randint(0, 4)) for _ in range(2))
                  for _ in range(rng.randint(1, 3))]
        g = pwl_min([(s, 0) for s in slopes])
        lam = tuple(F(rng.randint(0, 5)) for _ in range(2))
        c = F(rng.randint(1, 4), rng.randint(1, 3))
        cg = pwl_min([(tuple(c * v for v in s), 0) for s in slopes])
        clam = tuple(c * v for v in lam)
        assert classify_in_body(cg, clam).verdict == \
            classify_in_body(g, lam).verdict
