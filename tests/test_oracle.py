import random
import time
from fractions import Fraction as F

import pytest

from nilcalc.lp import InputError
from nilcalc.oracle import (CONVERGES, DIVERGES, OracleConfig, _envelope_box,
                            _grid_box, adjoint_weighted_integral,
                            orthant_exp_integral, polydisk_mc,
                            radial_power_integral)
from nilcalc.toric import exp_integrable_shifted, power_product, pwl_min

G_23 = pwl_min([((2, 0), 0), ((0, 3), 0)])
G_M6 = pwl_min([((6, 0), 0), ((0, 6), 0)])
ZERO_2 = pwl_min([((0, 0), 0)])

FAST = OracleConfig(quadrature_points_per_axis=192, mc_samples=120_000)


def test_config_validation():
    with pytest.raises(InputError):
        OracleConfig(truncation_schedule=(10, 20))
    with pytest.raises(InputError):
        OracleConfig(truncation_schedule=(10, 10, 20))
    with pytest.raises(InputError):
        OracleConfig(convergence_ratio_threshold=0)
    with pytest.raises(InputError):
        OracleConfig(mc_samples=0)


def test_orthant_trivial_closed_form():
    g0 = pwl_min([((0,), 0)])
    v = orthant_exp_integral(g0, (1,), FAST)
    assert v.verdict == CONVERGES
    # integral of e^{-2x} over [0, inf) is 1/2
    assert abs(v.partial_values[-1][1] - 0.5) < 1e-3


def test_orthant_exact_agreement():
    assert orthant_exp_integral(G_23, (1, 1), FAST).verdict == DIVERGES
    assert orthant_exp_integral(G_23, (2, 1), FAST).verdict == CONVERGES


def test_orthant_monotone_partials():
    v = orthant_exp_integral(G_23, (2, 1), FAST)
    vals = [p for _, p in v.partial_values]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_weighted_integral_examples():
    # boundary case rescued by the 1/t_1^2 weight
    assert adjoint_weighted_integral(G_M6, (2, 4), 0, FAST).verdict == \
        CONVERGES
    # any eps > 0 tips the same integral into divergence
    assert adjoint_weighted_integral(G_M6, (2, 4), F(1, 10), FAST).verdict \
        == DIVERGES
    assert adjoint_weighted_integral(ZERO_2, (0, 1), 0, FAST).verdict == \
        CONVERGES


def test_polydisk_examples():
    assert polydisk_mc(ZERO_2, (0, 0), "plain", FAST).verdict == CONVERGES
    assert polydisk_mc(G_23, (0, 0), "plain", FAST).verdict == DIVERGES
    assert polydisk_mc(G_23, (1, 0), "plain", FAST).verdict == CONVERGES


def test_polydisk_agrees_with_orthant():
    for beta in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        A = tuple(b + 1 for b in beta)
        a = orthant_exp_integral(G_23, A, FAST).verdict
        b = polydisk_mc(G_23, beta, "plain", FAST).verdict
        assert a == b


def test_poincare_weight_matches_weighted_quadrature():
    # m^6 boundary member: both independent routes say Converges
    assert polydisk_mc(G_M6, (2, 3), "poincare_axis_1", FAST).verdict == \
        CONVERGES
    assert polydisk_mc(G_M6, (0, 5), "poincare_axis_1", FAST).verdict == \
        DIVERGES


def test_determinism():
    cfg = OracleConfig(mc_samples=50_000, seed=42)
    a = polydisk_mc(G_23, (1, 0), "plain", cfg)
    b = polydisk_mc(G_23, (1, 0), "plain", cfg)
    assert a == b
    assert orthant_exp_integral(G_23, (2, 1), cfg) == \
        orthant_exp_integral(G_23, (2, 1), cfg)


def test_power_product_oracle():
    g = power_product(2, (F(1, 2), F(1, 2)))
    assert orthant_exp_integral(g, (2, 2), FAST).verdict == CONVERGES
    assert orthant_exp_integral(g, (1, 1), FAST).verdict != CONVERGES


def test_radial_power_integral():
    assert radial_power_integral(F(5, 2), 2, FAST).verdict == CONVERGES
    assert radial_power_integral(F(5, 2), 1, FAST).verdict == DIVERGES
    v = radial_power_integral(F(5, 2), 2, FAST)
    # exact value of the 1-d integral is 1/2
    assert abs(v.partial_values[-1][1] - 0.5) < 1e-3


def test_input_validation():
    with pytest.raises(InputError):
        orthant_exp_integral(G_23, (1,), FAST)
    with pytest.raises(InputError):
        orthant_exp_integral(G_23, (-1, 1), FAST)
    with pytest.raises(InputError):
        adjoint_weighted_integral(G_23, (1, 1), -1, FAST)
    with pytest.raises(InputError):  # the first box would be [1, 1/2]
        adjoint_weighted_integral(G_23, (1, 1), 0, OracleConfig(
            truncation_schedule=(0.5, 2, 4)))
    with pytest.raises(InputError):
        polydisk_mc(G_23, (F(1, 2), 0), "plain", FAST)
    with pytest.raises(InputError):
        polydisk_mc(G_23, (0, 0), "exotic", FAST)


def assert_kernels_agree(g, A, box, m, weighted):
    # the closed-form sum along the last axis against the tensor grid
    # that power products use, on the same nodes and weights
    want = _grid_box(g, A, box, m, weighted)
    got = _envelope_box(g, A, box, m, weighted)
    if want >= 1e-280:
        assert abs(got - want) <= 1e-12 * want, (g, A, box, m, weighted)
    else:
        assert abs(got - want) <= 1e-280, (g, A, box, m, weighted)


def test_envelope_kernel_agrees_with_grid():
    rng = random.Random(404)
    for trial in range(600):
        n = 1 + trial % 3
        weighted = trial % 4 == 3  # the 1/x_1^2 weight, x_1 >= 1
        clamped = trial % 5 == 0   # exponent above 700 at the low corner
        pieces = []
        for _ in range(rng.randint(1, 4)):
            slope = tuple(F(rng.randint(0, 12), rng.randint(1, 3))
                          for _ in range(n))
            offset = (F(rng.randint(360, 450)) if clamped
                      else F(rng.randint(-40, 40), rng.randint(1, 4)))
            pieces.append((slope, offset))
        if trial % 2 and len(pieces) > 1:  # equal last-axis slopes
            pieces[1] = (pieces[1][0][:-1] + pieces[0][0][-1:], pieces[1][1])
        A = tuple(rng.randint(0, 24) / 4 for _ in range(n))
        # low 0 grades the axis; clamped boxes stay small enough that
        # e^700 times their volume is a finite float
        sides = ((0.0, 10.0), (0.0, 20.0)) if clamped else (
            (0.0, 10.0), (0.0, 40.0), (10.0, 20.0), (40.0, 80.0))
        box = [rng.choice(sides) for _ in range(n)]
        if weighted:
            box[0] = rng.choice(((1.0, 10.0), (10.0, 20.0)))
        m = rng.choice({1: (2, 3, 64, 512), 2: (2, 17, 64),
                        3: (2, 9, 16)}[n])
        assert_kernels_agree(pwl_min(pieces), A, box, m, weighted)


def test_envelope_kernel_on_a_short_flat_run():
    # on the graded axis the nearly flat piece is least on the first two
    # nodes only; its sum over them is 1e-5 of its sum over the whole
    # axis, so taking it as a difference of tail sums loses five digits
    m = 512
    x1 = F(40, (m - 1) ** 2)
    s0 = 1000 - F(1, 1000)
    g = pwl_min([((s0,), 0), ((0,), s0 * 3 * x1 / 2)])
    assert_kernels_agree(g, (1000.0,), [(0.0, 40.0)], m, False)


def test_orthant_3d_at_default_settings():
    g = pwl_min([((3, 0, 0), 0), ((0, 2, 0), 0), ((0, 0, 4), 0),
                 ((1, 2, 3), 0)])
    start = time.perf_counter()
    for A in [(2, 3, 2), (F(1, 2), 1, F(1, 2))]:
        want = CONVERGES if exp_integrable_shifted(g, A) else DIVERGES
        assert orthant_exp_integral(g, A).verdict == want
    assert time.perf_counter() - start < 15
