import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from nilcalc import oracle
from nilcalc.ideals import adjoint_ideal, contains, minimalize
from nilcalc.lp import InputError
from nilcalc.oracle import (_BLOCK_SPAN, CONVERGES, DIVERGES, PLAIN,
                            POINCARE_AXIS_1, QUADRATURE_POINTS_LIMIT,
                            OracleConfig, _axis_grid, _blocks, _Envelope,
                            _grid_box, _log_partial_sums, _shell_boxes,
                            _shells, _widest_step, adjoint_weighted_integral,
                            orthant_exp_integral, polydisk_mc,
                            radial_power_integral)
from nilcalc.toric import (exp_integrable_shifted, power_product, pwl_min,
                           scaled)

from envelope_reference import reference_partial_sums

G_23 = pwl_min([((2, 0), 0), ((0, 3), 0)])
G_M6 = pwl_min([((6, 0), 0), ((0, 6), 0)])
ZERO_2 = pwl_min([((0, 0), 0)])

FAST = OracleConfig(quadrature_points_per_axis=192)


def test_config_validation():
    with pytest.raises(InputError):
        OracleConfig(truncation_schedule=(10, 20))
    with pytest.raises(InputError):
        OracleConfig(truncation_schedule=(10, 10, 20))
    with pytest.raises(InputError, match="quadrature_points_per_axis"):
        OracleConfig(quadrature_points_per_axis=QUADRATURE_POINTS_LIMIT + 1)
    assert OracleConfig(quadrature_points_per_axis=QUADRATURE_POINTS_LIMIT
                        ).quadrature_points_per_axis == 5120


def test_orthant_trivial_closed_form():
    g0 = pwl_min([((0,), 0)])
    v = orthant_exp_integral(g0, (1,), FAST)
    assert v.verdict == CONVERGES
    # integral of e^{-2x} over [0, inf) is 1/2
    assert abs(v.partial_values[-1][1] - 0.5) < 1e-3


def test_orthant_vanishing_increments_converge():
    # e^{-2000x} underflows beyond the first box: 0/0 reads as ratio 0
    v = orthant_exp_integral(pwl_min([((0,), 0)]), (1000,))
    assert v.verdict == CONVERGES
    assert v.evidence["increments"][1:] == (0.0, 0.0, 0.0)
    assert v.evidence["ratios"] == (0.0, 0.0, 0.0)


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


def test_polydisk_power_products():
    cases = [((1, 1), (0,)), ((3, 1), (0,)), ((3, 1), (3,)),
             ((1, F(1, 2), F(1, 2)), (0, 0)), ((4, F(1, 2), F(1, 2)), (0, 0)),
             ((4, F(1, 2), F(1, 2)), (2, 2)), ((2, F(1, 4), F(1, 2)), (1, 0)),
             ((1, F(1, 3), F(1, 3), F(1, 3)), (0, 0, 0)),
             ((6, F(1, 3), F(1, 3), F(1, 3)), (0, 0, 0))]
    for (k, *exponents), beta in cases:
        g = power_product(k, exponents)
        shift = tuple(b + 1 for b in beta)
        want = CONVERGES if exp_integrable_shifted(g, shift) else DIVERGES
        assert polydisk_mc(g, beta, "plain", FAST).verdict == want, (k, beta)


def test_polydisk_beyond_float_range_diverges():
    # the exponent is clamped at 700, so the partial values stay finite
    # (about 8e305) and still grow
    v = polydisk_mc(pwl_min([((400,), 0)]), (0,), "plain", FAST)
    assert v.verdict == DIVERGES
    assert v == radial_power_integral(400, 0, FAST)


def test_one_variable_polydisk_is_the_radial_integral():
    # e^{2(k t - (b + 1) t)} over [log 2, inf) in both, partial values and
    # evidence included
    rng = random.Random(1111)
    for _ in range(40):
        cfg = OracleConfig(quadrature_points_per_axis=rng.choice((2, 64,
                                                                  512)))
        k, b = F(rng.randint(1, 40), 4), rng.randint(0, 6)
        assert polydisk_mc(pwl_min([((k,), 0)]), (b,), "plain", cfg) == \
            radial_power_integral(k, b, cfg), (k, b, cfg)


def random_ideal(rng, n):
    """Generators with entries in [0, 5], one of them 0 on axis 0, as the
    adjoint ideal along axis 0 requires."""
    gens = [tuple(rng.randint(0, 5) for _ in range(n))
            for _ in range(rng.randint(1, 4))]
    gens.append((0,) + tuple(rng.randint(0, 5) for _ in range(n - 1)))
    return minimalize(gens)


def test_polydisk_poincare_on_the_axis_matches_the_adjoint_ideal():
    # beta_1 = 0 puts A = beta + 1 - e_1 on the body's boundary along axis
    # 0, where only the 1/t_1^2 weight decides; the grid graded at log 2
    # reads the exact adjoint ideal's answer on every case
    rng = random.Random(1212)
    cfg = OracleConfig(quadrature_points_per_axis=48)
    for _ in range(60):
        ideal = random_ideal(rng, 3)
        beta = (0, rng.randint(0, 4), rng.randint(0, 4))
        g = pwl_min([(gen, 0) for gen in ideal.generators])
        want = CONVERGES if contains(adjoint_ideal(ideal, 1, 0), beta) \
            else DIVERGES
        got = polydisk_mc(g, beta, POINCARE_AXIS_1, cfg).verdict
        assert got == want, (ideal.generators, beta)


def test_determinism():
    assert polydisk_mc(G_23, (1, 0), "plain", FAST) == \
        polydisk_mc(G_23, (1, 0), "plain", FAST)
    assert orthant_exp_integral(G_23, (2, 1), FAST) == \
        orthant_exp_integral(G_23, (2, 1), FAST)


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


def test_radial_power_integral_checks_its_inputs():
    for k, beta in (("abc", 1), (1, -1), (1, F(1, 2)), (1, "x"), (1, 0.5)):
        with pytest.raises(InputError):
            radial_power_integral(k, beta, FAST)
    # rationals come as ints, "p/q" strings or Fractions
    assert radial_power_integral("5/2", F(2), FAST).verdict == CONVERGES
    for k in (0, -3):
        with pytest.raises(InputError, match="k must be positive"):
            radial_power_integral(k, 2, FAST)
    # the first box is [log 2, T_1]; at T_1 = 1/2 it would be reversed
    with pytest.raises(InputError, match="must exceed log 2"):
        radial_power_integral(F(5, 2), 2, OracleConfig(
            truncation_schedule=(0.5, 1, 2)))


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


class GridShells:
    """`_Envelope` by the tensor grid: a shell is the sum of `_grid_box`
    over its `_shell_boxes`, as in `grid_partials`."""

    def __init__(self, g, A, m, weighted, lows):
        self.args = g, A, m, weighted, lows

    def shell(self, prev, cur):
        g, A, m, weighted, lows = self.args
        return sum(_grid_box(g, A, box, m, weighted, lows)
                   for box in _shell_boxes(lows, prev, cur))


def agree(got, want):
    """got is want to 1e-12, or to 1e-280 where want is below 1e-280."""
    if want == math.inf:
        return got == math.inf
    return abs(got - want) <= (1e-12 * want if want >= 1e-280 else 1e-280)


def assert_kernels_agree(g, A, lows, prev, cur, m, weighted):
    # the closed-form shell against the tensor grid that power products
    # use, summed over the shell's boxes on the same nodes and weights
    with np.errstate(over="ignore"):  # a shell beyond float range
        want = GridShells(g, A, m, weighted, lows).shell(prev, cur)
        got = _Envelope(g, A, m, weighted, lows).shell(prev, cur)
    assert agree(got, want), (g, A, prev, cur, m, weighted)


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
        # the lows of the weighted and orthant oracles; clamped shells
        # stay small enough that e^700 times their volume is a finite float
        lows = [1.0 if weighted else 0.0] + [0.0] * (n - 1)
        schedule = (10.0, 20.0) if clamped else (10.0, 20.0, 40.0, 80.0)
        step = rng.randrange(len(schedule))
        prev, cur = ((None,) + schedule)[step], schedule[step]
        m = rng.choice({1: (2, 3, 64, 512), 2: (2, 17, 64),
                        3: (2, 9, 16)}[n])
        assert_kernels_agree(pwl_min(pieces), A, lows, prev, cur, m,
                             weighted)


def test_envelope_kernel_on_a_short_flat_run():
    # on the graded axis the nearly flat piece is least on the first two
    # nodes only; its sum over them is 1e-5 of its sum over the whole
    # axis, so taking it as a difference of tail sums loses five digits
    m = 512
    x1 = F(40, (m - 1) ** 2)
    s0 = 1000 - F(1, 1000)
    g = pwl_min([((s0,), 0), ((0,), s0 * 3 * x1 / 2)])
    assert_kernels_agree(g, (1000.0,), [0.0], None, 40.0, m, False)


@pytest.mark.parametrize("chunk", [1, 37, oracle._ENVELOPE_CHUNK])
def test_envelope_agrees_with_grid_at_every_chunk_size(monkeypatch, chunk):
    # shells split into chunks of rows of (piece, row) pairs, from one row
    # per chunk to the default, which splits a 3-variable shell at m = 48
    tables = []

    def recorded(x, lw, a):
        tables.append(a)
        return _log_partial_sums(x, lw, a)
    monkeypatch.setattr(oracle, "_ENVELOPE_CHUNK", chunk)
    monkeypatch.setattr(oracle, "_log_partial_sums", recorded)
    rng = random.Random(1515)
    schedule = (10.0, 20.0, 40.0, 80.0)
    for n in (2, 3):
        # tied last slopes: two pieces, and (the last slope of A being
        # one piece's) a piece and the clamp; and a single piece below
        # the clamp on every shell
        tied = [(tuple(F(rng.randint(0, 12), 2) for _ in range(n - 1))
                 + (F(3),), F(rng.randint(-40, 40), 4)) for _ in range(3)]
        cases = [(tied, (1.5,) * (n - 1) + (0.5,)),
                 (tied, (0.5,) * (n - 1) + (3.0,)),
                 ([((1,) * n, 0), ((0,) * n, 10000)], (0.5,) * n)]
        for m in (9, 17, 48):
            for pieces, A in cases:
                for prev, cur in zip((None,) + schedule, schedule):
                    assert_kernels_agree(pwl_min(pieces), A, [0.0] * n,
                                         prev, cur, m, False)
    assert min(map(len, tables)) == 1
    assert any(len(set(a)) < len(a) for a in tables)
    assert any(0.0 in a[:-1] and a[-1] == 0.0 for a in tables)


AXES = [(0.0, 10.0), (0.0, 80.0), (10.0, 20.0), (40.0, 80.0), (1.0, 80.0)]


@pytest.mark.parametrize("m", [2, 3, 64, 512, 5120])
@pytest.mark.parametrize("interval", AXES)
def test_partial_sums_agree_with_logaddexp(interval, m):
    # graded axes start at 0; slope 20 on [40, 80] spans 800 > 600, so
    # its rows run over several blocks
    a0, b0 = interval
    a = np.array([20.0, 7.5, 1e-9, 0.0, -3.0, -20.0])
    for over_square in (False, True) if a0 > 0 else (False,):
        x, w = _axis_grid(a0, b0, m, a0 == 0.0)
        lw = np.log(w / np.square(x) if over_square else w)
        for got, want in zip(_log_partial_sums(x, lw, a),
                             reference_partial_sums(x, lw, a)):
            assert np.array_equal(got == -np.inf, want == -np.inf)
            finite = want > -np.inf
            err = np.abs(got[finite] - want[finite])
            assert (err <= 4e-13 * np.maximum(1.0, np.abs(want[finite]))
                    ).all(), (interval, m, over_square, err.max())


def test_partial_sums_over_zero_weights():
    # a weight below float range (w / x^2 far out on a weighted axis) has
    # the log -inf, which adds nothing to a sum
    x = np.linspace(1.0, 40.0, 64)
    lw = np.log(np.full(64, 0.5))
    lw[40:] = -np.inf
    a = np.array([3.0, 0.0, -3.0])
    with np.errstate(divide="ignore"):
        got = _log_partial_sums(x, lw, a)
    for g, want in zip(got, reference_partial_sums(x, lw, a)):
        assert np.array_equal(g == -np.inf, want == -np.inf)
        finite = want > -np.inf
        assert np.allclose(g[finite], want[finite], rtol=1e-13, atol=0)


def test_blocks_bound_every_rows_span():
    rng = random.Random(505)
    several = 0
    for _ in range(200):
        a0 = rng.choice((0.0, 1.0, 10.0, 40.0))
        x, w = _axis_grid(a0, a0 + rng.choice((1.0, 10.0, 40.0, 400.0)),
                          rng.choice((2, 3, 64, 512)), a0 == 0.0)
        lw = np.log(w)
        slope = rng.choice((0.0, 0.5, 20.0, 300.0))
        cuts = _blocks(x, float(lw.max() - lw.min()), slope)
        assert cuts[0] == 0 and cuts[-1] == len(x)
        assert all(s < e for s, e in zip(cuts, cuts[1:]))
        several += len(cuts) > 2
        for s, e in zip(cuts, cuts[1:]):
            for a in (slope, -slope):
                terms = lw[s:e] + a * x[s:e]
                assert terms.max() - terms.min() < _BLOCK_SPAN
    assert several > 20
    # weights that alone span the limit put each node in its own block
    assert _blocks(np.arange(4.0), _BLOCK_SPAN, 0.0) == [0, 1, 2, 3, 4]


def test_one_call_shares_grids():
    # the shells of a call, integrated by one _Envelope that reuses its
    # axis grids, give each shell's own integral bit for bit
    rng = random.Random(606)
    for trial in range(60):
        n = 1 + trial % 3
        weighted = trial % 4 == 3
        g = random_toric(rng, n, power=False)
        A = tuple(rng.randint(0, 24) / 4 for _ in range(n))
        m = rng.choice((2, 9, 33))
        lows = [1.0 if weighted else 0.0] + [0.0] * (n - 1)
        env = _Envelope(g, A, m, weighted, lows)
        schedule = (10.0, 20.0, 40.0, 80.0)
        for prev, cur in zip((None,) + schedule, schedule):
            with np.errstate(over="ignore"):  # a shell beyond float range
                assert env.shell(prev, cur) == _Envelope(
                    g, A, m, weighted, lows).shell(prev, cur)


def grid_partials(g, A, lows, cfg, weighted):
    """The partial values of summing `_grid_box` over `_shells`."""
    total, partials = 0.0, []
    for boxes in _shells(lows, cfg.truncation_schedule):
        total += sum(_grid_box(g, A, box, cfg.quadrature_points_per_axis,
                               weighted, lows) for box in boxes)
        partials.append(total)
    return partials


def test_one_variable_calls_are_the_grid_quadrature():
    # orthant, weighted and radial calls in one variable sum the grid of
    # each shell box, bit for bit
    rng = random.Random(909)
    for trial in range(40):
        cfg = OracleConfig(quadrature_points_per_axis=rng.choice((2, 64,
                                                                  512)))
        g = random_toric(rng, 1, power=trial % 4 == 3)
        A = F(rng.randint(0, 40), 4)
        got = orthant_exp_integral(g, (A,), cfg)
        want = grid_partials(g, (float(A),), [0.0], cfg, False)
        assert [p for _, p in got.partial_values] == want, (g, A)
        eps = F(rng.randint(0, 4), 4)
        got = adjoint_weighted_integral(g, (A,), eps, cfg)
        want = grid_partials(scaled(g, 1 + eps),
                             (float(A),), [1.0], cfg, True)
        assert [p for _, p in got.partial_values] == want, (g, A, eps)
        k, beta = F(rng.randint(1, 24), 4), rng.randint(0, 5)
        got = radial_power_integral(k, beta, cfg)
        want = grid_partials(pwl_min([((k,), 0)]), (float(beta + 1),),
                             [math.log(2.0)], cfg, False)
        assert [p for _, p in got.partial_values] == want, (k, beta)


@pytest.mark.parametrize("m", [2, 9, 17])
def test_calls_in_two_and_three_variables_are_the_grid_quadrature(
        monkeypatch, m):
    # orthant, weighted and polydisk calls (plain and Poincare weights)
    # read the verdict of the tensor grid over each shell's boxes, and its
    # partial values to 1e-12
    rng = random.Random(1414 + m)
    cfg = OracleConfig(quadrature_points_per_axis=m)
    calls = []
    for trial in range(24):
        n = 2 + trial % 2
        g = random_toric(rng, n, power=False)
        A = tuple(F(rng.randint(0, 24), 4) for _ in range(n))
        beta = tuple(rng.randint(0, 4) for _ in range(n))
        eps = F(rng.randint(0, 4), 4)
        calls += [(orthant_exp_integral, (g, A, cfg)),
                  (adjoint_weighted_integral, (g, A, eps, cfg)),
                  (polydisk_mc, (g, beta, PLAIN, cfg)),
                  (polydisk_mc, (g, beta, POINCARE_AXIS_1, cfg))]
    got = [f(*args) for f, args in calls]
    monkeypatch.setattr(oracle, "_Envelope", GridShells)
    verdicts = set()
    for (f, args), v in zip(calls, got):
        want = f(*args)
        assert v.verdict == want.verdict, (f.__name__, args)
        verdicts.add(v.verdict)
        assert all(agree(p, q) for (_, p), (_, q)
                   in zip(v.partial_values, want.partial_values)), (
            f.__name__, args)
    assert CONVERGES in verdicts and DIVERGES in verdicts


def test_envelope_builds_partial_sums_once_per_shell(monkeypatch):
    # a 3-variable orthant call on the default schedule sums its 4 shells
    # (the base box and 3 shells of 7 boxes each) in 4 passes, each on
    # one table of last-axis partial sums
    shells, tables = [], []

    class Recorded(_Envelope):
        def shell(self, prev, cur):
            shells.append((prev, cur))
            return super().shell(prev, cur)

    def recorded(*args):
        tables.append(args)
        return _log_partial_sums(*args)
    monkeypatch.setattr(oracle, "_Envelope", Recorded)
    monkeypatch.setattr(oracle, "_log_partial_sums", recorded)
    rng = random.Random(1010)
    cfg = OracleConfig(quadrature_points_per_axis=9)
    for _ in range(40):
        g = random_toric(rng, 3, power=False)
        A = tuple(F(rng.randint(0, 24), 4) for _ in range(3))
        orthant_exp_integral(g, A, cfg)
    assert shells == [(None, 10.0), (10.0, 20.0), (20.0, 40.0),
                      (40.0, 80.0)] * 40
    assert len(tables) == 4 * 40


def test_orthant_3d_at_default_settings():
    g = pwl_min([((3, 0, 0), 0), ((0, 2, 0), 0), ((0, 0, 4), 0),
                 ((1, 2, 3), 0)])
    start = time.perf_counter()
    for A in [(2, 3, 2), (F(1, 2), 1, F(1, 2))]:
        want = CONVERGES if exp_integrable_shifted(g, A) else DIVERGES
        assert orthant_exp_integral(g, A).verdict == want
    assert time.perf_counter() - start < 15


def random_toric(rng, n, power):
    if power:
        parts = [rng.randint(0, 4) for _ in range(n)]
        exponents = [F(p, max(4, sum(parts))) for p in parts]
        return power_product(F(rng.randint(1, 16), rng.randint(1, 4)),
                             exponents)
    pieces = []
    for _ in range(rng.randint(1, 4)):
        slope = tuple(F(rng.randint(0, 12), rng.randint(1, 3))
                      for _ in range(n))
        pieces.append((slope, F(rng.randint(-40, 40), rng.randint(1, 4))))
    if rng.random() < 0.3 and len(pieces) > 1:  # equal slopes
        pieces[1] = (pieces[0][0], pieces[1][1])
    return pwl_min(pieces)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (0.0, 1e300), (1.0, 40.0)])
@pytest.mark.parametrize("m", [2, 3, 512])
def test_widest_step_is_the_grids(a, b, m):
    for graded in (False, True):
        x, _ = _axis_grid(a, b, m, graded)
        assert _widest_step(a, b, m, graded) == pytest.approx(
            np.diff(x).max(), rel=1e-12)
