"""Self-tests of the benchmark: checkers, tracer and repeatability.

    python3 -m pytest perfbench/tests
"""

import shutil
import subprocess
import sys
from fractions import Fraction as F

import pytest

import checks
import run
from tracing import PER_LAYER, TraceError, Tracer
from workloads import Staircase

import nilcalc
from nilcalc import ideals, toric

GENS = ((4, 0), (1, 2), (0, 5))
IDEAL = ideals.minimalize(GENS, 2)


def gens_of(ideal):
    return [tuple(int(v) for v in g) for g in ideal.generators]


def rejects(check, *args):
    with pytest.raises(checks.CheckFailure):
        check(*args)


def test_multiplier_checker_rejects_extra_and_missing_generator():
    got = gens_of(ideals.multiplier_ideal(IDEAL, F(3, 2)))
    checks.check_multiplier(GENS, F(3, 2), got)
    rejects(checks.check_multiplier, GENS, F(3, 2), got + [(9, 9)])
    rejects(checks.check_multiplier, GENS, F(3, 2), got[1:])


def test_adjoint_checker_rejects_extra_and_missing_generator():
    got = gens_of(ideals.adjoint_ideal(IDEAL, F(1), 0))
    checks.check_adjoint(GENS, F(1), 0, got)
    rejects(checks.check_adjoint, GENS, F(1), 0, got[:-1])
    rejects(checks.check_adjoint, GENS, F(1), 0, got + [(0, 0)])


def test_jump_checker_rejects_dropped_jump():
    got = ideals.jumping_numbers(IDEAL, F(2))
    checks.check_jumps(GENS, F(2), got)
    rejects(checks.check_jumps, GENS, F(2), got[:-1])


def test_scalar_checkers_reject_wrong_values():
    checks.check_lct(GENS, ideals.lct(IDEAL))
    rejects(checks.check_lct, GENS, ideals.lct(IDEAL) + F(1, 100))
    eps = ideals.openness_margin(IDEAL, F(1))
    checks.check_openness(GENS, F(1), eps)
    rejects(checks.check_openness, GENS, F(1), 100 * eps)
    rejects(checks.check_openness, GENS, F(1), F(0))
    assert checks.adj0_ref(6, (1, 1), (2, 3)) == \
        ideals.adj0_power_membership(6, (1, 1), (2, 3))


def test_adjunction_checker_rejects_false_flag():
    rep = ideals.adjunction_report(IDEAL, F(1), 0)
    args = (GENS, F(1), 0, gens_of(rep.adjoint), gens_of(rep.multiplier),
            gens_of(rep.restricted_multiplier))
    checks.check_adjunction(*args, True, True)
    rejects(checks.check_adjunction, *args, True, False)


def test_toric_checkers_reject_wrong_generators():
    slopes = [(F(2), F(0)), (F(0), F(3)), (F(1), F(1))]
    got = gens_of(ideals.multiplier_ideal_toric(
        toric.pwl_min([(s, 0) for s in slopes])))
    checks.check_min_multiplier(slopes, got)
    rejects(checks.check_min_multiplier, slopes, got[1:])
    k, alpha = F(3), (F(1, 2), F(1, 2))
    got = gens_of(ideals.multiplier_ideal_toric(toric.power_product(k, alpha)))
    checks.check_power_multiplier(k, alpha, got)
    rejects(checks.check_power_multiplier, k, alpha, got + [(0, 0)])


def test_valuation_checkers_reject_failing_witness_and_flipped_flag():
    slopes = [(2, 0), (0, 3)]
    g = toric.pwl_min([(s, 0) for s in slopes])
    rep = toric.valuative_membership(g, (0, 0))
    assert not rep.member
    checks.check_valuation_min(slopes, (0, 0), False, None, rep.certificate)
    rejects(checks.check_valuation_min, slopes, (0, 0), False, None, (1, 0))
    rejects(checks.check_valuation_min, slopes, (0, 0), True, F(1, 10),
            None)
    k, alpha = F(3), (F(1, 2), F(1, 2))
    rep = toric.valuative_membership(toric.power_product(k, alpha), (0, 0))
    checks.check_valuation_power(k, alpha, (0, 0), False, None,
                                 rep.certificate)
    rejects(checks.check_valuation_power, k, alpha, (0, 0), False, None,
            (1, 0))


def test_oracle_checker_rejects_flipped_verdict():
    checks.check_oracle("interior", F(1, 2), checks.CONVERGES)
    rejects(checks.check_oracle, "interior", F(1, 2), checks.DIVERGES)
    rejects(checks.check_oracle, "exterior", F(1, 2), checks.CONVERGES)
    rejects(checks.check_oracle, "boundary", F(0), checks.CONVERGES)
    checks.check_radial(F(5, 2), 2, checks.CONVERGES)
    rejects(checks.check_radial, F(5, 2), 1, checks.CONVERGES)


def test_strict_json_rejects_non_finite_numbers():
    assert checks.strict_json('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        rejects(checks.strict_json, bad)


def test_brute_force_facets_of_the_howald_example():
    P = checks.Polyhedron([(2, 0), (0, 3)])
    assert P.facets == [((3, 2), 6)]
    assert P.crit((1, 1)) == F(5, 6)


def test_every_traced_name_resolves():
    tracer = Tracer()
    tracer.install()
    try:
        assert nilcalc.ideals.critical_scale is not \
            nilcalc.newton.critical_scale.__wrapped__
        fresh = ideals.minimalize([(7, 0), (0, 11)], 2)
        ideals.lct(fresh)
        ideals.lct(fresh)
    finally:
        tracer.uninstall()
    assert not hasattr(nilcalc.newton.critical_scale, "__wrapped__")
    metrics = tracer.layer_metrics(0.0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["lp.maximize.calls"] == 1
    assert metrics["newton.critical_scale.calls"] == 2
    assert metrics["newton.critical_scale.hit_ratio"] == 0.5


@pytest.mark.parametrize("module, name", [("ideals", "critical_scale"),
                                          ("lp", "maximize"),
                                          ("ideals", "_enumerate_minimal"),
                                          ("oracle", "_shell_boxes")])
def test_a_removed_name_fails_loudly(monkeypatch, module, name):
    monkeypatch.delattr(getattr(nilcalc, module), name)
    with pytest.raises(TraceError):
        Tracer().install()
    assert not hasattr(nilcalc.newton.maximize, "__wrapped__")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_staircase_never_repeats_a_polyhedron(seed):
    """No staircase operation can take a cached critical scale from
    another: the Newton polyhedra of all rounds a process may run are
    pairwise distinct after nilcalc's own minimalisation."""
    workload = Staircase(seed)
    workload.setup(nilcalc)
    keys = []
    for _ in range(workload.max_rounds):
        for op in workload.round():
            gens, _, axis, ideal = op.params
            assert ideal == ideals.minimalize(gens, len(gens[0]))
            keys.append(ideal)
            if op.kind == "adjunction_report" and ideal.dimension > 2:
                keys.append(ideals.restrict_to_axis(ideal, axis))
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_answers_and_work_counts_repeat(workload):
    _, plain = run.worker(workload, 3, "--rounds", "1", "--check")
    _, first = run.worker(workload, 3, "--rounds", "1", "--trace")
    _, second = run.worker(workload, 3, "--rounds", "1", "--trace")
    assert plain["correct"] and first["correct"]
    assert plain["digest"] == first["digest"] == second["digest"]
    for name in ("lp.maximize.calls", "ideals.points_tested",
                 "oracle.grid_points", "oracle.mc_samples",
                 "newton.critical_scale.calls", "cli.run.calls"):
        assert first["layers"][name] == second["layers"][name], name
    busy = {"staircase": "lp.maximize.calls", "certify": "cli.run.calls",
            "oracle": "oracle.grid_points"}[workload]
    assert first["layers"][busy] > 0


def test_times_are_scaled_by_the_speed_around_their_round():
    ref = run.REFERENCE_SPEED_S
    report = {"rounds": 2, "latencies_s": [0.1, 0.2, 0.1, 0.2],
              "speed_s": [[ref, ref], [ref, ref], [2 * ref, 2 * ref]]}
    assert run.scaled_latencies(report) == pytest.approx(
        [0.1, 0.2, 0.1 / 1.5, 0.2 / 1.5])
    assert run.scaled_setup(0.3, {"speed_s": [[4 * ref, ref]]}) == \
        pytest.approx(0.15)


def test_benchmark_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
