"""Acceptance gate: one test per acceptance criterion.

Each test prints a single summary line `[criterion N] name: PASS|FAIL
(t s)` and enforces its runtime budget.  Exact results use exact
comparison (zero tolerance); oracle verdicts are compared as labels.
"""

import io
import itertools
import random
import time
from fractions import Fraction as F
from functools import lru_cache
from math import lcm

from nilcalc.cli import run
from nilcalc.ideals import (adj0_power_membership, adjoint_ideal, box_audit,
                            contains, minimalize, multiplier_ideal,
                            multiplier_ideal_toric, openness_margin)
from nilcalc.newton import BOUNDARY, INTERIOR, dot
from nilcalc.oracle import (CONVERGES, DIVERGES, OracleConfig,
                            adjoint_weighted_integral, orthant_exp_integral,
                            radial_power_integral)
from nilcalc.toric import (certificate_slack, classify_in_body,
                           exp_integrable_shifted, power_product, pwl_min,
                           valuative_membership)

CFG = OracleConfig(quadrature_points_per_axis=384)


def monomial_power(n, d):
    """m^d, the d-th power of the maximal ideal in n variables."""
    return minimalize([b for b in itertools.product(range(d + 1), repeat=n)
                       if sum(b) == d], n)


def finish(number, name, started, budget, failures):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures and elapsed < budget else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({elapsed:.2f} s)")
    assert not failures, failures
    assert elapsed < budget, f"budget {budget} s exceeded: {elapsed:.2f} s"


def cli(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out, stderr=out)
    return code, out.getvalue()


@lru_cache(maxsize=None)
def suite4_ideals():
    rng = random.Random(20250823)
    out = []
    for _ in range(100):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 8) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        out.append(minimalize(gens, n))
    return tuple(out)


def pwl_of_ideal(ideal, scale=F(1)):
    return pwl_min([(tuple(scale * v for v in g), 0)
                    for g in ideal.generators])


def test_criterion_1_howald_reproduction():
    started = time.monotonic()
    failures = []
    code, out = cli("mult", "--ideal", "x^2, y^3", "--c", "1")
    if (code, out) != (0, "generators: x, y\n"):
        failures.append(f"mult output {out!r}")
    code, out = cli("lct", "--ideal", "x^2, y^3")
    if (code, out) != (0, "5/6\n"):
        failures.append(f"lct output {out!r}")
    exact_elapsed = time.monotonic() - started
    if exact_elapsed >= 1.0:
        failures.append(f"exact part took {exact_elapsed:.2f} s")
    g = pwl_min([((2, 0), 0), ((0, 3), 0)])
    for beta, expected in [((1, 0), CONVERGES), ((0, 1), CONVERGES),
                           ((0, 0), DIVERGES)]:
        A = tuple(b + 1 for b in beta)
        got = orthant_exp_integral(g, A, CFG).verdict
        if got != expected:
            failures.append(f"oracle at beta={beta}: {got}")
    finish(1, "Howald reproduction", started, 30.0, failures)


def test_criterion_2_adjoint_reproduction():
    started = time.monotonic()
    failures = []
    code, out = cli("adj", "--ideal", "x^2, y^3", "--c", "1", "--axis", "x")
    if (code, out) != (0, "generators: x^2, x*y, y^3\n"):
        failures.append(f"adj output {out!r}")
    import json
    code, out = cli("check-adjunction", "--ideal", "x^2, y^3", "--c", "1",
                    "--axis", "x", "--format", "json")
    doc = json.loads(out)
    if not (doc["result"]["kernel_exact"] and
            doc["result"]["restriction_exact"]):
        failures.append("adjunction flags for (x^2, y^3)")
    m6 = monomial_power(2, 6)
    from nilcalc.ideals import adjunction_report, shift_by_axis
    rep = adjunction_report(m6, 1, 0)
    if rep.adjoint != m6:
        failures.append("m^6 adjoint")
    if rep.kernel != shift_by_axis(monomial_power(2, 5), 0):
        failures.append("m^6 kernel is not x * m^5")
    if [tuple(map(int, g)) for g in
            rep.restricted_multiplier.generators] != [(6,)]:
        failures.append("m^6 restriction is not (y^6)")
    if not (rep.kernel_exact and rep.restriction_exact):
        failures.append("m^6 adjunction flags")
    finish(2, "adjoint reproduction", started, 2.0, failures)


def test_criterion_3_strict_inclusion_witness():
    started = time.monotonic()
    failures = []
    m6 = monomial_power(2, 6)
    adj = adjoint_ideal(m6, 1, 0)
    if not adj0_power_membership(6, (1, 1), (2, 3)):
        failures.append("(2,3) not in the zero adjoint")
    if contains(adj, (2, 3)):
        failures.append("(2,3) unexpectedly in the adjoint")
    # the literal exponent (3,3): computed and reported as a discrepancy;
    # it satisfies the strict zero-adjoint condition AND lies in the
    # adjoint, so it cannot witness the strict inclusion
    in_adj0 = adj0_power_membership(6, (1, 1), (3, 3))
    in_adj = contains(adj, (3, 3))
    print(f"  documented discrepancy: beta=(3,3) is in adj0={in_adj0} "
          f"and in Adj={in_adj}; only beta=(2,3) separates the ideals")
    if not (in_adj0 and in_adj):
        failures.append("(3,3) discrepancy computation changed")
    g6 = pwl_of_ideal(minimalize([(6, 0), (0, 6)], 2))
    v0 = adjoint_weighted_integral(g6, (2, 4), 0, CFG).verdict
    v1 = adjoint_weighted_integral(g6, (2, 4), F(1, 10), CFG).verdict
    if v0 != CONVERGES:
        failures.append(f"weighted eps=0 verdict {v0}")
    if v1 != DIVERGES:
        failures.append(f"weighted eps=1/10 verdict {v1}")
    finish(3, "strict inclusion adj0 over Adj", started, 120.0, failures)


def test_criterion_4_openness_suite():
    started = time.monotonic()
    failures = []
    for idx, ideal in enumerate(suite4_ideals()):
        for c in (F(1, 2), F(5, 6), F(1)):
            J = multiplier_ideal(ideal, c)
            eps = openness_margin(ideal, c)
            if eps <= 0:
                failures.append(f"ideal {idx}, c={c}: eps {eps}")
            elif multiplier_ideal(ideal, (1 + eps) * c) != J:
                failures.append(f"ideal {idx}, c={c}: openness fails")
    finish(4, "openness property suite", started, 60.0, failures)


def curated_suite():
    """(g, A, classification) cases with margin >= 1/10, plus boundary."""
    g23 = pwl_min([((2, 0), 0), ((0, 3), 0)])
    g66 = pwl_min([((6, 0), 0), ((0, 6), 0)])
    g11 = pwl_min([((1, 1), 0)])
    g_mixed = pwl_min([((3, 1), 0), ((1, 2), 0)])
    gz2 = pwl_min([((0, 0), 0)])
    g2 = pwl_min([((2,), 0)])
    cases = [
        (g23, (2, 1)), (g23, (1, 2)), (g23, (3, 3)), (g23, (1, 1)),
        (g23, (F(1, 2), F(1, 2))), (g23, (2, 0)), (g23, (0, 1)),
        (g66, (4, 4)), (g66, (7, 2)), (g66, (2, 2)), (g66, (1, 4)),
        (g11, (2, 3)), (g11, (F(1, 2), 3)), (g11, (F(5, 4), F(5, 4))),
        (g_mixed, (3, 2)), (g_mixed, (1, 1)), (g_mixed, (4, 4)),
        (gz2, (1, 1)), (gz2, (F(1, 5), F(1, 5))),
        (g2, (3,)), (g2, (1,)),
        # exact boundary cases
        (g23, (1, F(3, 2))), (g66, (2, 4)), (g11, (1, 1)), (g2, (2,)),
    ]
    return [(g, tuple(F(a) for a in A)) for g, A in cases]


def test_criterion_5_integrability_equivalence_suite():
    started = time.monotonic()
    failures = []
    suite = curated_suite()
    boundary_count = 0
    for g, A in suite:
        cls = classify_in_body(g, A)
        verdict = orthant_exp_integral(g, A, CFG).verdict
        if cls.verdict == BOUNDARY:
            boundary_count += 1
            if verdict == CONVERGES:
                failures.append(f"boundary case {A} reported Converges")
            continue
        if cls.verdict == INTERIOR:
            if cls.margin < F(1, 10):
                failures.append(f"case {A}: margin {cls.margin} too small")
            if verdict != CONVERGES:
                failures.append(f"interior case {A}: {verdict}")
            if not exp_integrable_shifted(g, A):
                failures.append(f"case {A}: exact test disagrees")
        else:
            w = cls.witness
            gap = (min(dot(w, tuple(s)) for s, _ in g.pieces) - dot(w, A)) \
                / sum(w)
            if gap < F(1, 10):
                failures.append(f"case {A}: exterior margin {gap}")
            if verdict == CONVERGES:
                failures.append(f"exterior case {A}: Converges")
            if exp_integrable_shifted(g, A):
                failures.append(f"case {A}: exact test disagrees")
    if len(suite) < 20 or boundary_count < 3:
        failures.append("suite is too small")
    finish(5, "integrability equivalence suite", started, 300.0, failures)


def test_criterion_6_valuative_certificates():
    started = time.monotonic()
    failures = []
    checked = 0
    # non-members encountered in the earlier suites: the Howald example
    # plus every non-member of each suite-4 multiplier ideal found on a
    # small probe grid, tested against the scaled weight c * g
    probes = [((2, 0), (0, 3), F(1), (0, 0))]
    rng = random.Random(77)
    for ideal in suite4_ideals()[:40]:
        c = F(5, 6)
        J = multiplier_ideal(ideal, c)
        n = ideal.dimension
        for _ in range(6):
            beta = tuple(rng.randint(0, 4) for _ in range(n))
            if not contains(J, beta):
                probes.append((*[tuple(g) for g in ideal.generators],
                               c, beta))
    seen = set()
    for *gens, c, beta in probes:
        key = (tuple(gens), c, beta)
        if key in seen:
            continue
        seen.add(key)
        g = pwl_of_ideal(minimalize(list(gens)), c)
        rep = valuative_membership(g, beta)
        if rep.member:
            failures.append(f"{gens} beta={beta}: member")
            continue
        if certificate_slack(g, beta, rep.certificate) < 0:
            failures.append(f"{gens} beta={beta}: witness ratio < 1")
        checked += 1
    if checked < 30:
        failures.append(f"only {checked} non-members found")
    finish(6, "valuative certificates", started, 60.0, failures)


def product_criterion(k, alpha, beta):
    """Independent exact check of prod ((beta_i+1)/alpha_i)^alpha_i > k."""
    q = lcm(*[a.denominator for a in alpha])
    lhs = F(1)
    for b, a in zip(beta, alpha):
        if a > 0:
            lhs *= ((b + 1) / a) ** int(a * q)
    return lhs > k ** q


def test_criterion_7_power_product_family():
    started = time.monotonic()
    failures = []
    for k, alpha in [(1, (F(1, 3), F(1, 3))), (7, (F(1, 2), F(1, 4))),
                     (2, (F(1, 4), F(1, 4), F(1, 4)))]:
        if not multiplier_ideal_toric(power_product(k, alpha)).is_unit:
            failures.append(f"sum < 1 not unit for k={k}")
    grids = [(F(5, 2), (F(1),)), (2, (F(1, 2), F(1, 2))),
             (3, (F(2, 3), F(1, 3))), (2, (F(1, 2), F(1, 4), F(1, 4)))]
    for k, alpha in grids:
        g = power_product(k, alpha)
        n = len(alpha)
        size = 10 if n <= 2 else 10
        import itertools
        for beta in itertools.product(range(size), repeat=n):
            lam = tuple(F(b + 1) for b in beta)
            got = classify_in_body(g, lam).verdict == INTERIOR
            want = product_criterion(F(k), alpha, tuple(map(F, beta)))
            if got != want:
                failures.append(f"k={k} alpha={alpha} beta={beta}")
                break
    gens = multiplier_ideal_toric(power_product(F(5, 2), (F(1),))).generators
    if [tuple(map(int, g)) for g in gens] != [(2,)]:
        failures.append(f"n=1 k=5/2 generators {gens}")
    if radial_power_integral(F(5, 2), 2, CFG).verdict != CONVERGES:
        failures.append("radial oracle at beta=2")
    if radial_power_integral(F(5, 2), 1, CFG).verdict != DIVERGES:
        failures.append("radial oracle at beta=1")
    finish(7, "power product family", started, 60.0, failures)


def test_criterion_8_box_audit():
    started = time.monotonic()
    failures = []
    for idx, ideal in enumerate(suite4_ideals()):
        for c in (F(1, 2), F(5, 6), F(1)):
            if not box_audit(ideal, c):
                failures.append(f"ideal {idx}, c={c}")
    finish(8, "box-expansion audit", started, 120.0, failures)


def test_criterion_9_property_suites():
    started = time.monotonic()
    failures = []
    import test_properties as props
    for name in ("test_antichain_and_upward_closedness",
                 "test_nesting_in_c", "test_adjoint_sandwich",
                 "test_classification_scaling_law",
                 "test_parse_print_round_trip"):
        try:
            getattr(props, name)()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    finish(9, "property suites", started, 120.0, failures)
