"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values follow the oracle stated with each criterion: direct
evaluation (cross-checked here against a 60-digit Decimal recomputation and
root-finding on the defining equations), exact binomial/MGF identities, or
the Monte Carlo estimator's own confidence intervals. The full module takes
a few minutes; every run is deterministic under the fixed seeds.
"""

import math
import time
from dataclasses import replace
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import stats

from relaysec import (ProtocolChoice, ScenarioConfig, combine_legs,
                      estimate_outage, eve_intercept_exact, expected_jammers,
                      load_balance, merge_estimates, per_leg_budget,
                      theorem1_m_max, theorem2_tau_range, theorem3_m_max,
                      tolerance_search)
from relaysec.serialize import dumps
from relaysec.validation import leg_checks, mgf_check

SEED = 1021

IL11 = ScenarioConfig(n=11, m=1, gamma_r=1.0, gamma_e=1.0,
                      noise_mode="interference-limited")


def manual(tau, kind="random-uniform"):
    return ProtocolChoice(kind=kind, tau_policy="manual", tau=tau)


def report(num, ok, msg):
    print(f"CRITERION {num:>2} {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, f"criterion {num}: {msg}"


def _dec(x):
    return Decimal(repr(x))


def decimal_theorem1(n, gamma_r, gamma_e, eps_s):
    """60-digit recomputation of the max-min tolerance bound."""
    getcontext().prec = 60
    budget = 1 - (1 - _dec(eps_s)).sqrt()
    expo = (Decimal(n) * Decimal(n).ln() / (32 * _dec(gamma_r))).sqrt()
    return budget * (1 + _dec(gamma_e)) ** expo


def decimal_theorem3(n, gamma_r, gamma_e, eps_s, eps_t):
    getcontext().prec = 60
    budget = 1 - (1 - _dec(eps_s)).sqrt()
    expo = (-(Decimal(n) - 1) * (1 - _dec(eps_t)).ln() / (2 * _dec(gamma_r))).sqrt()
    return budget * (1 + _dec(gamma_e)) ** expo


def decimal_theorem2(n, m, gamma_r, gamma_e, eps_s, eps_t):
    getcontext().prec = 60
    budget = 1 - (1 - _dec(eps_s)).sqrt()
    bracket = 1 + (budget / m).ln() / ((Decimal(n) - 1) * (1 + _dec(gamma_e)).ln())
    tau_min = -bracket.ln()
    tau_max = (-(1 - _dec(eps_t)).ln() / (2 * _dec(gamma_r) * (Decimal(n) - 1))).sqrt()
    return tau_min, tau_max


def test_criterion_01_closed_form_reproduction():
    t0 = time.perf_counter()
    t1 = theorem1_m_max(1000, 1.0, 1.0, 0.1)
    t3 = theorem3_m_max(101, 1.0, 1.0, 0.3, 0.3)
    iv = theorem2_tau_range(101, 1, 1.0, 1.0, 0.5, 0.5)
    elapsed = time.perf_counter() - t0

    oracle_t1 = float(decimal_theorem1(1000, 1.0, 1.0, 0.1))
    oracle_t3 = float(decimal_theorem3(101, 1.0, 1.0, 0.3, 0.3))
    o_lo, o_hi = (float(v) for v in decimal_theorem2(101, 1, 1.0, 1.0, 0.5, 0.5))

    ok = (abs(t1.value - oracle_t1) / oracle_t1 < 1e-4
          and abs(t3.value - oracle_t3) / oracle_t3 < 1e-4
          and abs(iv.tau_min - o_lo) / o_lo < 1e-4
          and abs(iv.tau_max - o_hi) / o_hi < 1e-4
          and t1.floor == math.floor(oracle_t1)
          and t3.floor == math.floor(oracle_t3) == 3
          and elapsed < 1.0)
    # Exact natural-log evaluation puts the first bound at 1358.687 (floor
    # 1358); quoting 1359 requires rounding sqrt(0.9) to 5 digits first, so
    # the recomputation oracle governs here.
    report(1, ok, f"theorem1={t1.value:.4f} (floor {t1.floor}), theorem3={t3.value:.4f} "
                  f"(floor {t3.floor}), tau=[{iv.tau_min:.5f}, {iv.tau_max:.5f}], "
                  f"all within 1e-4 of 60-digit recomputation, {elapsed * 1e3:.1f} ms")


def test_criterion_02_mgf_identity():
    results = [mgf_check(g, 1_000_000, SEED + i)
               for i, g in enumerate((0.5, 1.0, 2.0))]
    ok = all(r.passed for r in results)
    detail = "; ".join(f"g={g}: |{r.observed:.6f}-{r.expected:.6f}|<{r.tolerance:.2g}"
                       for g, r in zip((0.5, 1.0, 2.0), results))
    report(2, ok, f"mean(e^-gX) vs 1/(1+g) within 3 SE at 1e6 samples ({detail})")


def test_criterion_03_exact_intercept_oracle():
    # a 6-sigma gate on 9.4e6 trials a threshold: the bias it catches half
    # the time is no larger than that of the Wilson 95% interval at 1e6
    # trials it replaced (6 / sqrt(9.4) < 1.96), and a defect-free stream
    # fails it about once in 5e8 seeds, not once in 10
    details, ok = [], True
    for tau in (0.1, 1.0):
        est = estimate_outage(IL11, manual(tau), 9_400_000, SEED + 3, workers=2)
        hat, exact = est.proportion("eve_hits_hop1").p, eve_intercept_exact(11, 1.0, tau)
        z = (hat - exact) / math.sqrt(exact * (1.0 - exact) / est.trials)
        ok &= abs(z) <= 6.0
        details.append(f"tau={tau}: hat={hat:.6f} around {exact:.6f}, z={z:.2f}")
    report(3, ok, "per-eavesdropper hop-1 intercept within 6 sigma of the exact "
                  "binomial-MGF value; " + "; ".join(details))


def test_criterion_04_jensen_gap_direction():
    rng = np.random.default_rng(SEED + 4)
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 200))
        ge = float(rng.uniform(0.05, 5.0))
        tau = float(rng.uniform(1e-3, 3.0))
        exact = eve_intercept_exact(n, ge, tau)
        substituted = (1.0 / (1.0 + ge)) ** expected_jammers(n, tau)
        ok &= exact > substituted
    report(4, ok, "eve_intercept_exact strictly exceeds the expectation-substituted "
                  "secrecy value on a 100-point random grid (the closed-form secrecy "
                  "step is optimistic)")


def test_criterion_05_union_bound():
    details, ok = [], True
    for m in (1, 2, 5):
        cfg = replace(IL11, m=m)
        est = estimate_outage(cfg, manual(1.0), 100_000, SEED + 5)
        p_s1 = est.proportion("s_hop1").p
        p_single = est.proportion("eve_hits_hop1").p
        se_s1 = math.sqrt(p_s1 * (1 - p_s1) / est.trials)
        se_single = math.sqrt(p_single * (1 - p_single) / (est.trials * m))
        slack = 3.0 * math.sqrt(se_s1 ** 2 + (m * se_single) ** 2)
        ok &= p_s1 <= m * p_single + slack
        details.append(f"m={m}: {p_s1:.5f} <= {m * p_single:.5f}+{slack:.5f}")
    report(5, ok, "hop-1 secrecy outage within the union bound m*p_single; "
                  + "; ".join(details))


def test_criterion_06_leg_combining_independent_mode():
    est = estimate_outage(IL11, manual(0.3), 100_000, SEED + 6, legs="independent")
    checks = leg_checks(est)
    ok = all(c.passed for c in checks)
    detail = "; ".join(f"{c.name}: |{c.observed:.5f}-{c.expected:.5f}|<{c.tolerance:.5f}"
                       for c in checks)
    report(6, ok, f"p_e2e matches combine_legs(p1, p2) within pooled 95% CI ({detail})")


def test_criterion_07_binomial_jammer_count():
    details, ok = [], True
    for n, tau in ((11, 0.1), (101, 0.05)):
        cfg = ScenarioConfig(n=n, m=0, gamma_r=1.0, gamma_e=1.0,
                             noise_mode="interference-limited")
        est = estimate_outage(cfg, manual(tau), 100_000, SEED + 7)
        expected = expected_jammers(n, tau)
        gap, tol = abs(est.mean_jammers_hop1 - expected), 3 * est.se_jammers_hop1
        ok &= gap < tol
        details.append(f"(n={n},tau={tau}): |{est.mean_jammers_hop1:.4f}-{expected:.4f}|<{tol:.4f}")
    report(7, ok, "mean hop-1 jammer count within 3 SE of (n-1)(1-e^-tau); "
                  + "; ".join(details))


def test_criterion_08_monotonicity_suite():
    # empirical trends over a tau grid at n=21, CI-width violations allowed
    cfg = ScenarioConfig(n=21, m=1, gamma_r=1.0, gamma_e=1.0,
                         noise_mode="interference-limited")
    taus = np.linspace(0.02, 0.6, 10)
    estimates = [estimate_outage(cfg, manual(float(t)), 20_000, SEED + 80 + i)
                 for i, t in enumerate(taus)]
    ok = True
    for a, b in zip(estimates[:-1], estimates[1:]):
        ta, tb = a.proportion("t_hop1"), b.proportion("t_hop1")
        sa, sb = a.proportion("s_hop1"), b.proportion("s_hop1")
        slack_t = (ta.hi - ta.lo + tb.hi - tb.lo) / 2
        slack_s = (sa.hi - sa.lo + sb.hi - sb.lo) / 2
        ok &= tb.p >= ta.p - slack_t
        ok &= sb.p <= sa.p + slack_s

    # analytic monotonicity holds exactly on randomized grids
    rng = np.random.default_rng(SEED + 8)
    for _ in range(40):
        n = int(rng.integers(3, 150))
        m = int(rng.integers(1, 6))
        gr = float(rng.uniform(0.2, 3.0))
        ge = float(rng.uniform(0.2, 3.0))
        es_ = float(rng.uniform(0.05, 0.9))
        et_ = float(rng.uniform(0.05, 0.9))
        ok &= theorem1_m_max(n + 1, gr, ge, es_).value >= theorem1_m_max(n, gr, ge, es_).value
        ok &= theorem1_m_max(n, gr, ge, min(1.0, es_ + 0.05)).value >= theorem1_m_max(n, gr, ge, es_).value
        ok &= theorem1_m_max(n, gr, ge + 0.1, es_).value >= theorem1_m_max(n, gr, ge, es_).value
        ok &= theorem1_m_max(n, gr + 0.1, ge, es_).value <= theorem1_m_max(n, gr, ge, es_).value
        ok &= theorem3_m_max(n, gr, ge, es_, min(0.99, et_ + 0.05)).value >= theorem3_m_max(n, gr, ge, es_, et_).value

        def tau_min(nn, mm, geg):
            iv = theorem2_tau_range(nn, mm, gr, geg, es_, et_)
            return iv.tau_min
        ok &= tau_min(n, m + 1, ge) >= tau_min(n, m, ge)
        ok &= tau_min(n + 1, m, ge) <= tau_min(n, m, ge)
        ok &= tau_min(n, m, ge + 0.1) <= tau_min(n, m, ge)
        ok &= (theorem2_tau_range(n + 1, m, gr, ge, es_, et_).tau_max
               <= theorem2_tau_range(n, m, gr, ge, es_, et_).tau_max)
        ok &= (theorem2_tau_range(n, m, gr + 0.1, ge, es_, et_).tau_max
               <= theorem2_tau_range(n, m, gr, ge, es_, et_).tau_max)
    report(8, ok, "empirical p_t rises and p_s falls along the tau grid within CI "
                  "slack; every closed-form monotonicity holds exactly on a "
                  "40-point random grid")


def test_criterion_09_load_balance():
    cfg10 = ScenarioConfig(n=10, m=0, gamma_r=1.0, gamma_e=1.0)
    rand_stats = load_balance(cfg10, ProtocolChoice(kind="random-uniform"),
                              100_000, SEED + 9)
    p_random = stats.chisquare(rand_stats.selection_counts).pvalue

    frozen = load_balance(replace(cfg10, coherence_len=100),
                          ProtocolChoice(kind="optimal-maxmin"), 100_000, SEED + 9)
    fresh = load_balance(cfg10, ProtocolChoice(kind="optimal-maxmin"),
                         100_000, SEED + 99)
    p_maxmin = stats.chisquare(fresh.selection_counts).pvalue

    ok = (p_random > 0.01 and frozen.constant_within_epochs
          and frozen.epochs == 1000 and frozen.jain_index >= 0.95
          and p_maxmin > 0.01)
    report(9, ok, f"random selection uniform (chi2 p={p_random:.3f}); max-min is "
                  f"epoch-constant with Jain={frozen.jain_index:.4f} over 1000 epochs "
                  f"and uniform under fresh fading (chi2 p={p_maxmin:.3f})")


def test_criterion_10_parallel_determinism():
    single = estimate_outage(IL11, manual(0.1), 100_000, SEED + 10, workers=1)
    parallel = estimate_outage(IL11, manual(0.1), 100_000, SEED + 10, workers=4)
    bytes_single = dumps(single.as_dict(), indent=2).encode()
    bytes_parallel = dumps(parallel.as_dict(), indent=2).encode()
    ok = (bytes_single == bytes_parallel and single.counts == parallel.counts
          and merge_estimates([parallel]).counts == single.counts)
    report(10, ok, "4-worker run merges to byte-identical serialized output vs the "
                   "single-worker run at 1e5 trials")


def test_criterion_11_out_of_scope_boundary():
    # The max-min protocol's exponent is evaluated verbatim; its provenance
    # (an asymptotic jamming analysis for that protocol) is not re-derived or
    # simulated here, and no scaling-law claim is asserted.
    value = theorem1_m_max(1000, 1.0, 1.0, 0.1).value
    expected = per_leg_budget(0.1) * 2.0 ** math.sqrt(1000 * math.log(1000) / 32.0)
    ok = value == pytest.approx(expected, rel=1e-12)
    report(11, ok, "theorem-1 exponent evaluated as stated; asymptotic scaling-law "
                   "validation is explicitly out of scope")


def test_tolerance_search_matches_mc_oracle():
    """Desk-scale check of the tolerance example: the closed-form floor (3) is
    optimistic; the Monte Carlo oracle puts the true tolerance at 1."""
    cfg = ScenarioConfig(n=101, m=1, gamma_r=1.0, gamma_e=1.0,
                         noise_mode="interference-limited", eps_s=0.3, eps_t=0.3)
    proto = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-max")
    result = tolerance_search(cfg, proto, 0.3, 100_000, m_cap=8, seed=SEED + 12)

    # independent prediction: exact per-leg secrecy outage via the binomial
    # law of the jammer count, combined across legs assuming independence
    tau = theorem2_tau_range(101, 1, 1.0, 1.0, 0.3, 0.3).tau_max
    p = 1 - math.exp(-tau)

    def leg(m):
        return 1 - sum(stats.binom.pmf(k, 100, p) * (1 - 0.5 ** k) ** m
                       for k in range(101))

    predicted = max(m for m in range(1, 9) if combine_legs(leg(m), leg(m)) <= 0.3)
    floor3 = theorem3_m_max(101, 1.0, 1.0, 0.3, 0.3).floor
    ok = result.m_max == predicted == 1 and floor3 == 3
    print(f"TOLERANCE EXAMPLE {'PASS' if ok else 'FAIL'}: empirical m_max="
          f"{result.m_max} matches the exact-oracle prediction {predicted}; the "
          f"closed-form floor {floor3} overshoots (optimistic secrecy step)")
    assert ok
