"""The benchmark's exact references against independent computations."""

import math

import pytest
from scipy import integrate, stats

import oracles
from oracles import Scenario
from relaysec import bounds
from workloads import ToleranceWorkload


@pytest.mark.parametrize("n,tau,gamma_e", [(11, 0.1, 1.0), (101, 0.534, 0.1), (1001, 0.026, 0.15)])
def test_single_eavesdropper_matches_library_oracle(n, tau, gamma_e):
    s = Scenario(n=n, tau=tau, gamma_r=1.0, gamma_e=gamma_e, interference_limited=True)
    assert math.isclose(oracles.p_s_hop(s, 1), bounds.eve_intercept_exact(n, gamma_e, tau),
                        rel_tol=1e-9)


@pytest.mark.parametrize("il", [False, True])
@pytest.mark.parametrize("n,m,tau", [(11, 8, 0.263), (101, 40, 0.534), (1001, 8, 0.026)])
def test_secrecy_matches_scipy_binomial_sum(n, m, tau, il):
    s = Scenario(n=n, tau=tau, gamma_r=0.5, gamma_e=0.15, es=5.0, interference_limited=il)
    c = 0.0 if il else 0.15 / (2 * 5.0)
    p = 1 - math.exp(-tau)
    ks = range(n)
    want = 1 - sum(stats.binom.pmf(k, n - 1, p) * (1 - math.exp(-c) * 1.15 ** -k) ** m
                   for k in ks)
    assert math.isclose(oracles.p_s_hop(s, m), want, rel_tol=1e-10)


@pytest.mark.parametrize("il", [False, True])
def test_transmission_matches_scipy_binomial_sum(il):
    # condition on the jammer count K; each jammer's gain is Exp(1) truncated
    # below tau, so its MGF factor is E[e^{-g X} | X < tau]
    n, tau, g, es = 11, 0.263, 0.5, 5.0
    s = Scenario(n=n, tau=tau, gamma_r=g, gamma_e=4.0, es=es, interference_limited=il)
    p = 1 - math.exp(-tau)
    trunc = integrate.quad(lambda x: math.exp(-g * x) * math.exp(-x), 0, tau)[0] / p
    c = 0.0 if il else g / (2 * es)
    want = 1 - math.exp(-c) * sum(stats.binom.pmf(k, n - 1, p) * trunc ** k for k in range(n))
    assert math.isclose(oracles.p_t_hop(s), want, rel_tol=1e-9)


def test_binom_pmf_matches_scipy():
    got = oracles.binom_pmf(1000, 0.026)
    want = stats.binom.pmf(range(1001), 1000, 0.026)
    assert all(math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-300) for a, b in zip(got, want))


def test_tolerance_workload_has_a_fixed_probe_path():
    w = ToleranceWorkload
    s = Scenario(n=w.N, tau=w.TAU, gamma_r=w.GAMMA_R, gamma_e=w.GAMMA_E, interference_limited=True)
    m = oracles.exact_tolerance(s, w.EPS_S, w.M_CAP)
    assert oracles.p_s_e2e_independent(s, m) <= w.EPS_S < oracles.p_s_e2e_independent(s, m + 1)
    exact = [0.0] + [oracles.p_s_e2e_independent(s, k) for k in range(1, w.M_CAP + 1)]
    lo, hi = oracles.tolerance_window(exact, w.EPS_S, w.TRIALS)
    assert lo <= m <= hi
    # the doubling phase passes 32 and fails 64 unless an estimate is 4 sigma
    # off, so nearly every query makes the same 12 probes
    sig32, sig64 = (oracles.binomial_sigma(exact[k], w.TRIALS) for k in (32, 64))
    assert oracles.wilson(exact[32] + 4 * sig32, w.TRIALS)[1] <= w.EPS_S
    assert oracles.wilson(exact[64] - 4 * sig64, w.TRIALS)[1] > w.EPS_S


@pytest.mark.parametrize("n", [21, 101])
def test_theorem_formulas_match_library(n):
    args = (n, 1.0, 2.0, 0.5)
    assert math.isclose(oracles.theorem1_m_max(*args), bounds.theorem1_m_max(*args).value,
                        rel_tol=1e-9)
    assert math.isclose(oracles.theorem3_m_max(*args, 0.5),
                        bounds.theorem3_m_max(*args, 0.5).value, rel_tol=1e-12)
    iv = bounds.theorem2_tau_range(n, 4, 1.0, 2.0, 0.5, 0.5)
    tau_min, tau_max = oracles.theorem2_window(n, 4, 1.0, 2.0, 0.5, 0.5)
    assert math.isclose(tau_min, iv.tau_min, rel_tol=1e-12)
    assert math.isclose(tau_max, iv.tau_max, rel_tol=1e-12)


def test_gate_rejects_a_wrong_value():
    assert oracles.within_gate(5000, 10_000, 0.5)
    assert not oracles.within_gate(5000, 10_000, 0.55)
