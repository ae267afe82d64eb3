"""Closed-form bound tests: frozen desk values, identities and monotonicity grids.

Expected values were computed two independent ways before freezing: direct
float evaluation of each formula and a 60-digit Decimal recomputation (they
agree to 13+ digits). Theorem-2 endpoints are additionally cross-checked by
root-finding on their defining equations.
"""

import math

import numpy as np
import pytest
from scipy import optimize, stats

from relaysec import (InfeasibleConfigError, ProtocolChoice, ScenarioConfig,
                      build_bound_report, combine_legs, eve_intercept_exact, expected_jammers,
                      per_leg_budget, reliability_leg_bound, secrecy_leg_bound, theorem1_m_max,
                      theorem2_tau_range, theorem3_m_max, tolerance_search)


class TestPerLegBudget:
    def test_endpoints(self):
        assert per_leg_budget(0.0) == 0.0
        assert per_leg_budget(1.0) == 1.0

    def test_desk_value(self):
        # 1 - sqrt(0.81) = 0.1
        assert per_leg_budget(0.19) == pytest.approx(0.1)

    def test_domain(self):
        with pytest.raises(ValueError):
            per_leg_budget(1.2)


class TestCombineLegs:
    def test_trivial(self):
        assert combine_legs(0.0, 0.0) == 0.0
        assert combine_legs(1.0, 0.37) == 1.0
        assert combine_legs(0.1, 0.2) == pytest.approx(0.28)

    def test_budget_round_trip(self):
        # combine_legs(b, b) = eps for b = per_leg_budget(eps), to machine precision
        for eps in np.linspace(0.0, 1.0, 101):
            b = per_leg_budget(eps)
            assert combine_legs(b, b) == pytest.approx(eps, abs=1e-15)

    def test_symmetric_two_leg_form(self):
        for p in np.linspace(0.0, 1.0, 21):
            assert combine_legs(p, p) == pytest.approx(2 * p - p * p)


class TestExpectedJammers:
    def test_zero_threshold(self):
        assert expected_jammers(11, 0.0) == 0.0

    def test_saturation(self):
        assert expected_jammers(11, 50.0) == pytest.approx(10.0)

    def test_desk_value(self):
        assert expected_jammers(11, 0.1) == pytest.approx(0.9516258196404048, rel=1e-12)


class TestReliabilityLegBound:
    def test_trivial(self):
        assert reliability_leg_bound(11, 1.0, 0.0) == 0.0
        assert reliability_leg_bound(1, 1.0, 2.0) == 0.0

    def test_desk_value(self):
        assert reliability_leg_bound(101, 1.0, 0.05887) == pytest.approx(
            0.28577964239285303, rel=1e-12)


class TestSecrecyLegBound:
    def test_trivial(self):
        assert secrecy_leg_bound(11, 0, 1.0, 1.0) == 0.0
        assert secrecy_leg_bound(11, 3, 1.0, 0.0) == 3.0

    def test_desk_value(self):
        # 2 * 0.5^(10*(1 - e^-1)); direct evaluation gives 0.0250125...
        assert secrecy_leg_bound(11, 2, 1.0, 1.0) == pytest.approx(
            0.02501252322092325, rel=1e-12)

    def test_m1_equals_jensen_form(self):
        for n, ge, tau in [(5, 0.7, 0.2), (30, 2.0, 1.1), (2, 1.0, 0.01)]:
            expected = (1.0 / (1.0 + ge)) ** expected_jammers(n, tau)
            assert secrecy_leg_bound(n, 1, ge, tau) == expected


class TestEveInterceptExact:
    def test_no_jamming_certain_intercept(self):
        assert eve_intercept_exact(11, 1.0, 0.0) == 1.0

    def test_all_relays_jam(self):
        assert eve_intercept_exact(11, 1.0, 60.0) == pytest.approx(0.5 ** 10)

    def test_desk_value(self):
        assert eve_intercept_exact(11, 1.0, 0.1) == pytest.approx(
            0.6141566796135837, rel=1e-12)

    def test_binomial_brute_force(self):
        # oracle: sum_k C(n-1,k) p^k (1-p)^(n-1-k) (1/(1+ge))^k
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 21))
            ge = float(rng.uniform(0.1, 4.0))
            tau = float(rng.uniform(0.0, 2.5))
            p = 1.0 - math.exp(-tau)
            brute = sum(stats.binom.pmf(k, n - 1, p) * (1.0 / (1.0 + ge)) ** k
                        for k in range(n))
            assert eve_intercept_exact(n, ge, tau) == pytest.approx(brute, abs=1e-12)

    def test_jensen_gap_direction(self):
        # exact expectation of a convex function >= function of the expectation
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            ge = float(rng.uniform(0.05, 5.0))
            tau = float(rng.uniform(1e-3, 3.0))
            exact = eve_intercept_exact(n, ge, tau)
            substituted = (1.0 / (1.0 + ge)) ** expected_jammers(n, tau)
            assert exact > substituted


class TestTheorem1:
    def test_zero_budget(self):
        assert theorem1_m_max(100, 1.0, 1.0, 0.0) == (0.0, 0)

    def test_vanishing_gamma_e(self):
        value, floor = theorem1_m_max(100, 1.0, 1e-12, 0.3)
        assert value < 1.0 and floor == 0

    def test_desk_value(self):
        # direct evaluation with natural logs: 0.051316... * 2^14.69242...
        value, floor = theorem1_m_max(1000, 1.0, 1.0, 0.1)
        assert value == pytest.approx(1358.6868498105023, rel=1e-12)
        assert floor == 1358

    def test_unbounded_is_infinite(self):
        # (1 + 1e6)^465 is past the largest float
        for gamma_e in (1e6, math.inf):
            assert theorem1_m_max(1001, 0.001, gamma_e, 0.5) == (math.inf, math.inf)
            assert theorem1_m_max(1001, 0.001, gamma_e, 0.0) == (0.0, 0)


class TestTheorem2:
    def test_tau_min_zero_when_m_equals_budget(self):
        # hypothetical real m equal to the per-leg budget zeroes the inner log
        iv = theorem2_tau_range(11, per_leg_budget(0.19), 1.0, 1.0, 0.19, 0.3)
        assert iv.feasible
        assert iv.tau_min == pytest.approx(0.0, abs=1e-15)

    def test_desk_interval(self):
        iv = theorem2_tau_range(101, 1, 1.0, 1.0, 0.5, 0.5)
        assert iv.feasible
        assert iv.tau_min == pytest.approx(0.017874331346664545, rel=1e-12)
        assert iv.tau_max == pytest.approx(0.05887050112577374, rel=1e-12)

    def test_endpoints_solve_defining_equations(self):
        # independent oracle: root-find the budget equalities
        n, m, gr, ge, eps_s, eps_t = 101, 1, 1.0, 1.0, 0.5, 0.5
        budget = per_leg_budget(eps_s)
        lo = optimize.brentq(
            lambda tau: secrecy_leg_bound(n, m, ge, tau) - budget, 1e-12, 5.0,
            xtol=1e-15)
        hi = optimize.brentq(
            lambda tau: 2 * gr * (n - 1) * tau * tau + math.log(1 - eps_t), 1e-12,
            5.0, xtol=1e-15)
        iv = theorem2_tau_range(n, m, gr, ge, eps_s, eps_t)
        assert iv.tau_min == pytest.approx(lo, rel=1e-9)
        assert iv.tau_max == pytest.approx(hi, rel=1e-9)

    def test_infeasible_m_too_large(self):
        # bracket = 1 + ln(0.0513/10)/ln 2 < 0
        iv = theorem2_tau_range(2, 10, 1.0, 1.0, 0.1, 0.5)
        assert not iv.feasible
        assert "suppress" in iv.reason
        assert math.isinf(iv.tau_min)

    def test_infeasible_crossed_endpoints(self):
        iv = theorem2_tau_range(101, 5, 1.0, 1.0, 0.5, 0.001)
        assert not iv.feasible
        assert iv.tau_min > iv.tau_max
        assert "exceeds" in iv.reason

    def test_no_eavesdroppers(self):
        iv = theorem2_tau_range(11, 0, 1.0, 1.0, 0.3, 0.3)
        assert iv.feasible and iv.tau_min == 0.0

    def test_single_relay(self):
        assert not theorem2_tau_range(1, 1, 1.0, 1.0, 0.3, 0.3).feasible
        assert theorem2_tau_range(1, 0, 1.0, 1.0, 0.3, 0.3).feasible


class TestTheorem3:
    def test_single_relay_floor_zero(self):
        value, floor = theorem3_m_max(1, 1.0, 1.0, 0.3, 0.3)
        assert value == pytest.approx(per_leg_budget(0.3))
        assert floor == 0

    def test_zero_eps_t(self):
        value, floor = theorem3_m_max(101, 1.0, 1.0, 0.3, 0.0)
        assert value == pytest.approx(per_leg_budget(0.3))
        assert floor == 0

    def test_desk_value(self):
        value, floor = theorem3_m_max(101, 1.0, 1.0, 0.3, 0.3)
        assert value == pytest.approx(3.050301729384606, rel=1e-12)
        assert floor == 3

    def test_eps_t_one_rejected(self):
        with pytest.raises(ValueError):
            theorem3_m_max(101, 1.0, 1.0, 0.3, 1.0)

    def test_unbounded_is_infinite(self):
        for gamma_e in (1e6, math.inf):
            assert theorem3_m_max(1001, 0.001, gamma_e, 0.5, 0.5) == (math.inf, math.inf)
            assert theorem3_m_max(1001, 0.001, gamma_e, 0.0, 0.5) == (0.0, 0)


class TestMonotonicity:
    """Grid checks of every analytic monotonicity property.

    Infeasible theorem-2 intervals are treated as tau_min = +inf, the
    monotone continuation of the formula.
    """

    BASES = [(11, 2, 1.0, 1.0, 0.3, 0.3), (51, 1, 0.5, 2.0, 0.1, 0.4),
             (101, 4, 2.0, 0.7, 0.6, 0.2), (21, 3, 1.5, 1.5, 0.25, 0.5)]

    @pytest.mark.parametrize("theorem", [
        lambda n, gr, ge, es_, et_: theorem1_m_max(n, gr, ge, es_).value,
        lambda n, gr, ge, es_, et_: theorem3_m_max(n, gr, ge, es_, et_).value,
    ], ids=["theorem1", "theorem3"])
    def test_m_max_directions(self, theorem):
        for n, _, gr, ge, es_, et_ in self.BASES:
            base = theorem(n, gr, ge, es_, et_)
            assert theorem(n + 1, gr, ge, es_, et_) >= base
            assert theorem(n, gr, ge, min(1.0, es_ + 0.05), et_) >= base
            assert theorem(n, gr, ge + 0.2, es_, et_) >= base
            assert theorem(n, gr + 0.2, ge, es_, et_) <= base

    def test_theorem3_in_eps_t(self):
        for n, _, gr, ge, es_, et_ in self.BASES:
            assert (theorem3_m_max(n, gr, ge, es_, et_ + 0.05).value
                    >= theorem3_m_max(n, gr, ge, es_, et_).value)

    @staticmethod
    def _tau_min(n, m, gr, ge, es_, et_):
        iv = theorem2_tau_range(n, m, gr, ge, es_, et_)
        return iv.tau_min if iv.feasible or not math.isinf(iv.tau_min) else math.inf

    def test_theorem2_tau_min_directions(self):
        for n, m, gr, ge, es_, et_ in self.BASES:
            base = self._tau_min(n, m, gr, ge, es_, et_)
            assert self._tau_min(n, m + 1, gr, ge, es_, et_) >= base
            assert self._tau_min(n + 1, m, gr, ge, es_, et_) <= base
            assert self._tau_min(n, m, gr, ge + 0.2, es_, et_) <= base

    def test_theorem2_tau_max_directions(self):
        for n, m, gr, ge, es_, et_ in self.BASES:
            base = theorem2_tau_range(n, m, gr, ge, es_, et_).tau_max
            assert theorem2_tau_range(n + 1, m, gr, ge, es_, et_).tau_max <= base
            assert theorem2_tau_range(n, m, gr + 0.2, ge, es_, et_).tau_max <= base


class TestBoundReport:
    def test_fields_consistent(self):
        rep = build_bound_report(101, 1, 1.0, 1.0, 0.5, 0.5)
        assert rep.m_max_theorem1 == theorem1_m_max(101, 1.0, 1.0, 0.5)
        assert rep.m_max_theorem3 == theorem3_m_max(101, 1.0, 1.0, 0.5, 0.5)
        assert rep.tau_used == rep.tau_interval.tau_max
        assert rep.expected_jammers == expected_jammers(101, rep.tau_used)
        assert rep.per_leg_budget_s == per_leg_budget(0.5)
        assert not rep.secrecy_leg_vacuous

    def test_explicit_tau_evaluation_point(self):
        rep = build_bound_report(11, 2, 1.0, 1.0, 0.3, 0.3, tau=0.0)
        assert rep.tau_used == 0.0
        assert rep.secrecy_leg == 2.0
        assert rep.secrecy_leg_vacuous

    def test_probabilities_in_unit_interval(self):
        rep = build_bound_report(51, 2, 1.0, 1.0, 0.4, 0.4)
        for p in (rep.per_leg_budget_s, rep.per_leg_budget_t, rep.reliability_leg):
            assert 0.0 <= p <= 1.0
        assert rep.tau_interval.tau_min <= rep.tau_interval.tau_max

    def test_as_dict_round_trips_fields(self):
        rep = build_bound_report(31, 2, 1.0, 1.0, 0.2, 0.2)
        d = rep.as_dict()
        assert d["m_max_t3_floor"] == rep.m_max_theorem3.floor
        assert d["feasible"] == rep.tau_interval.feasible


class TestInfeasibleError:
    def test_is_value_error(self):
        assert issubclass(InfeasibleConfigError, ValueError)


NAN = float("nan")

# valid positional arguments of every checked entry point
VALID_ARGS = {
    ScenarioConfig: (11, 1, 1.0, 1.0, 1.0, 1.0, "exact", 1, 0.3, 0.3),
    ProtocolChoice: ("random-uniform", "manual", 0.1),
    tolerance_search: (ScenarioConfig(11, 1, 1.0, 1.0),
                       ProtocolChoice(tau_policy="manual", tau=0.1), 0.3, 50, 1, 1),
    per_leg_budget: (0.3,),
    combine_legs: (0.1, 0.2),
    expected_jammers: (11, 0.1),
    reliability_leg_bound: (11, 1.0, 0.1),
    secrecy_leg_bound: (11, 1, 1.0, 0.1),
    eve_intercept_exact: (11, 1.0, 0.1),
    theorem1_m_max: (11, 1.0, 1.0, 0.3),
    theorem2_tau_range: (11, 1, 1.0, 1.0, 0.3, 0.3),
    theorem3_m_max: (11, 1.0, 1.0, 0.3, 0.3),
    build_bound_report: (11, 1, 1.0, 1.0, 0.3, 0.3, 0.1),
}
# NaN goes into every float field of ScenarioConfig, the manual tau, the
# tolerance budget and every argument of the closed forms
NAN_AT = {ScenarioConfig: (2, 3, 4, 5, 8, 9), ProtocolChoice: (2,), tolerance_search: (2,)}
REFUSED = [*((f, i, NAN) for f, args in VALID_ARGS.items()
             for i in NAN_AT.get(f, range(len(args)))),
           (ScenarioConfig, 0, 11.5), (ScenarioConfig, 0, True)]


@pytest.mark.parametrize("func, index, bad", REFUSED,
                         ids=[f"{f.__name__}-{i}-{bad}" for f, i, bad in REFUSED])
def test_invalid_input_refused(func, index, bad):
    args = list(VALID_ARGS[func])
    func(*args)
    args[index] = bad
    with pytest.raises(ValueError):
        func(*args)
