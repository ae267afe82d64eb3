"""Monte Carlo engine tests: estimates vs exact oracles, merging, search, load balance."""

import math
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from relaysec import (ProtocolChoice, ScenarioConfig, estimate_outage,
                      eve_intercept_exact, expected_jammers, jain_index,
                      load_balance, merge_estimates, selection_entropy,
                      tolerance_search, wilson_interval)
from relaysec import channel, montecarlo, protocols
from relaysec.channel import trial_words
from relaysec.montecarlo import LEG_MODES, _blocks, _first_interceptors, _run_trials
from relaysec.protocols import PROTOCOL_KINDS
from relaysec.serialize import dumps

from .test_intercept_law import exact_shared_secrecy

IL = ScenarioConfig(n=11, m=1, gamma_r=1.0, gamma_e=1.0,
                    noise_mode="interference-limited")
RANDOM_TAU01 = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.1)


def run_trials(*args):
    """`_run_trials`' counts and each trial's first hit, as values that compare with ==."""
    return _run_trials(*args), _first_interceptors(*args).tolist()


class TestWilsonInterval:
    @pytest.mark.parametrize("k,n", [(0, 100), (1, 100), (50, 100), (100, 100),
                                     (3, 17), (999, 1000)])
    def test_matches_scipy(self, k, n):
        lo, hi = wilson_interval(k, n)
        ci = stats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ci.low, abs=1e-10)
        assert hi == pytest.approx(ci.high, abs=1e-10)

    def test_contains_point_estimate(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (7, 1000)]:
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi


class TestHugeEs:
    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_counts_match_a_smaller_huge_es(self, kind):
        # at Es = 1e308, Es g and Es I overflow and inf/inf = NaN would count
        # as an outage; g / (I + N0/2 / Es) decodes as at Es = 1e300
        cfg = ScenarioConfig(n=40, m=2, gamma_r=0.5, gamma_e=1.0)
        proto = ProtocolChoice(kind=kind, tau_policy="manual", tau=1.0)
        got = run_trials(replace(cfg, es=1e308), proto.kind, proto.tau, 0, 2000, 5, "shared")
        assert got == run_trials(replace(cfg, es=1e300), proto.kind, proto.tau, 0, 2000, 5,
                                 "shared")


class TestEstimateOutage:
    def test_no_eavesdroppers_zero_secrecy_outage(self):
        cfg = replace(IL, m=0)
        est = estimate_outage(cfg, RANDOM_TAU01, 500, 3)
        assert est.proportion("s_e2e").p == 0.0
        assert est.proportion("eve_hits_hop1") is None

    def test_tiny_gamma_r_never_transmission_outage(self):
        cfg = ScenarioConfig(n=5, m=0, gamma_r=1e-12, gamma_e=1.0)
        est = estimate_outage(cfg, RANDOM_TAU01, 2000, 3)
        assert est.proportion("t_e2e").p == 0.0

    def test_eve_proportion_is_per_trial(self):
        # the share of trials whose first eavesdropper intercepts hop 1, at any m
        est = estimate_outage(replace(IL, m=8), RANDOM_TAU01, 3000, 11)
        k = est.counts["eve_hits_hop1"]
        assert est.proportion("eve_hits_hop1") == (k / 3000, *wilson_interval(k, 3000))
        assert k == estimate_outage(IL, RANDOM_TAU01, 3000, 11).counts["eve_hits_hop1"]

    def test_eve_intercept_matches_exact_oracle(self):
        est = estimate_outage(IL, RANDOM_TAU01, 20_000, 11)
        prop = est.proportion("eve_hits_hop1")
        assert prop.lo <= eve_intercept_exact(11, 1.0, 0.1) <= prop.hi

    def test_mean_jammers_matches_binomial(self):
        est = estimate_outage(IL, RANDOM_TAU01, 20_000, 12)
        expected = expected_jammers(11, 0.1)
        assert abs(est.mean_jammers_hop1 - expected) < 3 * est.se_jammers_hop1

    def test_or_relation_exact_per_counts(self):
        est = estimate_outage(IL, RANDOM_TAU01, 5000, 13)
        c = est.counts
        # inclusion-exclusion must hold exactly for pooled indicator counts
        assert c["t_e2e"] == c["t_hop1"] + c["t_hop2"] - c["t_both"]
        assert c["s_e2e"] == c["s_hop1"] + c["s_hop2"] - c["s_both"]

    def test_estimates_in_unit_interval_with_ci(self):
        est = estimate_outage(IL, RANDOM_TAU01, 3000, 14)
        for key in montecarlo.PROPORTIONS.values():
            prop = est.proportion(key)
            assert 0.0 <= prop.lo <= prop.p <= prop.hi <= 1.0

    def test_infeasible_policy_raised_before_trials(self):
        cfg = ScenarioConfig(n=2, m=10, gamma_r=1.0, gamma_e=1.0, eps_s=0.1, eps_t=0.5)
        proto = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-max")
        from relaysec import InfeasibleConfigError
        with pytest.raises(InfeasibleConfigError):
            estimate_outage(cfg, proto, 10, 0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate_outage(IL, RANDOM_TAU01, 10, 0, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            tolerance_search(IL, RANDOM_TAU01, 0.5, 10, m_cap=2, seed=0, workers=workers)

    @pytest.mark.parametrize("trial_start", [-5, 1.5, True, 2 ** 63 - 9])
    def test_bad_trial_start_rejected(self, trial_start):
        # an integer >= 0 whose range of 10 trials ends at 2**63 at most
        for workers in (1, 2):
            with pytest.raises(ValueError, match="trial_start"):
                estimate_outage(IL, RANDOM_TAU01, 10, 0, workers=workers,
                                trial_start=trial_start)

    @pytest.mark.parametrize("seed", [1.5, "7", None, True], ids=["float", "str", "none", "bool"])
    def test_seed_not_an_integer_rejected(self, monkeypatch, seed):
        # refused up front, not deep in a worker's draw, and a bool is not seed 1
        def no_pool(workers, trials):
            raise AssertionError("a pool started for a bad seed")

        monkeypatch.setattr(montecarlo, "_pool", no_pool)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="seed must be an integer"):
                estimate_outage(IL, RANDOM_TAU01, 10, seed, workers=workers)
            with pytest.raises(ValueError, match="seed must be an integer"):
                tolerance_search(IL, RANDOM_TAU01, 0.5, 10, m_cap=2, seed=seed, workers=workers)
        with pytest.raises(ValueError, match="seed must be an integer"):
            load_balance(IL, RANDOM_TAU01, 10, seed)

    def test_seed_read_mod_2_64(self):
        # negative seeds, seeds past 2**64 and numpy integers name the stream of seed mod 2**64
        want = estimate_outage(IL, RANDOM_TAU01, 300, 2 ** 64 - 3).counts
        for seed in (-3, 2 ** 65 - 3, np.int64(-3), np.uint64(2 ** 64 - 3)):
            assert estimate_outage(IL, RANDOM_TAU01, 300, seed).counts == want
        lb = load_balance(IL, RANDOM_TAU01, 300, -3).selection_counts
        assert load_balance(IL, RANDOM_TAU01, 300, 2 ** 64 - 3).selection_counts == lb

    def test_identical_for_any_seeded_rerun(self):
        a = estimate_outage(IL, RANDOM_TAU01, 2000, 21)
        b = estimate_outage(IL, RANDOM_TAU01, 2000, 21)
        assert a.counts == b.counts
        assert dumps(a.as_dict()) == dumps(b.as_dict())

    def test_transmission_outage_monotone_in_gamma_r(self):
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.3)
        lenient = estimate_outage(replace(IL, gamma_r=0.5), proto, 8000, 15)
        strict = estimate_outage(replace(IL, gamma_r=2.0), proto, 8000, 15)
        assert strict.proportion("t_e2e").p > lenient.proportion("t_e2e").p

    def test_hop_correlation_reported(self):
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.3)
        shared = estimate_outage(IL, proto, 20_000, 16, legs="shared")
        indep = estimate_outage(IL, proto, 20_000, 16, legs="independent")
        # independent leg channels decorrelate the hop outage indicators;
        # shared-channel correlation is measured rather than assumed away
        assert abs(indep.hop_correlation("t")) < 0.03
        assert abs(indep.hop_correlation("s")) < 0.03
        assert shared.hop_correlation("s") is not None
        assert "corr_s_hops" in shared.as_dict()


class TestRandomSelectionClosedForm:
    """Random selection's transmission outages against their closed forms, at 6 sigma.

    With p = 1 - e^-tau, phi = (1 - e^-(1 + gamma_r) tau) / ((1 + gamma_r) p)
    and nu_r = e^(-gamma_r N0/2 / Es) (1 when interference-limited), a hop
    decodes with probability nu_r (1 - p + p phi)^(n - 1): each of the n - 1
    other relays adds its gain g to the interference iff g < tau, so
    E[e^(-gamma_r g 1{g < tau})] = 1 - p + p phi. Random selection reads no
    word of one hop on the other, so in both leg modes the hops fail
    independently: t_e2e = 1 - (1 - P_t)^2 and t_both = P_t^2.
    """

    TRIALS = 200_000

    @staticmethod
    def hop_outage(config, tau):
        p = -math.expm1(-tau)
        gr = config.gamma_r
        phi = -math.expm1(-(1.0 + gr) * tau) / ((1.0 + gr) * p)
        nu_r = math.exp(-gr * config.noise_term / config.es)
        return 1.0 - nu_r * (1.0 - p + p * phi) ** (config.n - 1)

    @pytest.mark.parametrize("n, noise_mode, legs", [
        (2, "exact", "shared"), (11, "exact", "independent"),
        (11, "interference-limited", "shared"), (30, "exact", "shared"),
        (30, "interference-limited", "independent")])
    def test_transmission_outage_matches_closed_form(self, n, noise_mode, legs):
        cfg = ScenarioConfig(n=n, m=0, gamma_r=0.5, gamma_e=1.0, noise_mode=noise_mode)
        tau = 0.3
        counts = _run_trials(cfg, "random-uniform", tau, 0, self.TRIALS, 77, legs)
        hop = self.hop_outage(cfg, tau)
        exact = {"t_hop1": hop, "t_hop2": hop, "t_e2e": 1.0 - (1.0 - hop) ** 2,
                 "t_both": hop * hop}
        z = {key: (counts[key] - self.TRIALS * p) / math.sqrt(self.TRIALS * p * (1.0 - p))
             for key, p in exact.items()}
        assert all(abs(v) < 6.0 for v in z.values()), z


class TestCountRowsLaw:
    """Count rows against the law they stand for, at 6 sigma.

    At n = 101 and tau = 0.0616 (cap 30) or 0.1 (cap 38) a run draws count
    rows. Random selection's counts meet the closed forms; max-min's meet
    per-relay rows forced at the same n (two-sample). With no margin over the
    mean, cap = ceil((n - 1) p) and about half the counts pass it, so the
    overflow key's words keep the same law.
    """

    KEYS = ("t_hop1", "t_hop2", "t_e2e", "t_both", "s_hop1", "s_hop2", "s_e2e", "s_both",
            "eve_hits_hop1")

    @staticmethod
    def jammer_z(counts, trials, mean):
        """z of the mean hop-1 jammer count against `mean`, from the run's own variance."""
        s, ss = counts["jam1_sum"], counts["jam1_sumsq"]
        var = (ss - s * s / trials) / (trials - 1)
        return (s / trials - mean) / math.sqrt(var / trials)

    @pytest.mark.parametrize("forced_cap", [False, True])
    @pytest.mark.parametrize("noise_mode, legs", [("exact", "shared"),
                                                  ("interference-limited", "independent")])
    def test_random_selection_meets_closed_forms(self, request, forced_cap, noise_mode, legs):
        if forced_cap:
            request.getfixturevalue("small_cap")
        n, m, tau, trials = 101, 8, 0.1, 100_000
        cfg = ScenarioConfig(n=n, m=m, gamma_r=0.5, gamma_e=1.0, noise_mode=noise_mode)
        assert channel.count_cap(n, tau) == (10 if forced_cap else 38)
        counts = _run_trials(cfg, "random-uniform", tau, 0, trials, 88, legs)
        hop = TestRandomSelectionClosedForm.hop_outage(cfg, tau)
        exact = {"t_hop1": hop, "t_hop2": hop, "t_e2e": 1.0 - (1.0 - hop) ** 2,
                 "t_both": hop * hop}
        nu = math.exp(-cfg.gamma_e * cfg.noise_term / cfg.es)
        s1, s2, s_e2e, s_both = exact_shared_secrecy(n, m, tau, cfg.gamma_e, nu)
        exact.update(s_hop1=s1, s_hop2=s2)
        if legs == "shared":
            exact.update(s_e2e=s_e2e, s_both=s_both)
        else:
            exact.update(s_e2e=1.0 - (1.0 - s1) * (1.0 - s2), s_both=s1 * s2)
        z = {key: (counts[key] - trials * p) / math.sqrt(trials * p * (1.0 - p))
             for key, p in exact.items()}
        z["jam1"] = self.jammer_z(counts, trials, (n - 1) * -math.expm1(-tau))
        assert all(abs(v) < 6.0 for v in z.values()), z

    @pytest.mark.parametrize("forced_cap", [False, True])
    @pytest.mark.parametrize("legs", LEG_MODES)
    def test_maxmin_meets_per_relay_rows(self, monkeypatch, request, forced_cap, legs):
        n, tau, trials = 101, 0.0616, 40_000
        cfg = ScenarioConfig(n=n, m=8, gamma_r=0.5, gamma_e=1.0)
        with monkeypatch.context() as patch:
            patch.setattr(channel, "_COUNT_ROWS_FROM", math.inf)
            assert channel.count_cap(n, tau) is None
            per_relay = _run_trials(cfg, "optimal-maxmin", tau, 0, trials, 91, legs)
        if forced_cap:
            request.getfixturevalue("small_cap")
        assert channel.count_cap(n, tau) == (6 if forced_cap else 30)
        counted = _run_trials(cfg, "optimal-maxmin", tau, 0, trials, 92, legs)
        wrong = []
        for key in self.KEYS:
            p = (per_relay[key] + counted[key]) / (2 * trials)
            sigma = math.sqrt(p * (1.0 - p) * 2.0 / trials)
            if sigma and abs(per_relay[key] - counted[key]) / trials > 6.0 * sigma:
                wrong.append((key, per_relay[key], counted[key]))
        mean = per_relay["jam1_sum"] / trials
        assert wrong == [] and abs(self.jammer_z(counted, trials, mean)) < 6.0 * math.sqrt(2.0)

    @pytest.mark.parametrize("legs", LEG_MODES)
    def test_maxmin_head_meets_per_relay_rows_at_n1001(self, monkeypatch, legs):
        # at n = 1001 and tau = 0.0415 (cap 96) count rows draw max-min's relay
        # from the law of the maximum and, with shared legs, hop 2's jammers
        # given M; gamma_r = 3 puts the SINRs, and so both hops' interference,
        # near the threshold
        n, tau, trials = 1001, 0.0415, 60_000
        cfg = ScenarioConfig(n=n, m=8, gamma_r=3.0, gamma_e=0.15)
        with monkeypatch.context() as patch:
            patch.setattr(channel, "_COUNT_ROWS_FROM", math.inf)
            assert channel.count_cap(n, tau) is None
            per_relay = _run_trials(cfg, "optimal-maxmin", tau, 0, trials, 95, legs)
        assert channel.count_cap(n, tau) == 96
        counted = _run_trials(cfg, "optimal-maxmin", tau, 0, trials, 96, legs)
        z = {}
        for key in self.KEYS:
            p = (per_relay[key] + counted[key]) / (2 * trials)
            sigma = math.sqrt(p * (1.0 - p) * 2.0 / trials)
            z[key] = (per_relay[key] - counted[key]) / trials / sigma
        assert all(0.0 < per_relay[key] < trials for key in self.KEYS if key != "t_both") and \
            all(abs(v) < 6.0 for v in z.values()), (z, per_relay, counted)
        mean = per_relay["jam1_sum"] / trials
        assert abs(self.jammer_z(counted, trials, mean)) < 6.0 * math.sqrt(2.0)

    def test_maxmin_hop2_count_meets_per_relay_rows(self, monkeypatch):
        # with shared legs a relay other than max-min's jams hop 2 with q(M) > p:
        # at n = 41 and tau = 0.25 K2's mean is about 0.2 over (n - 1) p = 8.85,
        # some 14 standard errors of the two-sample gap at 60,000 trials a side.
        # Count rows are forced with a 3 sigma margin (cap 19), and the
        # smallest M the stream gives, 0.262, is still above tau
        n, tau, trials = 41, 0.25, 60_000
        cfg = ScenarioConfig(n=n, m=8, gamma_r=0.5, gamma_e=1.0)
        assert -0.5 * math.log(-math.expm1(math.log(2.0 ** -53) / n)) > tau

        def hop2_count_moments():
            k2 = np.concatenate([r.jammers[:, 1] for r in
                                 _blocks(cfg, "optimal-maxmin", tau, 0, trials, 97, "shared")])
            return k2.mean(), k2.var(ddof=1) / trials

        monkeypatch.setattr(channel, "_COUNT_ROWS_FROM", math.inf)
        assert channel.count_cap(n, tau) is None
        per_relay = hop2_count_moments()
        monkeypatch.setattr(channel, "_COUNT_ROWS_FROM", n)
        monkeypatch.setattr(channel, "_CAP_SIGMAS", 3)
        monkeypatch.setattr(channel, "_CAP_PAD", 2)
        assert channel.count_cap(n, tau) == 19
        counted = hop2_count_moments()
        z = (counted[0] - per_relay[0]) / math.sqrt(per_relay[1] + counted[1])
        assert abs(z) < 6.0 and per_relay[0] - (n - 1) * -math.expm1(-tau) > 0.1, \
            (z, per_relay, counted)

    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_counts_past_cap_split_across_workers(self, small_cap, kind):
        cfg = ScenarioConfig(n=101, m=8, gamma_r=0.5, gamma_e=1.0)
        proto = ProtocolChoice(kind=kind, tau_policy="manual", tau=0.1)
        one, four = (estimate_outage(cfg, proto, 2000, 93, workers=w) for w in (1, 4))
        assert one.counts == four.counts


class TestLargeN:
    @pytest.mark.parametrize("kind, legs", [("random-uniform", "shared"),
                                            ("optimal-maxmin", "independent")])
    def test_large_n_runs_in_bounded_memory(self, kind, legs):
        # at n = 10**6 and tau = 0.1 a counted hop would read cap = 97,516
        # words from a (cap + 1)^2 table of about 150 GB; past cap 512 a run
        # reads per-relay rows instead, here one trial (2n + 4 or 4n + 2 words) a block
        n, tau = 10 ** 6, 0.1
        assert channel.count_cap(n, tau) is None
        cfg = ScenarioConfig(n=n, m=8, gamma_r=0.5, gamma_e=1.0)
        proto = ProtocolChoice(kind=kind, tau_policy="manual", tau=tau)
        want = estimate_outage(cfg, proto, 1, 94, legs=legs)  # builds the law's tables
        tracemalloc.start()
        try:
            got = estimate_outage(cfg, proto, 1, 94, legs=legs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.counts == want.counts and 90_000 < got.counts["jam1_sum"] < 100_000
        assert peak < 100 << 20


class TestCommonRandomNumbers:
    """Runs that differ in no word-layout input read the same words, so their counts
    compare trial by trial: no statistical gate is needed."""

    LEGITIMATE = ("t_hop1", "t_hop2", "t_e2e", "t_both", "jam1_sum", "jam1_sumsq")

    @pytest.mark.parametrize("noise_mode", ["exact", "interference-limited"])
    @pytest.mark.parametrize("n", [1, 2, 11, 101])
    def test_random_selection_legs_change_no_legitimate_word(self, n, noise_mode):
        # random selection reads r_d only on hop 2, so the leg mode changes
        # no legitimate word; it changes the joint intercept law, C, which
        # the first-hit draw of both hops reads
        cfg = ScenarioConfig(n=n, m=4, gamma_r=0.5, gamma_e=0.5, noise_mode=noise_mode)
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.2)
        shared, indep = (_run_trials(cfg, proto.kind, proto.tau, 0, 3000, 404, legs)
                         for legs in LEG_MODES)
        assert {k: shared[k] for k in self.LEGITIMATE} == {k: indep[k] for k in self.LEGITIMATE}

    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    @pytest.mark.parametrize("legs", LEG_MODES)
    @pytest.mark.parametrize("n", [2, 11, 101])
    def test_counts_monotone_along_gamma_grids(self, kind, legs, n):
        # a larger gamma_e shrinks each eavesdropper's decoding cells, so no
        # secrecy count rises; a larger gamma_r raises every receiver's bar,
        # so no transmission count falls; neither moves the other's counts
        proto = ProtocolChoice(kind=kind, tau_policy="manual", tau=0.1)
        base = ScenarioConfig(n=n, m=3, gamma_r=1.0, gamma_e=1.0)

        def counts(**change):
            return _run_trials(replace(base, **change), proto.kind, proto.tau, 0, 2000, 505,
                               legs)

        t_keys = ("t_hop1", "t_hop2", "t_e2e", "t_both")
        by_e = [counts(gamma_e=g) for g in (0.05, 0.2, 0.5, 1.0, 3.0, math.inf)]
        for lo, hi in zip(by_e, by_e[1:]):
            assert all(hi[k] <= lo[k] for k in ("s_hop1", "s_e2e", "eve_hits_hop1"))
            assert all(hi[k] == lo[k] for k in t_keys)
        by_r = [counts(gamma_r=g) for g in (0.05, 0.2, 0.5, 1.0, 3.0, 10.0)]
        for lo, hi in zip(by_r, by_r[1:]):
            assert all(hi[k] >= lo[k] for k in t_keys)
            assert all(hi[k] == lo[k] for k in protocols.COUNT_KEYS if k not in t_keys)


class TestCountsAlongM:
    """A trial's words do not depend on m: on one seed, runs at m = 0..64 see the
    same legitimate outcomes and the same first hits, so no gate is needed."""

    SECRECY = ("s_hop1", "s_hop2", "s_e2e", "s_both")

    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    @pytest.mark.parametrize("legs", LEG_MODES)
    def test_secrecy_counts_never_fall_as_m_rises(self, kind, legs):
        cfg = ScenarioConfig(n=11, m=0, gamma_r=1.0, gamma_e=1.0)
        counts = [_run_trials(replace(cfg, m=m), kind, 0.3, 0, 500, 606, legs)
                  for m in range(65)]
        for lo, hi in zip(counts, counts[1:]):
            assert all(hi[k] >= lo[k] for k in self.SECRECY)
        assert counts[-1]["s_e2e"] > counts[1]["s_e2e"] > 0  # the curve moves
        others = [k for k in protocols.COUNT_KEYS if k not in self.SECRECY + ("eve_hits_hop1",)]
        assert all({k: c[k] for k in others} == {k: counts[0][k] for k in others}
                   for c in counts)
        # the first eavesdropper is the same one at every m >= 1, and there is none at m = 0
        assert counts[0]["eve_hits_hop1"] == 0
        assert len({c["eve_hits_hop1"] for c in counts[1:]}) == 1
        # the first hits at m = 64 hold the s_e2e count of every m
        hits = _first_interceptors(replace(cfg, m=64), kind, 0.3, 0, 500, 606, legs)
        assert [c["s_e2e"] for c in counts] == [int((hits <= m).sum()) for m in range(65)]

    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    @pytest.mark.parametrize("legs", LEG_MODES)
    @pytest.mark.parametrize("m", [2 ** 53, 2 ** 62])
    def test_no_hit_stays_above_m_past_2_53(self, kind, legs, m):
        # at gamma_e = inf no eavesdropper decodes; past 2**53, m + 1.0 rounds
        # to m, so the no-hit cap must lie above m or every trial counts
        cfg = ScenarioConfig(n=11, m=m, gamma_r=1.0, gamma_e=math.inf)
        counts = _run_trials(cfg, kind, 0.3, 0, 200, 607, legs)
        assert [counts[k] for k in self.SECRECY + ("eve_hits_hop1",)] == [0] * 5
        assert (_first_interceptors(cfg, kind, 0.3, 0, 200, 607, legs) > m).all()


class TestMergeEstimates:
    def parts(self, n_parts, trials, seed=31):
        edges = np.linspace(0, trials, n_parts + 1).astype(int)
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            counts = _run_trials(IL, RANDOM_TAU01.kind, RANDOM_TAU01.tau, int(a), int(b), seed,
                                 "shared")
            out.append(estimate_outage(IL, RANDOM_TAU01, int(b - a), seed,
                                       trial_start=int(a)))
            assert out[-1].counts == counts
        return out

    def test_merge_single_part_is_identity(self):
        part = estimate_outage(IL, RANDOM_TAU01, 1000, 31)
        merged = merge_estimates([part])
        assert merged.counts == part.counts and merged.trials == part.trials

    def test_merge_commutative(self):
        a, b = self.parts(2, 4000)
        forward, backward = merge_estimates([a, b]), merge_estimates([b, a])
        assert forward.counts == backward.counts
        assert (backward.trial_start, backward.trials) == (0, 4000)

    def test_four_way_split_bit_identical(self):
        whole = estimate_outage(IL, RANDOM_TAU01, 10_000, 31)
        merged = merge_estimates(self.parts(4, 10_000))
        assert merged.counts == whole.counts
        assert dumps(merged.as_dict()) == dumps(whole.as_dict())

    def test_worker_pool_matches_single_worker(self):
        single = estimate_outage(IL, RANDOM_TAU01, 4000, 32, workers=1)
        pooled = estimate_outage(IL, RANDOM_TAU01, 4000, 32, workers=4)
        assert single.counts == pooled.counts

    @pytest.mark.parametrize("trial_start", [2 ** 53 + 1, 2 ** 60 + 3, 2 ** 63 - 12])
    def test_worker_pool_far_into_the_stream(self, trial_start):
        # the workers split the range by integer arithmetic, so they count
        # the single worker's trials where floats would move the edges
        single = estimate_outage(IL, RANDOM_TAU01, 12, 33, trial_start=trial_start)
        pooled = estimate_outage(IL, RANDOM_TAU01, 12, 33, workers=2, trial_start=trial_start)
        assert (pooled.trial_start, pooled.trials) == (trial_start, 12)
        assert pooled.counts == single.counts

    def test_run_trials_in_worker_threads_match_main_thread(self):
        # each thread draws through its own generator
        cfg = replace(IL, m=3)
        maxmin = ProtocolChoice(kind="optimal-maxmin", tau_policy="manual", tau=0.3)
        jobs = [(cfg, RANDOM_TAU01.kind, RANDOM_TAU01.tau, 0, 3000, 61, "shared"),
                (cfg, maxmin.kind, maxmin.tau, 500, 2500, 62, "independent")]
        want = [run_trials(*job) for job in jobs]
        with ThreadPoolExecutor(max_workers=2) as threads:
            got = list(threads.map(lambda job: run_trials(*job), jobs * 3))
        assert got == want * 3

    def test_estimate_carries_its_threshold(self):
        # resolved once in the calling process; every worker count and a merge keep it
        cfg = ScenarioConfig(n=101, m=2, gamma_r=1.0, gamma_e=1.0, eps_s=0.5, eps_t=0.5)
        proto = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-max")
        want = protocols.resolve_tau(proto, cfg)
        one, three = (estimate_outage(cfg, proto, 300, 8, workers=w) for w in (1, 3))
        assert one.tau == three.tau == want
        assert one.counts == three.counts
        rest = estimate_outage(cfg, proto, 200, 8, trial_start=300)
        assert merge_estimates([one, rest]).tau == want
        with pytest.raises(ValueError, match="different runs"):
            merge_estimates([one, replace(rest, tau=want / 2)])

    def test_mismatched_parts_rejected(self):
        a = estimate_outage(IL, RANDOM_TAU01, 100, 1)
        b = estimate_outage(replace(IL, m=2), RANDOM_TAU01, 100, 1)
        with pytest.raises(ValueError):
            merge_estimates([a, b])
        c = estimate_outage(IL, RANDOM_TAU01, 100, 2)
        with pytest.raises(ValueError, match="different runs"):
            merge_estimates([a, c])

    def test_overlapping_parts_rejected(self):
        a = estimate_outage(IL, RANDOM_TAU01, 100, 1)
        with pytest.raises(ValueError, match="tile one range"):
            merge_estimates([a, a])
        wide = estimate_outage(IL, RANDOM_TAU01, 100, 1, trial_start=50)
        with pytest.raises(ValueError, match="tile one range"):
            merge_estimates([wide, a])

    def test_gap_between_parts_rejected(self):
        a = estimate_outage(IL, RANDOM_TAU01, 100, 1)
        later = estimate_outage(IL, RANDOM_TAU01, 100, 1, trial_start=200)
        with pytest.raises(ValueError, match="tile one range"):
            merge_estimates([a, later])


class TestPool:
    def test_one_job_starts_no_pool(self, monkeypatch):
        # a trial range that gives one job runs in this process
        started = []
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                            lambda *args, **kwargs: started.append(kwargs))
        est = estimate_outage(IL, RANDOM_TAU01, 1, 7, workers=4)
        res = tolerance_search(IL, RANDOM_TAU01, 0.5, 1, m_cap=4, seed=7, workers=3)
        assert started == []
        assert est.counts == estimate_outage(IL, RANDOM_TAU01, 1, 7).counts
        assert res == tolerance_search(IL, RANDOM_TAU01, 0.5, 1, m_cap=4, seed=7)


class TestKernelStages:
    """The stages the benchmark tracer times stay on the kernel's call path.

    A traced run reports a stage that falls off the path as 0 calls, a
    finite metric, so only a count of the calls catches it.
    """

    STAGES = [(montecarlo, "sample_realization"), (montecarlo, "select_relay_optimal"),
              (montecarlo, "execute_two_hop"), (montecarlo, "classify_outage"),
              (protocols, "jammer_set"), (protocols, "intercept_law"),
              (protocols, "_per_relay_jammers"), (protocols, "_counted_jammers")]

    @staticmethod
    def counting(monkeypatch, module, name, calls):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    @pytest.mark.parametrize("legs", LEG_MODES)
    @pytest.mark.parametrize("trials, blocks", [(3, 1), (10, 3)])
    def test_each_stage_runs_once_a_block(self, monkeypatch, kind, legs, trials, blocks):
        self.check_stages(monkeypatch, kind, legs, trials, blocks, 11, 0.3)  # per-relay rows

    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    @pytest.mark.parametrize("legs", LEG_MODES)
    @pytest.mark.parametrize("trials, blocks", [(3, 1), (10, 3)])
    def test_each_stage_runs_once_a_block_on_count_rows(self, monkeypatch, kind, legs, trials,
                                                        blocks):
        self.check_stages(monkeypatch, kind, legs, trials, blocks, 101, 0.0616)

    def check_stages(self, monkeypatch, kind, legs, trials, blocks, n, tau):
        cfg = ScenarioConfig(n=n, m=2, gamma_r=1.0, gamma_e=1.0)
        maxmin, counted = kind == "optimal-maxmin", channel.count_cap(n, tau) is not None
        assert counted == (n == 101)
        words = trial_words(cfg, maxmin=maxmin, independent=legs == "independent",
                            cap=channel.count_cap(n, tau))
        monkeypatch.setattr(montecarlo, "_BLOCK_WORDS", 4 * words)  # 4 trials a block
        calls = {name: 0 for _, name in self.STAGES}
        for module, name in self.STAGES:
            self.counting(monkeypatch, module, name, calls)
        estimate_outage(cfg, ProtocolChoice(kind=kind, tau_policy="manual", tau=tau),
                        trials, 5, legs=legs)
        want = dict.fromkeys(calls, blocks)
        # count rows draw max-min's relay from the law of the maximum, with no relay index,
        # and decide no jammer set relay by relay
        want["select_relay_optimal"] = blocks if maxmin and not counted else 0
        want["jammer_set"] = 0 if counted else blocks
        # each row format has its own reader, and only it runs
        want["_per_relay_jammers"] = 0 if counted else blocks
        want["_counted_jammers"] = blocks if counted else 0
        assert calls == want


class TestToleranceSearch:
    def test_unit_budget_saturates_cap(self):
        res = tolerance_search(IL, RANDOM_TAU01, 1.0, 200, m_cap=9, seed=41)
        assert res.m_max == 9
        assert not res.violated_at_m1

    def test_zero_with_flag_when_m1_violates(self):
        # tau = 0 means no jamming: interception is certain, any budget < 1 fails
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.0)
        res = tolerance_search(IL, proto, 0.05, 300, m_cap=8, seed=42)
        assert res.m_max == 0
        assert res.violated_at_m1

    def test_matches_analytic_tolerance(self):
        # per-eavesdropper intercept q is exact; independent eavesdroppers give
        # p_leg(m) = 1 - (1-q)^m only approximately under a shared jammer set,
        # so compare against a small brute-force scan of the estimator itself.
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=1.0)
        budget = 0.2
        res = tolerance_search(IL, proto, budget, 4000, m_cap=64, seed=43)
        scan = []
        for m in range(1, res.m_max + 2):
            est = estimate_outage(replace(IL, m=m), proto, 4000, 43)
            scan.append(est.proportion("s_e2e").hi <= budget)
        assert all(scan[:res.m_max])
        assert not scan[res.m_max]

    def test_probes_are_estimate_upper_bounds(self):
        # each probe is the Wilson upper bound of p_s_e2e that estimate_outage
        # gives at its m, bit for bit, and they bracket the budget at m_max
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=1.0)
        res = tolerance_search(IL, proto, 0.3, 2000, m_cap=64, seed=44)
        assert [m for m, _ in res.probes] == sorted({1, 2, 4, 8, 16, 32, 64,
                                                     res.m_max, res.m_max + 1})
        for m, upper in res.probes:
            est = estimate_outage(replace(IL, m=m), proto, 2000, 44)
            assert upper == est.proportion("s_e2e").hi
        by_m = dict(res.probes)
        assert by_m[res.m_max] <= 0.3 < by_m[res.m_max + 1]
        assert [b for _, b in res.probes] == sorted(b for _, b in res.probes)

    def test_one_estimate_answers_every_m(self, monkeypatch):
        calls = []

        def counted(config, *args):
            calls.append(config.m)
            return real(config, *args)

        real = montecarlo._first_interceptors
        monkeypatch.setattr(montecarlo, "_first_interceptors", counted)
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=1.0)
        res = tolerance_search(IL, proto, 0.5, 500, m_cap=1000, seed=45)
        assert calls == [1000]
        assert 1 <= res.m_max < 1000

    def test_answer_does_not_depend_on_a_cap_above_it(self):
        # one run at m_cap = 2**62 costs O(trials) time and memory, and on
        # one seed finds the m_max and the probe bounds of m_cap = 2**20
        cfg = ScenarioConfig(n=101, m=1, gamma_r=1.0, gamma_e=2.0)
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.15)
        low = tolerance_search(cfg, proto, 0.3, 2000, m_cap=2 ** 20, seed=47)
        tracemalloc.start()
        try:
            high = tolerance_search(cfg, proto, 0.3, 2000, m_cap=2 ** 62, seed=47)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 ** 16 < low.m_max == high.m_max < 2 ** 20
        shared = dict(low.probes).keys() & dict(high.probes).keys()
        assert {m: b for m, b in low.probes if m in shared} == \
            {m: b for m, b in high.probes if m in shared}
        assert len(shared) == 23  # 1, 2, ..., 2**20, m_max and m_max + 1
        assert peak < 20 << 20

    @pytest.mark.parametrize("legs", LEG_MODES)
    def test_degenerate_laws_answer_without_warnings(self, legs):
        # gamma_e = inf: A = B = C = 0, so no trial has a first hit; tau = 0,
        # interference-limited: nobody jams, A = B = 1 and log1p(-1) = -inf;
        # n = 1, interference-limited: K1 = 0 and A = 1 under any tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            deaf = tolerance_search(replace(IL, gamma_e=math.inf), RANDOM_TAU01, 0.05, 300,
                                    m_cap=50, seed=46, legs=legs)
            no_jam = tolerance_search(IL, ProtocolChoice(tau_policy="manual", tau=0.0), 0.99,
                                      300, m_cap=50, seed=46, legs=legs)
            lone = tolerance_search(replace(IL, n=1), RANDOM_TAU01, 0.99, 300, m_cap=50,
                                    seed=46, legs=legs)
        assert (deaf.m_max, no_jam.m_max, lone.m_max) == (50, 0, 0)
        assert dict(no_jam.probes)[1] == 1.0

    def test_one_pool_serves_every_probe(self, monkeypatch):
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=1.0)
        single = tolerance_search(IL, proto, 0.3, 2000, m_cap=64, seed=44)
        pools = []

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        real_pool = montecarlo.ProcessPoolExecutor
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", counting_pool)
        pooled = tolerance_search(IL, proto, 0.3, 2000, m_cap=64, seed=44, workers=2)
        assert pooled == single
        assert len(single.probes) > 2
        assert len(pools) == 1


class TestJainAndEntropy:
    def test_jain_balanced(self):
        assert jain_index([10, 10, 10]) == pytest.approx(1.0)

    def test_jain_concentrated(self):
        assert jain_index([30, 0, 0]) == pytest.approx(1.0 / 3.0)

    def test_jain_two_to_one(self):
        assert jain_index([20, 10]) == pytest.approx(0.9)

    def test_entropy_uniform(self):
        assert selection_entropy([5, 5, 5, 5]) == pytest.approx(math.log(4))

    def test_entropy_concentrated(self):
        assert selection_entropy([17, 0, 0]) == 0.0


class TestLoadBalance:
    CFG = ScenarioConfig(n=6, m=0, gamma_r=1.0, gamma_e=1.0, coherence_len=10)

    def test_counts_sum_to_slots(self):
        proto = ProtocolChoice(kind="random-uniform")
        st = load_balance(self.CFG, proto, 997, 51)
        assert sum(st.selection_counts) == 997
        assert st.epochs == 100

    def test_maxmin_constant_within_epochs(self):
        proto = ProtocolChoice(kind="optimal-maxmin")
        st = load_balance(self.CFG, proto, 500, 52)
        assert st.constant_within_epochs

    def test_random_not_constant_within_epochs(self):
        proto = ProtocolChoice(kind="random-uniform")
        st = load_balance(self.CFG, proto, 500, 52)
        assert not st.constant_within_epochs

    def test_reproducible(self):
        proto = ProtocolChoice(kind="optimal-maxmin")
        a = load_balance(self.CFG, proto, 400, 53)
        b = load_balance(self.CFG, proto, 400, 53)
        assert a == b

    def test_fresh_fading_uniformity_both_kinds(self):
        cfg = replace(self.CFG, coherence_len=1)
        for kind in ("optimal-maxmin", "random-uniform"):
            st = load_balance(cfg, ProtocolChoice(kind=kind), 12_000, 54)
            assert stats.chisquare(st.selection_counts).pvalue > 0.001

    def test_long_coherence_draws_only_the_slots(self):
        # one epoch covers the run, so it reads one word per slot however
        # long the epoch is, and the same words
        proto = ProtocolChoice(kind="random-uniform")
        want = load_balance(replace(self.CFG, coherence_len=500), proto, 500, 56)
        tracemalloc.start()
        try:
            got = load_balance(replace(self.CFG, coherence_len=10 ** 6), proto, 500, 56)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (got.selection_counts, got.epochs) == (want.selection_counts, 1)
        assert got.constant_within_epochs == want.constant_within_epochs
        assert peak < 1 << 20

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_that_split_epochs_change_nothing(self, monkeypatch, block):
        # random selection reads slot s from word s, _BLOCK_WORDS words a
        # block; an epoch split across blocks still counts as constant only
        # if its relay never changes, across the boundary too
        proto = ProtocolChoice(kind="random-uniform")
        cases = [(replace(self.CFG, n=n, coherence_len=epoch_len), slots, seed)
                 for n, epoch_len, slots in [(1, 5, 23), (2, 3, 3), (2, 2, 9), (6, 10, 997)]
                 for seed in range(12)]
        want = [load_balance(cfg, proto, slots, seed) for cfg, slots, seed in cases]
        assert {st.constant_within_epochs for st in want[12:]} == {True, False}
        monkeypatch.setattr(montecarlo, "_BLOCK_WORDS", block)
        assert [load_balance(cfg, proto, slots, seed) for cfg, slots, seed in cases] == want

    def test_one_long_epoch_runs_in_bounded_memory(self):
        # 2**22 slots in one epoch are drawn _BLOCK_WORDS words at a time: the
        # peak does not grow with coherence_len (about 9 MB either way; a
        # whole-epoch row took 100 MB)
        proto = ProtocolChoice(kind="random-uniform")
        load_balance(self.CFG, proto, 100, 57)  # warm numpy.random up outside the trace
        tracemalloc.start()
        try:
            st = load_balance(replace(self.CFG, coherence_len=1 << 22), proto, 1 << 22, 57)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sum(st.selection_counts), st.epochs) == (1 << 22, 1)
        assert peak < 16 << 20

    @pytest.mark.parametrize("n", [2, 11, 101])
    def test_counts_follow_their_multinomial_law(self, n):
        # slots a multiple of coherence_len: random selection's counts are
        # Multinomial(slots, 1/n); max-min's are coherence_len x
        # Multinomial(epochs, 1/n), an epoch's relay uniform by symmetry.
        # Every relay's count is within 6 sigma of its mean slots / n
        epoch_len, epochs = 10, 2000
        slots = epoch_len * epochs
        cfg = replace(self.CFG, n=n, coherence_len=epoch_len)
        for kind, draws, weight in (("random-uniform", slots, 1),
                                    ("optimal-maxmin", epochs, epoch_len)):
            counts = np.array(load_balance(cfg, ProtocolChoice(kind=kind), slots,
                                           58).selection_counts)
            sigma = weight * math.sqrt(draws * (1.0 / n) * (1.0 - 1.0 / n))
            assert np.all(counts % weight == 0)
            assert np.all(np.abs(counts - slots / n) <= 6.0 * sigma), (kind, counts.tolist())

    def test_jain_close_to_one_for_random(self):
        proto = ProtocolChoice(kind="random-uniform")
        st = load_balance(replace(self.CFG, coherence_len=1), proto, 20_000, 55)
        assert st.jain_index > 0.99

    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    @pytest.mark.parametrize("slots", [997, 1000, 3])
    def test_fairness_fields_match_the_counts(self, kind, slots):
        # 997 and 3 end in a short last epoch; the fields are bit for bit the
        # module functions of the counts
        st = load_balance(self.CFG, ProtocolChoice(kind=kind), slots, 57)
        assert sum(st.selection_counts) == slots
        assert st.jain_index.hex() == jain_index(st.selection_counts).hex()
        assert st.entropy.hex() == selection_entropy(st.selection_counts).hex()
