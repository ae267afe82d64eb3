"""Monte Carlo engine tests: estimates vs exact oracles, merging, search, load balance."""

import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from relaysec import (ProtocolChoice, ScenarioConfig, estimate_outage,
                      eve_intercept_exact, expected_jammers, jain_index,
                      load_balance, merge_estimates, selection_entropy,
                      tolerance_search, wilson_interval)
from relaysec import montecarlo, protocols
from relaysec.channel import trial_words
from relaysec.montecarlo import LEG_MODES, _run_trials
from relaysec.protocols import PROTOCOL_KINDS
from relaysec.serialize import dumps

IL = ScenarioConfig(n=11, m=1, gamma_r=1.0, gamma_e=1.0,
                    noise_mode="interference-limited")
RANDOM_TAU01 = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.1)


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
        got = _run_trials(replace(cfg, es=1e308), proto, 0, 2000, 5, "shared")
        assert got == _run_trials(replace(cfg, es=1e300), proto, 0, 2000, 5, "shared")


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


class TestMergeEstimates:
    def parts(self, n_parts, trials, seed=31):
        edges = np.linspace(0, trials, n_parts + 1).astype(int)
        out = []
        for a, b in zip(edges[:-1], edges[1:]):
            counts = _run_trials(IL, RANDOM_TAU01, int(a), int(b), seed, "shared")
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
        jobs = [(cfg, RANDOM_TAU01, 0, 3000, 61, "shared"),
                (cfg, maxmin, 500, 2500, 62, "independent")]
        want = [_run_trials(*job) for job in jobs]
        with ThreadPoolExecutor(max_workers=2) as threads:
            got = list(threads.map(lambda job: _run_trials(*job), jobs * 3))
        assert got == want * 3

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


class TestKernelStages:
    """The stages the benchmark tracer times stay on the kernel's call path.

    A traced run reports a stage that falls off the path as 0 calls, a
    finite metric, so only a count of the calls catches it.
    """

    STAGES = [(montecarlo, "sample_realization"), (montecarlo, "select_relay_optimal"),
              (montecarlo, "execute_two_hop"), (montecarlo, "classify_outage"),
              (protocols, "jammer_set"), (protocols, "intercept_law")]

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
        cfg = ScenarioConfig(n=11, m=2, gamma_r=1.0, gamma_e=1.0)
        maxmin = kind == "optimal-maxmin"
        words = trial_words(cfg, maxmin=maxmin, independent=legs == "independent")
        monkeypatch.setattr(montecarlo, "_BLOCK_WORDS", 4 * words)  # 4 trials a block
        calls = {name: 0 for _, name in self.STAGES}
        for module, name in self.STAGES:
            self.counting(monkeypatch, module, name, calls)
        estimate_outage(cfg, ProtocolChoice(kind=kind, tau_policy="manual", tau=0.3),
                        trials, 5, legs=legs)
        want = dict.fromkeys(calls, blocks)
        want["select_relay_optimal"] = blocks if maxmin else 0
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

    def test_probe_record_monotone_trend(self):
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=1.0)
        res = tolerance_search(IL, proto, 0.3, 2000, m_cap=64, seed=44)
        by_m = dict(res.probes)
        ms = sorted(by_m)
        for a, b in zip(ms[:-1], ms[1:]):
            assert by_m[b] >= by_m[a] - 0.05  # CI noise slack

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
