"""Protocol engine tests: selection rules, jammer sets, and hand-worked transmissions.

The block kernel is exercised with a batch of one: a hand-built realization
block with a single row.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from relaysec import (InfeasibleConfigError, ProtocolChoice, ScenarioConfig,
                      classify_outage, execute_two_hop, jammer_set, load_balance,
                      per_leg_budget, resolve_tau, select_relay_optimal,
                      tau_protocol1, theorem2_tau_range, trial_rng)
from relaysec.protocols import TransmissionRecord, intercept_law

from .test_channel import make_realization, sample_block


def select_one(s_r, r_d):
    """Max-min selection in a batch of one."""
    return select_relay_optimal(np.array([s_r], dtype=float), np.array([r_d], dtype=float))[0]


def run_one(real, selected, tau, config):
    """execute_two_hop on a block of one through relay `selected` at threshold tau."""
    return execute_two_hop(real, np.array([selected]), tau, config)


def toward(real, j):
    """Gains toward relay j in a batch of one."""
    return real.gains_to_relay(np.array([j]))[0]


def jamming(real, selected, tau):
    """The relays that jam hop 1 and hop 2 of a block of one, as two sets."""
    mask = jammer_set(real, np.array([selected]), tau)[0]
    on1, on2 = np.flatnonzero(mask[real.layout.hop1]), np.flatnonzero(mask[real.layout.hop2])
    return {int(c + (c >= selected)) for c in on1}, {int(j) for j in on2}


def jammers(gains, selected, tau):
    """Jamming relays of a single trial whose gains toward D are `gains`, as a set."""
    n = len(gains)
    real = make_realization([1.0] * n, [1.0] * (n * (n - 1) // 2), gains, [], toward=selected)
    return jamming(real, selected, tau)[1]


class TestSelectRelayOptimal:
    def test_picks_largest_min(self):
        assert select_one([0.5, 1.5, 0.3], [2.0, 1.2, 3.0]) == 1  # mins 0.5, 1.2, 0.3

    def test_tie_breaks_to_lowest_index(self):
        assert select_one([1.0, 1.0], [1.0, 2.0]) == 0

    def test_single_relay(self):
        assert select_one([0.4], [0.2]) == 0

    def test_permutation_equivariant(self):
        rng = trial_rng(21, 0)
        for _ in range(50):
            s_r = rng.exponential(size=6)
            r_d = rng.exponential(size=6)
            sel = select_one(s_r, r_d)
            perm = rng.permutation(6)
            sel_p = select_one(s_r[perm], r_d[perm])
            assert perm[sel_p] == sel

    def test_selection_uniform_over_fresh_fading(self):
        # i.i.d. gains make the argmax symmetric across relays
        cfg = ScenarioConfig(n=8, m=0, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 22, 20_000)
        counts = np.bincount(select_relay_optimal(real["s_r"], real["r_d"]), minlength=8)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_block_matches_per_row_argmax(self):
        # gains on a coarse grid make ties common; each row must pick as a
        # per-row argmax does, the lowest tied index
        rng = trial_rng(23, 0)
        cfg = ScenarioConfig(n=5, m=0, gamma_r=1.0, gamma_e=1.0)
        s_r, r_d = rng.integers(0, 3, size=(2, 400, cfg.n)).astype(float)
        mins = np.minimum(s_r, r_d)
        assert sum(np.count_nonzero(row == row.max()) > 1 for row in mins) > 50
        assert select_relay_optimal(s_r, r_d).tolist() == [int(np.argmax(row)) for row in mins]

    @pytest.mark.parametrize("n, trials", [(2, 5000), (11, 2000), (1001, 50)])
    def test_uniforms_pick_as_their_gains(self, n, trials):
        # the kernel selects on the uniforms; -log1p(-u) increases with u, so
        # the pick is the gains' pick, ties included (uniforms on a coarse
        # grid make ties common)
        cfg = ScenarioConfig(n=n, m=0, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 24 + n, trials)
        coarse = np.floor(real.words * 4) / 4
        for s_r, r_d in ((real["s_r"], real["r_d"]), (coarse[:, :n], coarse[:, n:2 * n])):
            assert np.array_equal(select_relay_optimal(s_r, r_d),
                                  select_relay_optimal(-np.log1p(-s_r), -np.log1p(-r_d)))


class TestSelectRelayRandom:
    """Uniform random selection: one word per pick, floor(u n), as load_balance draws it."""

    RANDOM = ProtocolChoice(kind="random-uniform")

    def test_single_relay(self):
        cfg = ScenarioConfig(n=1, m=0, gamma_r=1.0, gamma_e=1.0, coherence_len=10)
        assert load_balance(cfg, self.RANDOM, 100, 1).selection_counts == (100,)

    def test_uniform_frequencies(self):
        cfg = ScenarioConfig(n=4, m=0, gamma_r=1.0, gamma_e=1.0, coherence_len=1000)
        counts = np.array(load_balance(cfg, self.RANDOM, 100_000, 2).selection_counts)
        assert np.all(np.abs(counts / 100_000 - 0.25) < 0.01)
        assert stats.chisquare(counts).pvalue > 0.001

    def test_same_seed_same_sequence(self):
        cfg = ScenarioConfig(n=7, m=0, gamma_r=1.0, gamma_e=1.0)
        a = load_balance(cfg, self.RANDOM, 50, 5)
        assert load_balance(cfg, self.RANDOM, 50, 5) == a
        assert load_balance(cfg, self.RANDOM, 50, 6) != a


class TestJammerSet:
    def test_zero_threshold_empty(self):
        assert jammers([0.5, 0.1, 0.2], 0, 0.0) == set()

    def test_everyone_below_threshold(self):
        assert jammers([0.5, 0.1, 0.2], 1, 10.0) == {0, 2}

    def test_threshold_selects_exactly(self):
        assert jammers([0.05, 0.2, 0.01], 1, 0.1) == {0, 2}

    def test_selected_relay_never_jams(self):
        assert 1 not in jammers([0.001, 0.001, 0.001], 1, 1.0)

    def test_hop1_uses_gains_toward_selected_relay(self):
        # relay pair gains (0,1)=0.05, (0,2)=0.5, (1,2)=0.01
        def real(j):
            return make_realization([1, 1, 1], [0.05, 0.5, 0.01], [1, 1, 1], [], toward=j)
        assert jamming(real(1), 1, 0.1)[0] == {0, 2}
        assert jamming(real(0), 0, 0.1)[0] == {1}
        assert {j for j, g in enumerate(toward(real(1), 1)) if g < 0.1} == {0, 2}

    def test_monotone_in_tau(self):
        cfg = ScenarioConfig(n=9, m=0, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 30, 1)
        sel = select_relay_optimal(real["s_r"], real["r_d"])[0]
        taus = [0.0, 0.05, 0.2, 0.8, 2.0]
        sets = [jamming(real, sel, t)[0] for t in taus]
        for small, large in zip(sets[:-1], sets[1:]):
            assert small <= large

    def test_size_binomial_mean(self):
        # |set| ~ Binomial(n-1, 1-e^-tau)
        n, tau, trials = 11, 0.3, 20_000
        cfg = ScenarioConfig(n=n, m=0, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 31, trials)
        mask = jammer_set(real, np.zeros(trials, dtype=int), tau)
        sizes = mask[:, real.layout.hop2].sum(axis=1)
        expected = (n - 1) * (1.0 - math.exp(-tau))
        se = sizes.std(ddof=1) / math.sqrt(trials)
        assert abs(sizes.mean() - expected) < 3 * se


class TestTauProtocol1:
    def test_single_relay_zero(self):
        assert tau_protocol1(1, 1.0) == 0.0

    def test_desk_value(self):
        assert tau_protocol1(100, 1.0) == pytest.approx(0.07587135646925731, rel=1e-12)

    def test_inverse_sqrt_gamma_scaling(self):
        assert tau_protocol1(100, 4.0) == pytest.approx(tau_protocol1(100, 1.0) / 2.0)


class TestResolveTau:
    CFG = ScenarioConfig(n=101, m=1, gamma_r=1.0, gamma_e=1.0, eps_s=0.5, eps_t=0.5)

    def test_manual(self):
        proto = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.17)
        assert resolve_tau(proto, self.CFG) == 0.17

    def test_protocol1_formula(self):
        proto = ProtocolChoice(kind="optimal-maxmin", tau_policy="protocol1-formula")
        assert resolve_tau(proto, self.CFG) == tau_protocol1(101, 1.0)

    def test_theorem2_endpoints(self):
        iv = theorem2_tau_range(101, 1, 1.0, 1.0, 0.5, 0.5)
        hi = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-max")
        lo = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-min")
        assert resolve_tau(hi, self.CFG) == iv.tau_max
        assert resolve_tau(lo, self.CFG) == iv.tau_min

    def test_theorem2_min_nonnegative(self):
        # the raw formula only goes negative for fractional m below the budget
        # (the defensive clamp's territory); for any integer m >= 1 it is >= 0
        assert theorem2_tau_range(101, per_leg_budget(0.19) / 2, 1.0, 1.0, 0.19, 0.5).tau_min < 0
        for m in (1, 2, 17):
            cfg = ScenarioConfig(n=101, m=m, gamma_r=1.0, gamma_e=1.0,
                                 eps_s=0.9999, eps_t=0.5)
            proto = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-min")
            assert resolve_tau(proto, cfg) >= 0.0

    def test_theorem2_infeasible_raises(self):
        cfg = ScenarioConfig(n=2, m=10, gamma_r=1.0, gamma_e=1.0, eps_s=0.1, eps_t=0.5)
        proto = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-max")
        with pytest.raises(InfeasibleConfigError):
            resolve_tau(proto, cfg)

    def test_theorem2_requires_budgets(self):
        cfg = ScenarioConfig(n=11, m=1, gamma_r=1.0, gamma_e=1.0)
        proto = ProtocolChoice(kind="random-uniform", tau_policy="theorem2-max")
        with pytest.raises(ValueError):
            resolve_tau(proto, cfg)


class TestProtocolChoiceValidation:
    def test_manual_needs_tau(self):
        with pytest.raises(ValueError):
            ProtocolChoice(kind="random-uniform", tau_policy="manual")

    def test_negative_manual_tau(self):
        with pytest.raises(ValueError):
            ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=-0.1)

    def test_tau_forbidden_without_manual(self):
        with pytest.raises(ValueError):
            ProtocolChoice(kind="random-uniform", tau_policy="protocol1-formula", tau=0.2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProtocolChoice(kind="round-robin", tau_policy="manual", tau=0.1)


class TestExecuteTwoHop:
    CFG = ScenarioConfig(n=2, m=1, gamma_r=1.0, gamma_e=1.0, es=1.0, n0=1.0)
    TAU01 = 0.1
    # exact noise: nu = exp(-gamma_e (N0/2) / Es) = e^-0.5, and q = 1 / (1 + gamma_e) = 1/2
    NU = math.exp(-0.5)

    def hand_case(self, eve=(0.2,), r_d2=None):
        return make_realization(s_r=[2.0, 0.5], rr_cond=[0.05], r_d=[1.5, 0.08], eve=list(eve),
                                r_d2=r_d2)

    def test_hand_worked_record(self):
        # selected = argmax(min(2,1.5), min(0.5,0.08)) = 0; both other-relay
        # gains 0.05 and 0.08 sit below tau = 0.1, so relay 1 jams both hops.
        real = self.hand_case()
        assert select_relay_optimal(real["s_r"], real["r_d"])[0] == 0
        assert jamming(real, 0, self.TAU01) == ({1}, {1})
        rec = run_one(real, 0, self.TAU01, self.CFG)
        assert rec.selected_relay[0] == 0
        assert rec.jammers.tolist() == [[1, 1]] and rec.jammers_both.tolist() == [1]
        assert rec.sinr[0].tolist() == pytest.approx([2.0 / (0.05 + 0.5), 1.5 / (0.08 + 0.5)])
        # |J1| = |J2| = 1 and relay 1 is in both: A = B = nu / 2 = 0.3033 and,
        # its gain toward the eavesdropper being one draw, C = nu^2 / 3 = 0.1226
        a, b, c = intercept_law(rec.jammers, rec.jammers_both, True, self.CFG)
        assert (a[0], b[0]) == pytest.approx((self.NU / 2, self.NU / 2))
        assert c[0] == pytest.approx(self.NU ** 2 / 3)
        assert rec.intercepts.tolist() == [[1, 0]]   # u = 0.2 < A; C <= u < A
        # an eavesdropper in each cell: both hops, hop 1 only, hop 2 only
        # (A <= u < A + B - C = 0.4839), neither
        cells = [run_one(self.hand_case(eve=(u,)), 0, self.TAU01, self.CFG).intercepts.tolist()
                 for u in (0.1, 0.2, 0.4, 0.6)]
        assert cells == [[[1, 1]], [[1, 0]], [[0, 1]], [[0, 0]]]
        four = run_one(self.hand_case(eve=(0.1, 0.2, 0.4, 0.6)), 0, self.TAU01,
                       replace(self.CFG, m=4))
        assert four.intercepts.tolist() == [[2, 2]]

    def test_hand_worked_outage(self):
        rec = run_one(self.hand_case(), 0, self.TAU01, self.CFG)
        assert classify_outage(rec, self.CFG) == {
            "t_hop1": 0, "t_hop2": 0, "t_e2e": 0, "t_both": 0,
            # u = 0.2 < A = 0.3033, and C = 0.1226 <= u < A
            "s_hop1": 1, "s_hop2": 0, "s_e2e": 1, "s_both": 0,
            # one intercept; relay 1 alone jams hop 1
            "eve_hits_hop1": 1, "jam1_sum": 1, "jam1_sumsq": 1}

    def test_zero_tau_degenerate(self):
        rec = run_one(self.hand_case(), 0, 0.0, self.CFG)
        assert rec.jammers.tolist() == [[0, 0]] and rec.jammers_both.tolist() == [0]
        assert rec.sinr[0, 0] == pytest.approx(2.0 / 0.5)

    def test_single_relay_unbounded_eve(self):
        cfg = ScenarioConfig(n=1, m=1, gamma_r=1.0, gamma_e=1.0,
                             noise_mode="interference-limited")
        # u as close to 1 as a draw gets: with no jammer and no noise an
        # eavesdropper's SINR is unbounded, A = B = C = 1, and it decodes both hops
        real = make_realization([1.3], [], [0.9], [1.0 - 2.0 ** -53])
        # both rules can only pick relay 0
        assert select_relay_optimal(real["s_r"], real["r_d"])[0] == 0
        assert sample_block(cfg, 0, 100, kind="random-uniform").pick.tolist() == [0] * 100
        rec = run_one(real, 0, 0.5, cfg)
        assert rec.jammers.tolist() == [[0, 0]]
        law = intercept_law(rec.jammers, rec.jammers_both, True, cfg)
        assert [p.tolist() for p in law] == [[1.0], [1.0], [1.0]]
        assert rec.intercepts.tolist() == [[1, 1]]

    def test_independent_legs_hop2_gains(self):
        # hop 2 quantities must come from hop 2's own r_d
        real = self.hand_case(r_d2=[0.9, 4.0])
        rec = run_one(real, 0, self.TAU01, self.CFG)
        assert rec.selected_relay[0] == 0
        assert jamming(real, 0, self.TAU01) == ({1}, set())  # hop 2's gains exceed tau
        assert rec.sinr[0, 1] == pytest.approx(0.9 / 0.5)
        # hop 1 still from the first channel
        assert rec.sinr[0, 0] == pytest.approx(2.0 / (0.05 + 0.5))
        # A = nu / 2 (relay 1 jams hop 1), B = nu (nobody jams hop 2), and the
        # legs are independent, so C = A B
        a, b, c = intercept_law(rec.jammers, rec.jammers_both, False, self.CFG)
        assert (a[0], b[0], c[0]) == pytest.approx((self.NU / 2, self.NU, self.NU ** 2 / 2))
        assert rec.intercepts.tolist() == [[1, 0]]   # u = 0.2 < A = 0.3033; C = 0.1839 <= u < A
        hop2_only = run_one(self.hand_case(eve=(0.5,), r_d2=[0.9, 4.0]), 0, self.TAU01,
                            self.CFG)
        assert hop2_only.intercepts.tolist() == [[0, 1]]  # A <= u < A + B - C = 0.7259

    def test_block_rows_match_batches_of_one(self):
        # a trial's outcome depends on its own row only, never on its block
        cfg = ScenarioConfig(n=30, m=3, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            for legs in ("shared", "independent"):
                real = sample_block(cfg, 60, 40, kind=kind, legs=legs)
                selected = (real.pick if real.pick is not None
                            else select_relay_optimal(real["s_r"], real["r_d"]))
                whole = execute_two_hop(real, selected, 0.3, cfg)
                for t in range(40):
                    one = execute_two_hop(sample_block(cfg, 60, 1, start=t, kind=kind, legs=legs),
                                          selected[t:t + 1], 0.3, cfg)
                    for field in ("jammers", "jammers_both", "sinr", "intercepts"):
                        assert np.array_equal(getattr(whole, field)[t], getattr(one, field)[0])


class TestClassifyOutage:
    CFG = ScenarioConfig(n=3, m=2, gamma_r=1.0, gamma_e=1.0)

    def record(self, sr, sd, e1, e2):
        """A batch of one with the given SINRs and intercepts and no jammers."""
        return TransmissionRecord(selected_relay=np.array([0]), jammers=np.zeros((1, 2), int),
                                  jammers_both=np.zeros(1, int), sinr=np.array([[sr, sd]]),
                                  intercepts=np.array([[np.sum(e1), np.sum(e2)]], dtype=int))

    def test_tiny_gamma_r_never_outage(self):
        cfg = ScenarioConfig(n=3, m=2, gamma_r=1e-12, gamma_e=1.0)
        flags = classify_outage(self.record(0.01, 0.02, [False, False], [False, False]), cfg)
        assert not flags["t_hop1"] and not flags["t_hop2"]

    def test_huge_gamma_e_never_secrecy_outage(self):
        # with noise, nu = exp(-gamma_e N0/2 / Es) underflows to 0, so A = B = C = 0
        cfg = ScenarioConfig(n=2, m=2, gamma_r=1.0, gamma_e=1e12)
        real = make_realization([5.0, 5.0], [3.0], [5.0, 5.0], [0.0, 0.5])
        flags = classify_outage(run_one(real, 0, 1.0, cfg), cfg)
        assert not flags["s_hop1"] and not flags["s_hop2"] and not flags["s_e2e"]

    def test_boundary_conventions(self):
        # decoding needs strictly greater; interception needs u < A, so that
        # hop 1 is intercepted with probability exactly A
        flags = classify_outage(self.record(1.0, 2.0, [True, False], [False, False]), self.CFG)
        assert flags["t_hop1"] and not flags["t_hop2"]
        assert flags["s_hop1"] and not flags["s_hop2"]
        cfg = ScenarioConfig(n=2, m=1, gamma_r=1.0, gamma_e=1.0)
        a = math.exp(-0.5) * 0.5  # one jammer: A = nu q
        hits = [run_one(make_realization([2.0, 0.5], [0.05], [1.5, 0.08], [u]), 0, 0.1,
                        cfg).intercepts[0, 0] for u in (a, np.nextafter(a, 0.0))]
        assert hits == [0, 1]

    def test_e2e_is_or_of_hops(self):
        rng = trial_rng(40, 0)
        for _ in range(50):
            vals = rng.exponential(size=6)
            flags = classify_outage(self.record(vals[0], vals[1], vals[2:4] > 1.0,
                                                vals[4:6] > 1.0), self.CFG)
            assert flags["t_e2e"] == (flags["t_hop1"] or flags["t_hop2"])
            assert flags["s_e2e"] == (flags["s_hop1"] or flags["s_hop2"])
            assert flags["t_both"] == (flags["t_hop1"] and flags["t_hop2"])
            assert flags["s_both"] == (flags["s_hop1"] and flags["s_hop2"])
            assert flags["eve_hits_hop1"] == np.sum(vals[2:4] > 1.0)

    def test_no_eavesdroppers_no_secrecy_outage(self):
        cfg = ScenarioConfig(n=3, m=0, gamma_r=1.0, gamma_e=1.0)
        flags = classify_outage(self.record(5.0, 5.0, [], []), cfg)
        assert not flags["s_e2e"]
