"""Protocol engine tests: selection rules, jammer sets, and hand-worked transmissions.

The block kernel is exercised with a batch of one: a hand-built realization
block with a single row.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from relaysec import (InfeasibleConfigError, ProtocolChoice, ScenarioConfig, load_balance,
                      per_leg_budget, resolve_tau, tau_protocol1, theorem2_tau_range)
from relaysec.channel import ChannelRealization, count_cap, gain, trial_rng
from relaysec.protocols import (TransmissionRecord, _binomial_invert, _count_tables,
                                _extra_chance, _first_hits, classify_outage,
                                execute_two_hop, intercept_law, jammer_set, select_relay_optimal)

from . import reference
from .reference import first_hits
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
    on1, on2 = np.flatnonzero(mask[:real.n - 1]), np.flatnonzero(mask[real.n - 1:])
    return {int(c + (c >= selected)) for c in on1}, {int(j) for j in on2}


def jammers(gains, selected, tau):
    """Jamming relays of a single trial whose gains toward D are `gains`, as a set."""
    n = len(gains)
    real = make_realization([1.0] * n, [1.0] * (n * (n - 1) // 2), gains, toward=selected)
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
        coarse = [np.floor(real[field] * 4) / 4 for field in ("s_r", "r_d")]
        for s_r, r_d in ((real["s_r"], real["r_d"]), coarse):
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
            return make_realization([1, 1, 1], [0.05, 0.5, 0.01], [1, 1, 1], toward=j)
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
        sizes = mask[:, n - 1:].sum(axis=1)
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

    def hand_case(self, eve=(0.2, 0.5, 0.4), r_d2=None):
        return make_realization(s_r=[2.0, 0.5], rr_cond=[0.05], r_d=[1.5, 0.08], eve=eve,
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
        a, b, c = intercept_law(rec.jammers, rec.jammers_both, self.CFG)
        assert (a[0], b[0]) == pytest.approx((self.NU / 2, self.NU / 2))
        assert c[0] == pytest.approx(self.NU ** 2 / 3)
        # p = A + B - C = 0.4839: u0 = 0.2 < p, so eavesdropper 1 intercepts
        # some hop, and C <= u2 p = 0.1936 < A puts it in hop 1 only; hop 2's
        # first interceptor is past m = 1
        assert rec.first_hit.tolist() == [[1.0, 2.0]]
        # eavesdropper 1 in each cell: both hops (u2 p < C), hop 1 only, hop
        # 2 only, neither (u0 >= p: the first interceptor is eavesdropper 2)
        cells = [run_one(self.hand_case(eve=u), 0, self.TAU01, self.CFG).first_hit.tolist()
                 for u in ((0.2, 0.5, 0.1), (0.2, 0.5, 0.4), (0.2, 0.5, 0.8), (0.6, 0.5, 0.4))]
        assert cells == [[[1, 1]], [[1, 2]], [[2, 1]], [[2, 2]]]
        # past the first hit: 1 + floor(log1p(-0.6) / log1p(-p)) = 2, and hop
        # 2's first interceptor 2 + 1 + floor(log1p(-0.5) / log1p(-B)) = 4
        four = run_one(self.hand_case(eve=(0.6, 0.5, 0.4)), 0, self.TAU01,
                       replace(self.CFG, m=4))
        assert four.first_hit.tolist() == [[2, 4]]
        three = run_one(self.hand_case(eve=(0.6, 0.5, 0.4)), 0, self.TAU01,
                        replace(self.CFG, m=3))
        assert three.first_hit.tolist() == [[2, 4]]  # capped at m + 1

    def test_hand_worked_outage(self):
        rec = run_one(self.hand_case(), 0, self.TAU01, self.CFG)
        assert classify_outage(rec, self.CFG) == {
            "t_hop1": 0, "t_hop2": 0, "t_e2e": 0, "t_both": 0,
            # eavesdropper 1 intercepts hop 1 only
            "s_hop1": 1, "s_hop2": 0, "s_e2e": 1, "s_both": 0,
            # eavesdropper 1 is hop 1's first interceptor; relay 1 alone jams hop 1
            "eve_hits_hop1": 1, "jam1_sum": 1, "jam1_sumsq": 1}

    def test_zero_tau_degenerate(self):
        rec = run_one(self.hand_case(), 0, 0.0, self.CFG)
        assert rec.jammers.tolist() == [[0, 0]] and rec.jammers_both.tolist() == [0]
        assert rec.sinr[0, 0] == pytest.approx(2.0 / 0.5)

    def test_single_relay_unbounded_eve(self):
        cfg = ScenarioConfig(n=1, m=1, gamma_r=1.0, gamma_e=1.0,
                             noise_mode="interference-limited")
        # uniforms as close to 1 as a draw gets: with no jammer and no noise
        # an eavesdropper's SINR is unbounded, A = B = C = 1, and the first
        # eavesdropper decodes both hops
        top = 1.0 - 2.0 ** -53
        real = make_realization([1.3], [], [0.9], (top, top, top))
        # both rules can only pick relay 0
        assert select_relay_optimal(real["s_r"], real["r_d"])[0] == 0
        assert sample_block(cfg, 0, 100, kind="random-uniform").pick.tolist() == [0] * 100
        rec = run_one(real, 0, 0.5, cfg)
        assert rec.jammers.tolist() == [[0, 0]]
        law = intercept_law(rec.jammers, rec.jammers_both, cfg)
        assert [p.tolist() for p in law] == [[1.0], [1.0], [1.0]]
        assert rec.first_hit.tolist() == [[1, 1]]

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("noise_mode", ["exact", "interference-limited"])
    def test_infinite_gamma_e_decodes_nothing(self, noise_mode, shared):
        # no eavesdropper decodes at gamma_e = inf in either noise mode;
        # interference-limited, exp(-gamma_e N0/2 / Es) would be exp(-inf * 0) = NaN
        cfg = ScenarioConfig(n=5, m=3, gamma_r=1.0, gamma_e=math.inf, noise_mode=noise_mode)
        jammers = np.array([[0, 0], [2, 1], [4, 4]])
        law = intercept_law(jammers, np.array([0, 1, 4]) if shared else None, cfg)
        assert [p.tolist() for p in law] == [[0.0] * 3] * 3

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
        a, b, c = intercept_law(rec.jammers, rec.jammers_both, self.CFG)
        assert (a[0], b[0], c[0]) == pytest.approx((self.NU / 2, self.NU, self.NU ** 2 / 2))
        # p = A + B - C = 0.7259: C = 0.1839 <= u2 p = 0.2904 < A = 0.3033
        assert rec.first_hit.tolist() == [[1, 2]]
        hop2_only = run_one(self.hand_case(eve=(0.2, 0.5, 0.6), r_d2=[0.9, 4.0]), 0,
                            self.TAU01, self.CFG)
        assert hop2_only.first_hit.tolist() == [[2, 1]]  # u2 p = 0.4355 >= A

    def test_block_rows_match_batches_of_one(self):
        # a trial's outcome depends on its own row only, never on its block
        cfg = ScenarioConfig(n=30, m=3, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            for legs in ("shared", "independent"):
                real = sample_block(cfg, 60, 40, kind=kind, legs=legs, tau=0.3)
                selected = (real.pick if real.pick is not None
                            else select_relay_optimal(real["s_r"], real["r_d"]))
                whole = execute_two_hop(real, selected, 0.3, cfg)
                for t in range(40):
                    one = execute_two_hop(sample_block(cfg, 60, 1, start=t, kind=kind, legs=legs,
                                                       tau=0.3),
                                          selected[t:t + 1], 0.3, cfg)
                    for field in ("jammers", "sinr", "first_hit"):
                        assert np.array_equal(getattr(whole, field)[t], getattr(one, field)[0])
                    if legs == "shared":
                        assert whole.jammers_both[t] == one.jammers_both[0]
                    else:  # no count reads the overlap of independent legs
                        assert whole.jammers_both is None and one.jammers_both is None


class TestCountTables:
    @pytest.mark.parametrize("n, tau, cap, digest", [(101, 0.0616, 30, "c5ba3918c5d91a99"),
                                                     (1001, 0.0191, 59, "0d30574c2a6b46ca")])
    def test_tables_pinned(self, n, tau, cap, digest):
        # the uniforms one ulp either side of every entry of the reference's
        # own CDFs invert, through the kernel's tables, to the reference's
        # counts (cap + 1 past cap): a table entry that moves by one ulp moves
        # a count, and the digest pins them all
        table = _count_tables(n, tau, count_cap(n, tau))
        assert count_cap(n, tau) == cap and table.shape == (cap + 1, 2, cap + 1)
        got, want = [], []
        for k2 in range(cap + 1):
            for side, size in enumerate((k2, n - 1 - k2)):
                for f in reference.binomial_cdf(size, tau)[:cap + 1]:
                    for u in (math.nextafter(f, 0.0), math.nextafter(f, 1.0)):
                        if u < 1.0:
                            got.append(int(np.count_nonzero(table[k2, side] <= u)))
                            want.append(min(reference.invert(size, tau, u), cap + 1))
        assert got == want
        assert hashlib.sha256(np.array(got, dtype=np.int64).tobytes()).hexdigest()[:16] == digest


class TestMaxminLaw:
    """Max-min's count-row law at chosen points, against numerical CDFs.

    Count rows never hold M < tau (`test_maximum_is_never_below_tau`), so each
    point has x >= tau. Given M = x, another relay's (s_r, r_d) is two unit
    exponentials with min(s_r, r_d) <= x; its hop-2 gain r_d then has the
    sub-density e^-y (y <= x) or e^-y (1 - e^-x) (y > x).
    """

    POINTS = [(0.0415, 0.0415), (0.05, 0.0415), (0.3, 0.25), (0.5, 0.1), (3.7, 0.0415)]

    @staticmethod
    def joint(y, x):
        """P(r_d <= y, min(s_r, r_d) <= x), by numerical integration of the sub-density."""
        return integrate.quad(lambda v: math.exp(-v) * (1.0 if v <= x else -math.expm1(-x)),
                              0.0, y, points=[x] if 0.0 < x < y else None,
                              epsabs=1e-14, epsrel=1e-12)[0]

    @pytest.mark.parametrize("n", [41, 1001, 10 ** 4])
    def test_maximum_inverts_onto_its_cdf(self, n):
        # the "best" word u gives M with P(M <= x) = (1 - e^-2x)^n = u, the law
        # of the largest of n Exp(2) minima, here from scipy's exponential
        us = np.array([2.0 ** -53, 1e-12, 1e-3, 0.1, 0.5, 0.9, 1.0 - 2.0 ** -40])
        words = np.zeros((len(us), 2 * 2 + 10))
        words[:, 0] = us
        real = ChannelRealization(n=n, maxmin=True, independent=False, words=words, cap=2)
        x = real.best
        assert np.all(np.diff(x) > 0)
        got = stats.expon(scale=0.5).cdf(x) ** n
        assert np.allclose(got, us, rtol=1e-9, atol=0.0)
        assert ChannelRealization(n=n, maxmin=False, independent=False, words=words,
                                  cap=2).best is None
        words[0, 0] = 0.0  # read as the smallest positive word
        assert ChannelRealization(n=n, maxmin=True, independent=False, words=words,
                                  cap=2).best[0] == x[0]

    def test_maximum_is_never_below_tau(self):
        # the smallest M the stream gives (its word 2**-53) is above every tau
        # that draws count rows at its n: cap grows with tau wherever
        # 2 cap <= n - 1, so count rows at tau = M would hold at every smaller tau
        ns = [*range(41, 3001), *np.unique(np.geomspace(3001, 10 ** 12, 400).astype(np.int64))]
        for n in ns:
            words = np.zeros((1, 2 * 2 + 10))
            x = ChannelRealization(n=int(n), maxmin=True, independent=False, words=words,
                                   cap=2).best[0]
            assert count_cap(int(n), float(x)) is None, n

    @pytest.mark.parametrize("x, tau", POINTS)
    def test_jam_chance_meets_numerical_law(self, x, tau):
        # q(x) = P(r_d < tau | min <= x) is p + (1 - p) r(x)
        p = -math.expm1(-tau)
        q = self.joint(tau, x) / -math.expm1(-2.0 * x)
        r = _extra_chance(np.array([x]), tau)[0]
        assert p + (1.0 - p) * r == pytest.approx(q, rel=1e-9)

    @pytest.mark.parametrize("x, tau", POINTS)
    def test_hop2_gains_invert_onto_numerical_cdf(self, x, tau):
        # a hop-2 jammer's gain given r_d < tau and min <= x, read from the
        # word v p, must map each uniform v onto the conditional CDF at v
        v = np.linspace(0.0, 1.0, 41)[:-1] + 0.0125
        y = gain(v * -math.expm1(-tau))
        assert np.all(np.diff(y) > 0) and y[-1] < tau
        cdf = np.array([self.joint(g, x) for g in y]) / self.joint(tau, x)
        assert np.allclose(cdf, v, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("size, r", [(1000, 1e-4), (1000, 0.04), (96, 0.5), (10 ** 4, 0.5)])
    def test_extra_count_inverts_onto_binomial_cdf(self, size, r):
        # (1 - r)^size starts the CDF (it underflows to 0 at size 10^4, r = 1/2);
        # each uniform a hair either side of F(k) must invert to k + 1 or k
        dist = stats.binom(size, r)
        ks = [k for k in range(size + 1) if 1e-6 < dist.cdf(k) < 1.0 - 1e-6][::7][:40] or [0]
        for k in ks:
            f = dist.cdf(k)
            us = np.array([f * (1.0 - 1e-7), f * (1.0 + 1e-7)])
            got = _binomial_invert(np.full(2, size), np.full(2, r), us)
            assert got.tolist() == [k, k + 1]

    @pytest.mark.parametrize("x, tau", POINTS)
    def test_hop2_count_is_binomial_at_q(self, x, tau):
        # K2 = Bin(N, p) + Bin(N - that, r) has the law Bin(N, q(x))
        size, p = 60, -math.expm1(-tau)
        r = _extra_chance(np.array([x]), tau)[0]
        ks = np.arange(size + 1)
        mixed = [sum(stats.binom.pmf(j, size, p) * stats.binom.pmf(k - j, size - j, r)
                     for j in range(k + 1)) for k in ks]
        q = self.joint(tau, x) / -math.expm1(-2.0 * x)
        assert np.allclose(mixed, stats.binom.pmf(ks, size, q), rtol=0.0, atol=1e-12)


class TestClassifyOutage:
    CFG = ScenarioConfig(n=3, m=2, gamma_r=1.0, gamma_e=1.0)

    def record(self, sr, sd, h1, h2):
        """A batch of one with the given SINRs and first hits and no jammers."""
        return TransmissionRecord(selected_relay=np.array([0]), jammers=np.zeros((1, 2), int),
                                  jammers_both=np.zeros(1, int), sinr=np.array([[sr, sd]]),
                                  first_hit=np.array([[h1, h2]], dtype=float))

    def test_tiny_gamma_r_never_outage(self):
        cfg = ScenarioConfig(n=3, m=2, gamma_r=1e-12, gamma_e=1.0)
        flags = classify_outage(self.record(0.01, 0.02, 3, 3), cfg)
        assert not flags["t_hop1"] and not flags["t_hop2"]

    def test_huge_gamma_e_never_secrecy_outage(self):
        # with noise, nu = exp(-gamma_e N0/2 / Es) underflows to 0, so A = B = C = 0
        cfg = ScenarioConfig(n=2, m=2, gamma_r=1.0, gamma_e=1e12)
        real = make_realization([5.0, 5.0], [3.0], [5.0, 5.0], (0.0, 0.0, 0.0))
        flags = classify_outage(run_one(real, 0, 1.0, cfg), cfg)
        assert not flags["s_hop1"] and not flags["s_hop2"] and not flags["s_e2e"]

    def test_boundary_conventions(self):
        # decoding needs strictly greater SINR; a hop is in secrecy outage
        # iff its first hit is at most m
        flags = classify_outage(self.record(1.0, 2.0, 2, 3), self.CFG)
        assert flags["t_hop1"] and not flags["t_hop2"]
        assert flags["s_hop1"] and not flags["s_hop2"]
        assert flags["eve_hits_hop1"] == 0  # hop 1's first interceptor is eavesdropper 2
        # the cells split u2 p at C and A, strictly below each; p = 0.5 and
        # every product is exact, and u0 = p is the first uniform with H = 2
        a, b, c = np.array([0.25]), np.array([0.375]), np.array([0.125])

        def hits(u0, u2):
            return _first_hits(np.array([[u0, 0.5, u2]]), a, b, c, 8)[0].tolist()

        below = np.nextafter
        assert [hits(0.0, u2) for u2 in (below(0.25, 0.0), 0.25, below(0.5, 0.0), 0.5)] \
            == [[1, 1], [1, 3], [1, 3], [4, 1]]
        assert hits(0.5, 0.0) == [2, 2]

    def test_first_hits_at_float_edges(self):
        # where rounding puts C above A or B, or A + B - C below A or above
        # 1, the kernel's first hits are the scalar rule's, at every edge of
        # u2 p and its neighbours, and stay in [1, m + 1]
        below_a = 0.19999999999999996  # A + B - C one ulp below A = 0.3, C = 0.2
        assert 0.3 + below_a - 0.2 == np.nextafter(0.3, 0.0)
        up = np.nextafter(0.25, 1.0)
        assert 0.25 + up - up < 0.25  # so B = C = up puts C above A and A + B - C
        near = 0.9999999999999993
        assert near + 1.0 - 0.9999999999999991 > 1.0  # B = 1 and C just under A: p above 1
        cases = [(0.3, 0.4, np.nextafter(0.3, 1.0)),  # C one ulp above A
                 (0.25, up, up),
                 (0.3, below_a, 0.2),
                 (0.3, 0.2, 0.2),                     # B = C
                 (near, 1.0, 0.9999999999999991),
                 (1.0, 1.0, 1.0),                     # nobody jams, interference-limited
                 (0.0, 0.0, 0.0),                     # gamma_e = inf
                 (0.3, 0.5, 0.15)]                    # C = A B, no rounding at stake
        grid = sorted({w for e in (0.0, 0.1, 0.25, 0.5, 0.9) for w in (np.nextafter(e, 0.0), e,
                                                                      np.nextafter(e, 1.0))
                       if 0.0 <= w < 1.0})
        for x, y, z in cases:
            p = min(x + y - min(z, x, y), 1.0)
            u2s = sorted({w / p if p else 0.0 for e in (x, z) for w in (np.nextafter(e, 0.0), e,
                                                                     np.nextafter(e, 1.0))}
                         | set(grid))
            eve = np.array([(u0, u1, u2) for u0 in grid for u1 in grid for u2 in u2s
                            if u2 < 1.0])
            t = len(eve)
            for m in (0, 1, 3):
                got = _first_hits(eve, np.full(t, x), np.full(t, y), np.full(t, z), m)
                want = first_hits(eve, np.full(t, x), np.full(t, y), np.full(t, z), m)
                assert np.array_equal(got, np.stack(want, axis=1))
                assert np.all((got >= 1.0) & (got <= m + 1.0))

    def test_e2e_is_or_of_hops(self):
        rng = trial_rng(40, 0)
        for _ in range(50):
            vals = rng.exponential(size=2)
            h1, h2 = rng.integers(1, 4, size=2)  # 3 = m + 1: no eavesdropper of 2
            flags = classify_outage(self.record(*vals, h1, h2), self.CFG)
            assert flags["t_e2e"] == (flags["t_hop1"] or flags["t_hop2"])
            assert flags["s_e2e"] == (flags["s_hop1"] or flags["s_hop2"])
            assert flags["t_both"] == (flags["t_hop1"] and flags["t_hop2"])
            assert flags["s_both"] == (flags["s_hop1"] and flags["s_hop2"])
            assert (flags["s_hop1"], flags["s_hop2"]) == (h1 <= 2, h2 <= 2)
            assert flags["eve_hits_hop1"] == (h1 == 1)

    def test_no_eavesdroppers_no_secrecy_outage(self):
        # with m = 0 every first hit is capped at 1: no eavesdropper
        cfg = ScenarioConfig(n=3, m=0, gamma_r=1.0, gamma_e=1.0)
        flags = classify_outage(self.record(5.0, 5.0, 1, 1), cfg)
        assert not flags["s_e2e"] and flags["eve_hits_hop1"] == 0
