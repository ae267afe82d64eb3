"""Channel sampling and SINR tests against distributional oracles."""

import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from relaysec import (ChannelRealization, ScenarioConfig, SeedStream, execute_two_hop,
                      sample_realization, select_relay_optimal, trial_words)
from relaysec.channel import (_thread_generator, _uniform_threshold, count_cap, gain, sinr,
                              sinr_many, trial_rng)

from . import reference


def uniforms_of(gains):
    """The uniforms whose gains -log1p(-u) are `gains`, to rounding."""
    return -np.expm1(-np.asarray(gains, dtype=float))


def make_realization(s_r, rr_cond, r_d, eve=(0.5, 0.5, 0.5), toward=0, r_d2=None):
    """Hand-built max-min block of one whose relay-pair gains are those toward relay `toward`.

    rr_cond lists every relay-pair gain for j < k, row-major; every gain is
    stored as its uniform, in the max-min layout: s_r, to_relay, r_d, or
    with `r_d2` (independent legs, hop 2 reading r_d2) s_r, r_d, to_relay,
    r_d2. eve is the trial's three eavesdropper uniforms u0, u1, u2.
    """
    n = len(s_r)
    pairs = dict(zip(condensed_pairs(n), rr_cond))
    to_relay = [pairs[min(j, toward), max(j, toward)] for j in range(n) if j != toward]
    head = [*s_r, *r_d] if r_d2 is not None else [*s_r]
    gains = [*head, *to_relay, *(r_d if r_d2 is None else r_d2)]
    words = np.concatenate((uniforms_of(gains), np.asarray(eve, dtype=float)))
    return ChannelRealization(n=n, maxmin=True, independent=r_d2 is not None,
                              words=words[None])


def sample_block(cfg, seed, trials, start=0, kind="optimal-maxmin", legs="shared", tau=1.0):
    """The block of trials [start, start + trials) of `seed`'s stream at threshold `tau`:
    per-relay rows at the default tau = 1, for any n."""
    return sample_realization(cfg, SeedStream(seed), start, start + trials,
                              maxmin=kind == "optimal-maxmin", independent=legs == "independent",
                              cap=count_cap(cfg.n, tau))


def row_gains(seed, row, size):
    """The gains of `size` uniforms of `seed`'s row `row`: the draw every channel gain is."""
    return gain(SeedStream(seed).uniforms(row, row + 1, size)[0])


class TestSampleGain:
    """`gain` over `SeedStream.uniforms`, the unit-mean draw every channel gain comes from."""

    def test_unit_mean(self):
        # law of large numbers: sigma/sqrt(N) = 0.001 at 1e6 draws
        draws = row_gains(42, 0, 1_000_000)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_nonnegative_support(self):
        draws = row_gains(42, 1, 10_000)
        assert np.count_nonzero(draws < 0) == 0

    def test_mgf_identity_gamma_one(self):
        # E[e^{-X}] = 1/2 exactly for a unit-mean exponential
        vals = np.exp(-row_gains(42, 2, 1_000_000))
        assert abs(vals.mean() - 0.5) < 0.002

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_mgf_identity_three_se(self, gamma):
        t = int(gamma * 10)
        vals = np.exp(-gamma * row_gains(43, t, 1_000_000))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / (1.0 + gamma)) < 3 * se

    def test_cdf_in_dkw_band(self):
        # sup |F_hat - F| <= sqrt(ln(2/alpha)/(2N)), alpha = 1e-3
        n_samples = 100_000
        draws = np.sort(row_gains(44, 0, n_samples))
        band = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n_samples))
        grid = np.linspace(0.05, 5.0, 60)
        emp = np.searchsorted(draws, grid, side="right") / n_samples
        exact = 1.0 - np.exp(-grid)
        assert np.max(np.abs(emp - exact)) <= band

    def test_independent_successive_draws(self):
        a = row_gains(45, 0, 1000)
        lag1 = np.corrcoef(a[:-1], a[1:])[0, 1]
        assert abs(lag1) < 0.1


def condensed_pairs(n):
    """Relay pairs (j, k), j < k, in row-major order."""
    return [(j, k) for j in range(n - 1) for k in range(j + 1, n)]


class TestTrialStreams:
    """One held generator per thread, repositioned for every draw: it reads like a fresh one."""

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**64 + 5])
    @pytest.mark.parametrize("trial", [0, 5, 2**40 + 3])
    def test_rekeyed_equals_fresh_philox(self, seed, trial):
        stream = SeedStream(seed)
        stream.uniforms(trial + 1, trial + 3, 12)  # the held generator moves on
        got = stream.uniforms(trial, trial + 2, 12)
        assert np.array_equal(got.ravel(), reference.stream_words(seed, trial * 12, 24))

    @pytest.mark.parametrize("leftover", [
        lambda rng: rng.integers(0, 11),  # leaves half a 64-bit word buffered
        lambda rng: rng.standard_exponential(3),  # a few words of an unrelated draw
    ], ids=["half_word", "partial_exponential"])
    def test_previous_trial_leaves_nothing_behind(self, leftover):
        # whatever state the held generator is left in, a draw sets all of it
        stream = SeedStream(7)
        stream.uniforms(4, 5, 8)
        leftover(_thread_generator())
        assert np.array_equal(stream.uniforms(5, 6, 8)[0], reference.stream_words(7, 40, 8))

    def test_out_of_order_reuse(self):
        stream = SeedStream(-3)
        for row in (5, 0, 5):
            got = stream.uniforms(row, row + 1, 6)[0]
            assert np.array_equal(got, reference.stream_words(-3, row * 6, 6))

    def test_far_into_the_stream(self):
        # rows [2**63 - 2, 2**63) of a 3,010-word table start about 2**74.6
        # words in: an offset computed in 64-bit arithmetic would wrap
        lo, words = 2 ** 63 - 2, 3010
        got = SeedStream(9).uniforms(lo, lo + 2, words)
        assert np.array_equal(got.ravel(), reference.stream_words(9, lo * words, 2 * words))

    @pytest.mark.parametrize("lo", [0, 3, 2 ** 62 + 1])
    def test_split_rows_stack(self, lo):
        stream = SeedStream(13)
        for words in (1, 5, 12):
            whole = stream.uniforms(lo, lo + 7, words)
            for mid in (lo + 1, lo + 4):
                parts = np.vstack((stream.uniforms(lo, mid, words),
                                   stream.uniforms(mid, lo + 7, words)))
                assert np.array_equal(whole, parts)

    def test_rows_are_one_sequential_read(self):
        # one read from word 0 holds every row
        raw = reference.stream_words(-3, 0, 400)
        stream = SeedStream(-3)
        for lo, hi, words in ((0, 1, 7), (2, 5, 7), (10, 13, 11), (39, 40, 10)):
            assert np.array_equal(stream.uniforms(lo, hi, words).ravel(),
                                  raw[lo * words:hi * words])

    def test_interleaved_streams_draw_what_each_draws_alone(self):
        # streams share their thread's generator, so each draw must set all of it
        rows = [(3, 5), (0, 1), (3, 5), (9, 12)]
        alone = {seed: [SeedStream(seed).uniforms(lo, hi, 7) for lo, hi in rows]
                 for seed in (11, 12)}
        a, b = SeedStream(11), SeedStream(12)
        for i, (lo, hi) in enumerate(rows):
            assert np.array_equal(a.uniforms(lo, hi, 7), alone[11][i])
            assert np.array_equal(b.uniforms(lo, hi, 7), alone[12][i])

    def test_draw_in_a_thread_matches_main_thread(self):
        stream = SeedStream(21)
        want = stream.uniforms(2, 6, 10)
        got = []
        worker = threading.Thread(target=lambda: got.append(stream.uniforms(2, 6, 10)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert np.array_equal(got[0], want)

    def test_concurrent_threads_match_main_thread(self):
        # more threads than cores re-state their own generator in a loop, one
        # stream shared by all and one each, with thread switches forced
        # often; a generator shared across threads would hand one thread's
        # state to another
        shared = SeedStream(5)
        plans = [(SeedStream(30 + i), [(r, r + 2 + i) for r in range(7 * i, 200, 5 + i)])
                 for i in range(4)]
        want = [[(own.uniforms(lo, hi, 9), shared.uniforms(lo, hi, 9)) for lo, hi in rows]
                for own, rows in plans]
        start = threading.Barrier(len(plans))
        got = [None] * len(plans)

        def draw(i):
            own, rows = plans[i]
            start.wait()
            got[i] = [(own.uniforms(lo, hi, 9), shared.uniforms(lo, hi, 9))
                      for _ in range(10) for lo, hi in rows]

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(len(plans))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i, rows in enumerate(want):
            assert len(got[i]) == 10 * len(rows)
            for k, (own, other) in enumerate(got[i]):
                assert np.array_equal(own, rows[k % len(rows)][0])
                assert np.array_equal(other, rows[k % len(rows)][1])


class TestSampleRealization:
    def test_row_matches_one_exponential_draw(self):
        # every field of trial t is its slice of the uniforms of words
        # [t W, (t+1) W), the three eavesdropper uniforms the last words it
        # reads, whatever m is
        for n, m, maxmin, independent in itertools.product((1, 2, 7), (0, 1, 3), (True, False),
                                                           (False, True)):
            cfg = ScenarioConfig(n=n, m=m, gamma_r=1.0, gamma_e=1.0)
            real = sample_realization(cfg, SeedStream(5), 3, 4, maxmin=maxmin,
                                      independent=independent, cap=None)
            width = reference.trial_words(n, maxmin, independent)  # the README table's W
            u = reference.stream_words(5, 3 * width, width)
            if maxmin:
                head = [real["s_r"][0]] + [real["r_d"][0]] * independent
            else:
                assert real.pick[0] == int(u[0] * n)
                head = [[u[0]], real["s_r"][0]]
            if not (maxmin and independent):  # hop 2 reads the r_d words
                assert np.array_equal(real["r_d2"], real["r_d"])
            used = np.concatenate(head + [real["to_relay"][0], real["r_d2"][0], real["eve"][0]])
            assert np.array_equal(used, u[:len(used)])
            assert len(used) == width

    def test_pair_enumeration_n2_m1(self):
        # one gain per legitimate link read: S-R (both under max-min, the
        # relay's under random), the relay pair, R0-D, R1-D; three
        # eavesdropper uniforms for any m
        cfg = ScenarioConfig(n=2, m=1, gamma_r=1.0, gamma_e=1.0)
        assert trial_words(cfg, maxmin=True, independent=False, cap=None) == 8   # the words read
        assert trial_words(cfg, maxmin=False, independent=False, cap=None) == 8
        assert trial_words(cfg, maxmin=True, independent=True, cap=None) == 10
        assert trial_words(cfg, maxmin=False, independent=True, cap=None) == 8  # no word but hop 2's reads r_d
        for m in (0, 5, 10 ** 6):
            assert trial_words(replace(cfg, m=m), maxmin=True, independent=False, cap=None) == 8
        real = sample_block(cfg, 1, 1)
        assert (real["s_r"].shape, real["to_relay"].shape, real["r_d"].shape) == ((1, 2), (1, 1), (1, 2))
        assert real["eve"].shape == (1, 3)
        assert sample_block(cfg, 1, 1, kind="random-uniform")["s_r"].shape == (1, 1)

    def test_pair_enumeration_n1_m0(self):
        # S-R0 and R0-D only: no relay pairs, no eavesdropper links, and
        # the three eavesdropper words a trial always reads
        cfg = ScenarioConfig(n=1, m=0, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            real = sample_block(cfg, 1, 1, kind=kind)
            assert (real["s_r"].shape, real["to_relay"].shape, real["r_d"].shape) == ((1, 1), (1, 0), (1, 1))
            assert real["eve"].shape == (1, 3)
            assert math.isnan(real.gains_to_relay(np.array([0]))[0, 0])

    def test_same_seed_identical(self):
        cfg = ScenarioConfig(n=5, m=3, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            a = sample_block(cfg, 99, 1, start=4, kind=kind)
            b = sample_block(cfg, 99, 3, start=2, kind=kind)
            for field in ("s_r", "to_relay", "r_d", "eve"):
                assert np.array_equal(a[field][0], b[field][2])

    def test_substream_independent_of_creation_order(self):
        direct = trial_rng(7, 5).exponential()
        trial_rng(7, 0)
        trial_rng(7, 3)
        assert trial_rng(7, 5).exponential() == direct
        # two live generators on one substream never alias: drawing from
        # one leaves the other where it was
        a, b = trial_rng(7, 5), trial_rng(7, 5)
        assert a is not b and a.bit_generator is not b.bit_generator
        a.standard_exponential(10)
        a.integers(0, 11)
        assert b.exponential() == direct
        assert a.exponential() != direct

    def test_reciprocity_of_legitimate_pairs(self):
        # one draw per legitimate link: the S-R and R-D gains max-min selection
        # measured are the ones hop 1 and hop 2 transmit over
        cfg = ScenarioConfig(n=4, m=2, gamma_r=1.0, gamma_e=1.0, n0=2.0)
        real = sample_block(cfg, 3, 50)
        sel = select_relay_optimal(real["s_r"], real["r_d"])
        rec = execute_two_hop(real, sel, 0.0, cfg)  # nobody jams, N0/2 = 1
        rows = np.arange(50)
        assert np.array_equal(rec.sinr[:, 0], -np.log1p(-real["s_r"][rows, sel]))
        assert np.array_equal(rec.sinr[:, 1], -np.log1p(-real["r_d"][rows, sel]))

    @pytest.mark.parametrize("kind", ["optimal-maxmin", "random-uniform"])
    @pytest.mark.parametrize("legs", ["shared", "independent"])
    def test_kernel_sinr_matches_gain_level_sums(self, kind, legs):
        # the reference's gains toward each receiver, thresholded on the gains,
        # and the jammers' gains added one by one in relay order: the kernel's
        # SINRs bit for bit. At tau = 1 about 190 of 300 relays jam a hop,
        # where a pairwise sum and a relay-order sum part in the last bits
        cfg = ScenarioConfig(n=300, m=1, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 5, 40, kind=kind, legs=legs)
        sel = select_relay_optimal(real["s_r"], real["r_d"]) if real.maxmin else real.pick
        rec = execute_two_hop(real, sel, 1.0, cfg)
        gains, _ = reference.decode(5, 40, cfg.n, real.maxmin, real.independent)
        want = reference.two_hop(*gains, 1.0, cfg)
        assert np.array_equal(sel, want.selected)
        assert np.array_equal(rec.jammers, want.jammers)
        assert np.array_equal(rec.sinr, want.sinr)

    def test_gains_to_relay_matches_pairs(self):
        for n in (2, 4, 7):
            toward = uniforms_of(np.arange(1.0, n))
            words = np.hstack((np.full((n, n), 0.5), np.tile(toward, (n, 1)), np.full((n, n), 0.5)))
            real = ChannelRealization(n=n, maxmin=True, independent=False, words=words)
            got = real.gains_to_relay(np.arange(n))  # row j: the gains toward relay j
            want = gain(toward)  # relay i's gain toward relay j: gain i - 1 below j, i above
            for j in range(n):
                assert math.isnan(got[j, j])
                assert np.array_equal(got[j, :j], want[:j])
                assert np.array_equal(got[j, j + 1:], want[j:])

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_block_gains_to_relay_matches_condensed_reference(self, n):
        # every row picks its own relay: first, middle and last, in turn
        cfg = ScenarioConfig(n=n, m=1, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 12, 9)
        selected = np.array([0, n // 2, n - 1] * 3)
        got = real.gains_to_relay(selected)
        assert got.shape == (9, n)
        for row, j in enumerate(selected):
            want = np.insert(-np.log1p(-real["to_relay"][row]), j, math.nan)
            assert np.array_equal(got[row], want, equal_nan=True)

    def test_all_gains_finite_nonnegative(self):
        cfg = ScenarioConfig(n=6, m=3, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            real = sample_block(cfg, 8, 200, kind=kind, legs="independent")
            for u in (real["s_r"], real["to_relay"], real["r_d"], real["r_d2"], real["eve"]):
                assert np.all((u >= 0) & (u < 1))
                assert np.all(np.isfinite(gain(u))) and np.all(gain(u) >= 0)


# the golden grid's thresholds, 0, and one above every gain a uniform can give
THRESHOLDS = [0.0, 0.0191, 0.0415, 0.1, 1.0, 40.0]


class TestUniformThreshold:
    """u_tau: a relay jams iff its uniform is below it, as iff its gain is below tau."""

    @pytest.mark.parametrize("tau", THRESHOLDS)
    def test_agrees_with_gain_threshold_around_it(self, tau):
        # every grid uniform k 2**-53 within 2**16 steps of u_tau; the
        # comparison rests on numpy's log1p being monotone there
        u_tau = _uniform_threshold(tau)
        k_tau = int(u_tau * 2.0 ** 53)
        assert k_tau * 2.0 ** -53 == u_tau
        k = np.arange(max(k_tau - 2 ** 16, 0), min(k_tau + 2 ** 16, 2 ** 53 - 1) + 1)
        u = k * 2.0 ** -53
        assert np.array_equal(u < u_tau, -np.log1p(-u) < tau)

    def test_extremes(self):
        assert _uniform_threshold(0.0) == 0.0         # no gain is below 0
        assert _uniform_threshold(40.0) == 1.0        # every gain is below 40
        assert _uniform_threshold(math.inf) == 1.0
        with pytest.raises(ValueError):
            _uniform_threshold(-0.1)
        with pytest.raises(ValueError):
            _uniform_threshold(math.nan)


def sinr_one(signal, jammer_gains, config):
    """SINR of a single receiver in a batch of one, every listed relay jamming."""
    gains = np.asarray([jammer_gains], dtype=float).reshape(1, -1)
    return sinr(np.array([signal]), gains, np.ones(gains.shape, dtype=bool), config)[0]


class TestSinr:
    CFG_EXACT = ScenarioConfig(n=2, m=0, gamma_r=1.0, gamma_e=1.0, es=1.0, n0=1.0)
    CFG_IL = ScenarioConfig(n=2, m=0, gamma_r=1.0, gamma_e=1.0, es=1.0, n0=1.0,
                            noise_mode="interference-limited")

    def test_exact_with_jammer(self):
        assert sinr_one(2.0, [1.0], self.CFG_EXACT) == pytest.approx(4.0 / 3.0)

    def test_exact_no_jammers(self):
        assert sinr_one(2.0, [], self.CFG_EXACT) == pytest.approx(4.0)

    def test_interference_limited(self):
        assert sinr_one(2.0, [1.0, 3.0], self.CFG_IL) == pytest.approx(0.5)

    def test_unbounded_when_denominator_zero(self):
        assert sinr_one(2.0, [], self.CFG_IL) == math.inf
        assert sinr_one(2.0, [0.0, 0.0], self.CFG_IL) == math.inf

    def test_es_scales_signal_only_in_exact_mode(self):
        cfg = ScenarioConfig(n=2, m=0, gamma_r=1.0, gamma_e=1.0, es=4.0, n0=1.0)
        # 4*2 / (4*1 + 0.5)
        assert sinr_one(2.0, [1.0], cfg) == pytest.approx(8.0 / 4.5)

    def test_huge_es_overflows_to_inf(self):
        # Es g / (Es I + N0/2) would be inf/inf = NaN at Es = 1e308; an SINR
        # past the largest float is +inf, with no overflow warning
        cfg = ScenarioConfig(n=2, m=0, gamma_r=1.0, gamma_e=1.0, es=1e308, n0=1.0)
        got = sinr_many(np.array([2.0, 2.0]), np.array([0.0, 1.0]), cfg)
        assert got.tolist() == [math.inf, 2.0]

    def test_monotone_in_signal_and_jammers(self):
        rng = trial_rng(10, 0)
        for _ in range(200):
            sig = rng.exponential()
            jam = list(rng.exponential(size=rng.integers(0, 4)))
            base = sinr_one(sig, jam, self.CFG_EXACT)
            assert sinr_one(sig + 0.5, jam, self.CFG_EXACT) > base
            assert sinr_one(sig, jam + [0.3], self.CFG_EXACT) < base

    def test_rejects_negative_signal(self):
        with pytest.raises(ValueError):
            sinr_one(-1.0, [], self.CFG_EXACT)

    def test_block_matches_per_trial_sums(self):
        # the loop version is the reference: a block must reproduce, bit for
        # bit, each trial's own masked sum, and agree with the sum over its
        # jammer set alone to rounding
        rng = trial_rng(11, 0)
        t, n = 200, 40
        gains = rng.exponential(size=(t, n))
        signal = rng.exponential(size=t)
        jammers = rng.random((t, n)) < rng.random((t, 1))
        got = sinr(signal, gains, jammers, self.CFG_EXACT)
        for row in range(t):
            interference = np.where(jammers[row], gains[row], 0.0).sum()
            assert np.array_equal(got[row], signal[row] / (interference + 0.5))
            assert np.array_equal(got[row:row + 1], sinr(signal[row:row + 1], gains[row:row + 1],
                                                         jammers[row:row + 1], self.CFG_EXACT))
            alone = np.sum(gains[row][jammers[row]])
            assert np.allclose(got[row], signal[row] / (alone + 0.5), rtol=1e-14, atol=0)


class TestScenarioConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "m": 1, "gamma_r": 1.0, "gamma_e": 1.0},
        {"n": 1, "m": -1, "gamma_r": 1.0, "gamma_e": 1.0},
        {"n": 1, "m": 0, "gamma_r": 0.0, "gamma_e": 1.0},
        {"n": 1, "m": 0, "gamma_r": 1.0, "gamma_e": -2.0},
        {"n": 1, "m": 0, "gamma_r": 1.0, "gamma_e": 1.0, "es": 0.0},
        {"n": 1, "m": 0, "gamma_r": 1.0, "gamma_e": 1.0, "n0": -0.1},
        {"n": 1, "m": 0, "gamma_r": 1.0, "gamma_e": 1.0, "noise_mode": "thermal"},
        {"n": 1, "m": 0, "gamma_r": 1.0, "gamma_e": 1.0, "coherence_len": 0},
        {"n": 1, "m": 0, "gamma_r": 1.0, "gamma_e": 1.0, "eps_s": 1.5},
        {"n": 1, "m": 0, "gamma_r": 1.0, "gamma_e": 1.0, "es": math.inf},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    def test_noise_term(self):
        exact = ScenarioConfig(n=1, m=0, gamma_r=1.0, gamma_e=1.0, n0=3.0)
        il = ScenarioConfig(n=1, m=0, gamma_r=1.0, gamma_e=1.0, n0=3.0,
                            noise_mode="interference-limited")
        assert exact.noise_term == 1.5
        assert il.noise_term == 0.0
