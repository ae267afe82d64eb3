"""Channel sampling and SINR tests against distributional oracles."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest

from relaysec import (ChannelRealization, ScenarioConfig, SeedStream, execute_two_hop,
                      sample_realization, select_relay_optimal, sinr, trial_rng, trial_words)
from relaysec.channel import _thread_generator


def make_realization(s_r, rr_cond, r_d, eve, toward=0):
    """Hand-built batch of one whose relay-pair gains are those toward relay `toward`.

    rr_cond lists every relay-pair gain for j < k, row-major; eve[i] is
    eavesdropper i's uniform.
    """
    n, m = len(s_r), len(eve)
    pairs = dict(zip(condensed_pairs(n), rr_cond))
    to_relay = [pairs[min(j, toward), max(j, toward)] for j in range(n) if j != toward]

    def row(values, *shape):
        return np.asarray(values, dtype=float).reshape(1, *shape)

    return ChannelRealization(n=n, m=m, pick=None, s_r=row(s_r, n),
                              to_relay=row(to_relay, n - 1), r_d=row(r_d, n),
                              eve=row(eve, m))


def sample_block(cfg, seed, trials, start=0, kind="optimal-maxmin", legs="shared"):
    """Hop-1 and hop-2 blocks of trials [start, start + trials) of `seed`'s stream."""
    return sample_realization(cfg, SeedStream(seed), start, start + trials,
                              maxmin=kind == "optimal-maxmin", independent=legs == "independent")


class TestSampleGain:
    """`SeedStream.exponentials`, the unit-mean draw every channel gain comes from."""

    def test_unit_mean(self):
        # law of large numbers: sigma/sqrt(N) = 0.001 at 1e6 draws
        draws = SeedStream(42).exponentials(0, 1, 1_000_000)[0]
        assert abs(draws.mean() - 1.0) < 0.01

    def test_nonnegative_support(self):
        draws = SeedStream(42).exponentials(1, 2, 10_000)[0]
        assert np.count_nonzero(draws < 0) == 0

    def test_mgf_identity_gamma_one(self):
        # E[e^{-X}] = 1/2 exactly for a unit-mean exponential
        vals = np.exp(-SeedStream(42).exponentials(2, 3, 1_000_000)[0])
        assert abs(vals.mean() - 0.5) < 0.002

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_mgf_identity_three_se(self, gamma):
        t = int(gamma * 10)
        vals = np.exp(-gamma * SeedStream(43).exponentials(t, t + 1, 1_000_000)[0])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / (1.0 + gamma)) < 3 * se

    def test_cdf_in_dkw_band(self):
        # sup |F_hat - F| <= sqrt(ln(2/alpha)/(2N)), alpha = 1e-3
        n_samples = 100_000
        draws = np.sort(SeedStream(44).exponentials(0, 1, n_samples)[0])
        band = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n_samples))
        grid = np.linspace(0.05, 5.0, 60)
        emp = np.searchsorted(draws, grid, side="right") / n_samples
        exact = 1.0 - np.exp(-grid)
        assert np.max(np.abs(emp - exact)) <= band

    def test_independent_successive_draws(self):
        a = SeedStream(45).exponentials(0, 1, 1000)[0]
        lag1 = np.corrcoef(a[:-1], a[1:])[0, 1]
        assert abs(lag1) < 0.1


def condensed_pairs(n):
    """Relay pairs (j, k), j < k, in row-major order."""
    return [(j, k) for j in range(n - 1) for k in range(j + 1, n)]


M64 = (1 << 64) - 1


def philox_reference(seed, first_word, words):
    """Uniforms of `words` words of seed's stream from `first_word` on, from a fresh Philox."""
    bits = np.random.Philox(key=(seed & M64) | (3 << 64), counter=first_word // 4)
    return (bits.random_raw(words) >> np.uint64(11)) * 2.0 ** -53


def trial_reference(cfg, seed, trial, maxmin, independent):
    """Trial's W words as gains (the relay index and eavesdropper words left uniform), and W."""
    width = trial_words(cfg, maxmin=maxmin, independent=independent)
    u = philox_reference(seed, trial * width, width)
    g = -np.log1p(-u)
    read = (3 * cfg.n - 1 if maxmin else 2 * cfg.n + 1) + (cfg.n if independent else 0) + cfg.m
    g[read - cfg.m:] = u[read - cfg.m:]
    if not maxmin:
        g[0] = u[0]
    return g, width


class TestTrialStreams:
    """One held Philox per thread, repositioned for every draw: it reads like a fresh one."""

    @pytest.mark.parametrize("seed", [0, 7, -3, 2**64 + 5])
    @pytest.mark.parametrize("trial", [0, 5, 2**40 + 3])
    def test_rekeyed_equals_fresh_philox(self, seed, trial):
        stream = SeedStream(seed)
        stream.uniforms(trial + 1, trial + 3, 12)  # the held Philox moves on
        got = stream.uniforms(trial, trial + 2, 12)
        assert np.array_equal(got.ravel(), philox_reference(seed, trial * 12, 24))

    @pytest.mark.parametrize("leftover", [
        lambda rng: rng.integers(0, 11),  # leaves half a 64-bit word buffered
        lambda rng: rng.standard_exponential(3),  # part of the Philox output block
    ], ids=["half_word", "partial_exponential"])
    def test_previous_trial_leaves_nothing_behind(self, leftover):
        # whatever state the held Philox is left in, a draw sets all of it
        stream = SeedStream(7)
        stream.uniforms(4, 5, 8)
        leftover(_thread_generator())
        assert np.array_equal(stream.uniforms(5, 6, 8)[0], philox_reference(7, 40, 8))

    def test_out_of_order_reuse(self):
        stream = SeedStream(-3)
        for row in (5, 0, 5):
            got = stream.uniforms(row, row + 1, 6)[0]
            assert np.array_equal(got, philox_reference(-3, row * 8, 8)[:6])

    def test_interleaved_streams_draw_what_each_draws_alone(self):
        # streams share their thread's Philox, so each draw must set all of it
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
        # more threads than cores re-key their own Philox in a loop, one
        # stream shared by all and one each, with thread switches forced
        # often; a Philox shared across threads would hand one thread's
        # counter to another
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
        # every gain of trial t is its slice of -log1p(-u) over words [t W, (t+1) W),
        # and the eavesdroppers' uniforms are the last m words it reads
        for n, m, maxmin, independent in itertools.product((1, 2, 7), (0, 1, 3), (True, False),
                                                           (False, True)):
            cfg = ScenarioConfig(n=n, m=m, gamma_r=1.0, gamma_e=1.0)
            hop1, hop2 = sample_realization(cfg, SeedStream(5), 3, 4, maxmin=maxmin,
                                            independent=independent)
            g, width = trial_reference(cfg, 5, 3, maxmin, independent)
            if maxmin:
                head = [hop1.s_r[0], hop1.r_d[0], hop1.to_relay[0]]
            else:
                sel = int(g[0] * n)
                assert hop1.pick[0] == sel
                head = [[g[0]], hop1.s_r[0, [sel]], hop1.to_relay[0], hop1.r_d[0]]
            if independent:
                head += [hop2.r_d[0]]
                assert hop2.eve is hop1.eve
            used = np.concatenate(head + [hop1.eve[0]])
            assert np.array_equal(used, g[:len(used)])
            assert width - 4 < len(used) <= width

    def test_pair_enumeration_n2_m1(self):
        # one gain per legitimate link read: S-R (both under max-min, the
        # relay's under random), the relay pair, R0-D, R1-D; one uniform for E0
        cfg = ScenarioConfig(n=2, m=1, gamma_r=1.0, gamma_e=1.0)
        assert trial_words(cfg, maxmin=True, independent=False) == 8   # 6 words read
        assert trial_words(cfg, maxmin=False, independent=False) == 8  # 6
        assert trial_words(cfg, maxmin=True, independent=True) == 8    # 8
        assert trial_words(cfg, maxmin=False, independent=True) == 8   # 8
        real, _ = sample_block(cfg, 1, 1)
        assert (real.s_r.shape, real.to_relay.shape, real.r_d.shape) == ((1, 2), (1, 1), (1, 2))
        assert real.eve.shape == (1, 1)

    def test_pair_enumeration_n1_m0(self):
        # S-R0 and R0-D only: no relay pairs, no eavesdropper links
        cfg = ScenarioConfig(n=1, m=0, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            real, _ = sample_block(cfg, 1, 1, kind=kind)
            assert (real.s_r.shape, real.to_relay.shape, real.r_d.shape) == ((1, 1), (1, 0), (1, 1))
            assert real.eve.shape == (1, 0)
            assert math.isnan(real.gains_to_relay(np.array([0]))[0, 0])

    def test_same_seed_identical(self):
        cfg = ScenarioConfig(n=5, m=3, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            a, _ = sample_block(cfg, 99, 1, start=4, kind=kind)
            b, _ = sample_block(cfg, 99, 3, start=2, kind=kind)
            for field in ("s_r", "to_relay", "r_d", "eve"):
                assert np.array_equal(getattr(a, field)[0], getattr(b, field)[2], equal_nan=True)

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
        real, _ = sample_block(cfg, 3, 50)
        sel = select_relay_optimal(real.s_r, real.r_d)
        rec = execute_two_hop(real, real, sel, 0.0, cfg)  # tau = 0: nobody jams, N0/2 = 1
        rows = np.arange(50)
        assert np.array_equal(rec.sinr_relay, real.s_r[rows, sel])
        assert np.array_equal(rec.sinr_dest, real.r_d[rows, sel])

    def test_gains_to_relay_matches_pairs(self):
        for n in (2, 4, 7):
            real = ChannelRealization(n=n, m=0, pick=None, s_r=np.ones((n, n)),
                                      to_relay=np.tile(np.arange(1.0, n), (n, 1)),
                                      r_d=np.ones((n, n)), eve=np.ones((n, 0)))
            got = real.gains_to_relay(np.arange(n))  # row j: the gains toward relay j
            for j in range(n):
                assert math.isnan(got[j, j])
                assert got[j, :j].tolist() == list(range(1, j + 1))
                assert got[j, j + 1:].tolist() == list(range(j + 1, n))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_block_gains_to_relay_matches_condensed_reference(self, n):
        # every row picks its own relay: first, middle and last, in turn
        cfg = ScenarioConfig(n=n, m=1, gamma_r=1.0, gamma_e=1.0)
        real, _ = sample_block(cfg, 12, 9)
        selected = np.array([0, n // 2, n - 1] * 3)
        got = real.gains_to_relay(selected)
        assert got.shape == (9, n)
        for row, j in enumerate(selected):
            want = np.insert(real.to_relay[row], j, math.nan)
            assert np.array_equal(got[row], want, equal_nan=True)

    def test_all_gains_finite_nonnegative(self):
        cfg = ScenarioConfig(n=6, m=3, gamma_r=1.0, gamma_e=1.0)
        for kind in ("optimal-maxmin", "random-uniform"):
            hop1, hop2 = sample_block(cfg, 8, 200, kind=kind, legs="independent")
            drawn = hop1.s_r[np.arange(200), hop1.pick] if hop1.pick is not None else hop1.s_r
            for g in (drawn, hop1.to_relay, hop1.r_d, hop2.r_d):
                assert np.all(np.isfinite(g)) and np.all(g >= 0)
            assert np.all((hop1.eve >= 0) & (hop1.eve < 1))


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
