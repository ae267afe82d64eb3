"""Channel sampling and SINR tests against distributional oracles."""

import math

import numpy as np
import pytest

from relaysec import (ChannelRealization, ScenarioConfig, realization_size,
                      sample_realization, sinr, trial_rng)
from relaysec.channel import trial_streams


def make_realization(s_r, rr_cond, r_d, s_d, s_e, r_e):
    """Hand-built batch of one; rr_cond lists relay-pair gains for j < k, row-major."""
    cfg = ScenarioConfig(n=len(s_r), m=len(s_e), gamma_r=1.0, gamma_e=1.0)
    row = np.concatenate([np.asarray(g, dtype=float).ravel()
                          for g in (s_r, rr_cond, r_d, [s_d], s_e, r_e)])
    return ChannelRealization.from_draws(cfg, row[None])


def draw_rows(cfg, seed, trials, start=0):
    """Realization rows of trials [start, start + trials), each drawn on its own substream."""
    draws = np.empty((trials, realization_size(cfg)))
    for t, row in enumerate(draws):
        sample_realization(cfg, trial_rng(seed, start + t), row)
    return draws


def sample_block(cfg, seed, trials, start=0):
    """The block of realizations `draw_rows` draws."""
    return ChannelRealization.from_draws(cfg, draw_rows(cfg, seed, trials, start))


def to_relay_reference(real, row, j):
    """Gains toward relay j in one row, looked up pair by pair in condensed order."""
    pos = {pair: i for i, pair in enumerate(condensed_pairs(real.n))}
    return [math.nan if k == j else real.rr_cond[row, pos[min(j, k), max(j, k)]]
            for k in range(real.n)]


class TestSampleGain:
    """The unit-mean exponential draw every channel gain comes from."""

    def test_unit_mean(self):
        # law of large numbers: sigma/sqrt(N) = 0.001 at 1e6 draws
        rng = trial_rng(42, 0)
        draws = rng.exponential(1.0, size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.01

    def test_nonnegative_support(self):
        rng = trial_rng(42, 1)
        draws = rng.exponential(size=10_000)
        assert np.count_nonzero(draws < 0) == 0

    def test_mgf_identity_gamma_one(self):
        # E[e^{-X}] = 1/2 exactly for a unit-mean exponential
        rng = trial_rng(42, 2)
        vals = np.exp(-rng.exponential(1.0, size=1_000_000))
        assert abs(vals.mean() - 0.5) < 0.002

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_mgf_identity_three_se(self, gamma):
        rng = trial_rng(43, int(gamma * 10))
        vals = np.exp(-gamma * rng.exponential(1.0, size=1_000_000))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / (1.0 + gamma)) < 3 * se

    def test_cdf_in_dkw_band(self):
        # sup |F_hat - F| <= sqrt(ln(2/alpha)/(2N)), alpha = 1e-3
        n_samples = 100_000
        rng = trial_rng(44, 0)
        draws = np.sort(rng.exponential(1.0, size=n_samples))
        band = math.sqrt(math.log(2.0 / 1e-3) / (2.0 * n_samples))
        grid = np.linspace(0.05, 5.0, 60)
        emp = np.searchsorted(draws, grid, side="right") / n_samples
        exact = 1.0 - np.exp(-grid)
        assert np.max(np.abs(emp - exact)) <= band

    def test_independent_successive_draws(self):
        rng = trial_rng(45, 0)
        a = np.array([rng.exponential() for _ in range(1000)])
        lag1 = np.corrcoef(a[:-1], a[1:])[0, 1]
        assert abs(lag1) < 0.1


def condensed_pairs(n):
    """Relay pairs (j, k), j < k, in the row-major order rr_cond stores them."""
    return [(j, k) for j in range(n - 1) for k in range(j + 1, n)]


M64 = (1 << 64) - 1


def philox_reference(seed, trial):
    """A freshly keyed generator for substream (seed, trial), built without the library."""
    return np.random.Generator(np.random.Philox(key=(seed & M64) << 64 | (trial & M64)))


def draw_all(rng):
    return (rng.standard_exponential(200), rng.integers(0, 11), rng.integers(0, 11, size=7))


def assert_same_draws(rng, ref):
    for got, want in zip(draw_all(rng), draw_all(ref)):
        assert np.array_equal(got, want)


class TestTrialStreams:
    @pytest.mark.parametrize("seed", [0, 7, -3, 2**64 + 5])
    @pytest.mark.parametrize("trial", [0, 5, 2**40 + 3])
    def test_rekeyed_equals_fresh_philox(self, seed, trial):
        assert_same_draws(trial_streams(seed)(trial), philox_reference(seed, trial))

    @pytest.mark.parametrize("leftover", [
        lambda rng: rng.integers(0, 11),  # leaves half a 64-bit word buffered
        lambda rng: rng.standard_exponential(3),  # part of the Philox output block
    ], ids=["half_word", "partial_exponential"])
    def test_previous_trial_leaves_nothing_behind(self, leftover):
        at = trial_streams(7)
        leftover(at(4))
        assert_same_draws(at(5), philox_reference(7, 5))

    def test_out_of_order_reuse(self):
        at = trial_streams(-3)
        for trial in (5, 0, 5):
            assert_same_draws(at(trial), philox_reference(-3, trial))


class TestSampleRealization:
    def test_row_matches_one_exponential_draw(self):
        # drawing into a row is the same stream, and leaves it at the same place
        for n, m in ((1, 0), (2, 1), (7, 3)):
            cfg = ScenarioConfig(n=n, m=m, gamma_r=1.0, gamma_e=1.0)
            row = np.empty(realization_size(cfg))
            rng, ref = trial_rng(5, n), trial_rng(5, n)
            sample_realization(cfg, rng, row)
            assert np.array_equal(row, ref.exponential(1.0, size=realization_size(cfg)))
            assert rng.integers(0, 1000) == ref.integers(0, 1000)

    def test_pair_enumeration_n2_m1(self):
        # one gain per pair: S-R0, S-R1, R0-R1, R0-D, R1-D, S-D, S-E0, R0-E0, R1-E0
        cfg = ScenarioConfig(n=2, m=1, gamma_r=1.0, gamma_e=1.0)
        assert realization_size(cfg) == 9
        real = sample_block(cfg, 1, 1)
        assert (real.s_r.shape, real.rr_cond.shape, real.r_d.shape) == ((1, 2), (1, 1), (1, 2))
        assert real.s_d.shape == (1,)
        assert (real.s_e.shape, real.r_e.shape) == ((1, 1), (1, 2, 1))

    def test_pair_enumeration_n1_m0(self):
        # S-R0, R0-D and S-D only: no relay pairs, no eavesdropper links
        cfg = ScenarioConfig(n=1, m=0, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 1, 1)
        assert (real.s_r.shape, real.rr_cond.shape, real.r_d.shape) == ((1, 1), (1, 0), (1, 1))
        assert (real.s_e.shape, real.r_e.shape) == ((1, 0), (1, 1, 0))
        assert math.isnan(real.gains_to_relay(np.array([0]))[0, 0])

    def test_same_seed_identical(self):
        cfg = ScenarioConfig(n=5, m=3, gamma_r=1.0, gamma_e=1.0)
        a = sample_block(cfg, 99, 1, start=4)
        b = sample_block(cfg, 99, 1, start=4)
        assert np.array_equal(a.s_r, b.s_r)
        assert np.array_equal(a.rr_cond, b.rr_cond)
        assert np.array_equal(a.r_d, b.r_d)
        assert np.array_equal(a.s_d, b.s_d)
        assert np.array_equal(a.s_e, b.s_e)
        assert np.array_equal(a.r_e, b.r_e)

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
        cfg = ScenarioConfig(n=4, m=2, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 3, 1)
        toward = [real.gains_to_relay(np.array([j]))[0] for j in range(4)]
        for j in range(4):
            for k in range(4):
                if j != k:
                    assert toward[j][k] == toward[k][j]

    def test_gains_to_relay_matches_pairs(self):
        for n in (2, 4, 7):
            cfg = ScenarioConfig(n=n, m=0, gamma_r=1.0, gamma_e=1.0)
            real = sample_block(cfg, 3, 1, start=1)
            toward = [real.gains_to_relay(np.array([j]))[0] for j in range(n)]
            for pos, (j, k) in enumerate(condensed_pairs(n)):
                assert toward[j][k] == real.rr_cond[0, pos]
                assert toward[k][j] == real.rr_cond[0, pos]
            for j in range(n):
                assert math.isnan(toward[j][j])

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_block_gains_to_relay_matches_condensed_reference(self, n):
        # every row picks its own relay: first, middle and last, in turn
        cfg = ScenarioConfig(n=n, m=1, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 12, 9)
        selected = np.array([0, n // 2, n - 1] * 3)
        got = real.gains_to_relay(selected)
        assert got.shape == (9, n)
        for row, j in enumerate(selected):
            assert np.array_equal(got[row], to_relay_reference(real, row, j), equal_nan=True)

    def test_all_gains_finite_nonnegative(self):
        cfg = ScenarioConfig(n=6, m=3, gamma_r=1.0, gamma_e=1.0)
        real = sample_block(cfg, 8, 1)
        for g in (real.s_r, real.rr_cond, real.r_d, real.s_d, real.s_e, real.r_e):
            assert np.all(np.isfinite(g)) and np.all(np.asarray(g) >= 0)


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


    @pytest.mark.parametrize("m", [None, 1, 3])
    def test_block_matches_per_trial_sums(self, m):
        # the loop version is the reference: a block must reproduce, bit for
        # bit, np.sum over each trial's jammer set taken on its own
        rng = trial_rng(11, m or 0)
        t, n = 200, 40
        trailing = () if m is None else (m,)
        gains = rng.exponential(size=(t, n) + trailing)
        signal = rng.exponential(size=(t,) + trailing)
        jammers = rng.random((t, n)) < rng.random((t, 1))
        got = sinr(signal, gains, jammers, self.CFG_EXACT)
        for row in range(t):
            interference = np.sum(gains[row][jammers[row]], axis=0)
            want = signal[row] / (interference + 0.5)
            assert np.array_equal(got[row], want)


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
