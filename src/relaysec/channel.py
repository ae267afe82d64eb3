"""Rayleigh-fading channel sampling and SINR evaluation for a two-hop relay network.

The scenario is a source S talking to a destination D through one of n
candidate relays, with m passive eavesdroppers listening. Every link fades
independently with a unit-mean exponential power gain (Rayleigh amplitude,
equal path loss for all pairs). Legitimate pairs are reciprocal, one draw per
unordered pair, because relay and jammer decisions are made from pilot
measurements of those same links; eavesdropper links are directional draws
that nothing ever measures. One realization spans both hops of a transmission.

A realization is drawn as one flat row of exponential gains
(`sample_realization`, sized by `realization_size`); `ChannelRealization`
reads a block of T such rows as arrays with a leading trial axis, so
everything computed from the gains runs once per block.

Trial t of seed s draws from the Philox substream keyed by (s, t).
`trial_streams` re-keys one held generator to each trial in turn, which is
how runs loop over trials; `trial_rng` hands out a fresh, independent
generator on the same substream.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

NOISE_MODES = ("exact", "interference-limited")

_MASK64 = (1 << 64) - 1


def trial_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """Re-keyable substreams of one seed: `at(trial)` yields trial's generator.

    `at(trial)` puts one held Philox into exactly the state that
    `Philox(key=(seed << 64) | trial)` starts in (both words taken mod
    2**64): key [trial, seed] low word first, counter zero, empty output
    buffer and no half-used 64-bit word, so nothing a previous trial left
    buffered leaks into the next. It returns the same Generator every time,
    valid only until the next call. Re-keying reads no OS entropy and costs
    a few microseconds, against about 20 for constructing a new Philox.
    """
    key = np.array([0, seed & _MASK64], dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    bits = np.random.Philox(0)  # a fixed seed reads no OS entropy; `at` overwrites it
    rng = np.random.Generator(bits)

    def at(trial: int) -> np.random.Generator:
        key[0] = trial & _MASK64
        bits.state = state  # the setter copies every field; `state` itself never changes
        return rng

    return at


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """A fresh, independent generator on trial's counter-based substream.

    Philox is keyed with the packed (seed, trial) pair, so any worker can
    reproduce any trial's draws without sequential dependence on other
    trials. Same (seed, trial) gives a bit-identical stream regardless of
    worker count or execution order. Loops over many trials re-key one
    generator with `trial_streams` instead.
    """
    return trial_streams(seed)(trial)


@dataclass(frozen=True)
class ScenarioConfig:
    """All scenario parameters for one network setup.

    eps_s / eps_t are the secrecy / transmission outage budgets; they are
    optional because only the theorem-driven tau policies and the bound
    report need them.
    """

    n: int
    m: int
    gamma_r: float
    gamma_e: float
    es: float = 1.0
    n0: float = 1.0
    noise_mode: str = "exact"
    coherence_len: int = 1
    eps_s: float | None = None
    eps_t: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.gamma_r <= 0:
            raise ValueError(f"gamma_r must be > 0, got {self.gamma_r}")
        if self.gamma_e <= 0:
            raise ValueError(f"gamma_e must be > 0, got {self.gamma_e}")
        if self.es <= 0:
            raise ValueError(f"es must be > 0, got {self.es}")
        if self.n0 < 0:
            raise ValueError(f"n0 must be >= 0, got {self.n0}")
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}")
        if self.coherence_len < 1:
            raise ValueError(f"coherence_len must be >= 1, got {self.coherence_len}")
        for name in ("eps_s", "eps_t"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    @property
    def noise_term(self) -> float:
        """Noise power in the SINR denominator: N0/2, or 0 in interference-limited mode."""
        return 0.0 if self.noise_mode == "interference-limited" else self.n0 / 2.0


def realization_size(config: ScenarioConfig) -> int:
    """Gains in one realization: 2n + n(n-1)/2 + 1 + m + nm."""
    n, m = config.n, config.m
    return 2 * n + n * (n - 1) // 2 + 1 + m + n * m


def sample_realization(config: ScenarioConfig, rng: np.random.Generator,
                       out: np.ndarray) -> np.ndarray:
    """Draw one channel realization of `config` into the row `out` and return it.

    `out` holds realization_size(config) unit-mean exponential gains in a
    fixed layout (s_r, rr_cond, r_d, s_d, s_e, r_e row-major; see
    `ChannelRealization.from_draws`), so a given generator state always
    yields the same realization.
    """
    return rng.standard_exponential(out=out)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """T sampled sets of power gains |h|^2 among S, the relays, D and the eavesdroppers.

    Row t of every field belongs to trial t:

    s_r[t, j]     gain S <-> R_j (reciprocal)
    rr_cond[t]    gains R_j <-> R_k, j < k, condensed row-major (reciprocal)
    r_d[t, j]     gain R_j <-> D (reciprocal)
    s_d[t]        gain S <-> D (sampled for completeness; neither protocol uses it)
    s_e[t, i]     gain S -> E_i (directional)
    r_e[t, j, i]  gain R_j -> E_i (directional)
    """

    n: int
    m: int
    s_r: np.ndarray
    rr_cond: np.ndarray
    r_d: np.ndarray
    s_d: np.ndarray
    s_e: np.ndarray
    r_e: np.ndarray

    @classmethod
    def from_draws(cls, config: ScenarioConfig, draws: np.ndarray) -> ChannelRealization:
        """Views into a (T, realization_size(config)) block of drawn rows."""
        n, m = config.n, config.m
        n_rr = n * (n - 1) // 2
        o = 0
        s_r = draws[:, o:o + n]; o += n
        rr_cond = draws[:, o:o + n_rr]; o += n_rr
        r_d = draws[:, o:o + n]; o += n
        s_d = draws[:, o]; o += 1
        s_e = draws[:, o:o + m]; o += m
        r_e = draws[:, o:].reshape(len(draws), n, m)
        return cls(n=n, m=m, s_r=s_r, rr_cond=rr_cond, r_d=r_d, s_d=s_d, s_e=s_e, r_e=r_e)

    def gains_to_relay(self, selected: np.ndarray) -> np.ndarray:
        """(T, n) gains from every relay toward trial t's relay selected[t]; that relay is NaN.

        Pair (a, b), a < b, sits at a*(2n - a - 1)/2 + (b - a - 1) in
        rr_cond. On the diagonal a = b that formula lands one before row a's
        first pair, a valid index whenever n >= 2, and is overwritten.
        """
        if self.n == 1:
            return np.full((len(selected), 1), np.nan)
        rows = np.arange(len(selected))
        sel = selected[:, None]
        other = np.arange(self.n)
        a, b = np.minimum(sel, other), np.maximum(sel, other)
        out = self.rr_cond[rows[:, None], a * (2 * self.n - a - 1) // 2 + (b - a - 1)]
        out[rows, selected] = np.nan
        return out


def sinr(signal_gains: np.ndarray, gains: np.ndarray, jammers: np.ndarray,
         config: ScenarioConfig) -> np.ndarray:
    """SINR in each of T trials: Es*g / (Es*sum of the jammers' gains + N0/2).

    `signal_gains` is (T,) for one receiver per trial or (T, m) for m of
    them; `gains` is (T, n) or (T, n, m), every relay's gain toward the
    receiver(s); `jammers` is the (T, n) mask of the relays that jam.

    Each trial's jammer gains are added exactly as np.sum adds that jammer
    set on its own. numpy sums pairwise, so summing a zero-padded row would
    regroup the additions and could move the last bit; rows are summed in
    groups of equal jammer count instead, which also keeps a trial's result
    independent of the other trials in its block.
    """
    if np.any(signal_gains < 0):
        raise ValueError("signal gain must be nonnegative")
    interference = np.zeros(signal_gains.shape)
    count = jammers.sum(axis=1)
    for k in set(count.tolist()) - {0}:
        rows = count == k
        picked = gains[rows][jammers[rows]]
        interference[rows] = picked.reshape(len(picked) // k, k,
                                            *gains.shape[2:]).sum(axis=1)
    return sinr_many(signal_gains, interference, config)


def sinr_many(signal_gains: np.ndarray, interference_sums: np.ndarray,
              config: ScenarioConfig) -> np.ndarray:
    """Elementwise SINR from signal gains and interference sums.

    The N0/2 term is dropped in interference-limited mode. A zero
    denominator yields +inf, which counts as above any finite threshold.
    """
    denom = config.es * interference_sums + config.noise_term
    out = np.full(denom.shape, math.inf)
    nz = denom > 0.0
    out[nz] = config.es * signal_gains[nz] / denom[nz]
    return out
