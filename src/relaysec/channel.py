"""Rayleigh-fading channel sampling and SINR evaluation for a two-hop relay network.

The scenario is a source S talking to a destination D through one of n
candidate relays, with m passive eavesdroppers listening. Every link fades
independently with a unit-mean exponential power gain (Rayleigh amplitude,
equal path loss for all pairs). Legitimate pairs are reciprocal, one draw per
unordered pair, because relay and jammer decisions are made from pilot
measurements of those same links; eavesdropper links are directional draws
that nothing ever measures. One realization spans both hops of a transmission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NOISE_MODES = ("exact", "interference-limited")

_MASK64 = (1 << 64) - 1


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream for one trial.

    Philox is keyed with the packed (seed, trial) pair, so any worker can
    reproduce any trial's draws without sequential dependence on other
    trials. Same (seed, trial) gives a bit-identical stream regardless of
    worker count or execution order.
    """
    key = ((seed & _MASK64) << 64) | (trial & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


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


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One sampled set of power gains |h|^2 among S, the relays, D and the eavesdroppers.

    s_r[j]     gain S <-> R_j (reciprocal)
    rr_cond    gains R_j <-> R_k, j < k, condensed row-major (reciprocal)
    r_d[j]     gain R_j <-> D (reciprocal)
    s_d        gain S <-> D (sampled for completeness; neither protocol uses it)
    s_e[i]     gain S -> E_i (directional)
    r_e[j, i]  gain R_j -> E_i (directional)
    """

    n: int
    m: int
    s_r: np.ndarray
    rr_cond: np.ndarray
    r_d: np.ndarray
    s_d: float
    s_e: np.ndarray
    r_e: np.ndarray

    def gains_to_relay(self, j: int) -> np.ndarray:
        """Gains from every relay toward R_j; position j itself is NaN.

        Row i of rr_cond (pairs (i, k), k > i) starts at i*(2n - i - 1)/2, so
        the relays before j take one entry from each of their rows and the
        relays after j are one contiguous run of row j.
        """
        n = self.n
        out = np.empty(n)
        i = np.arange(j)
        out[:j] = self.rr_cond[i * (2 * n - i - 1) // 2 + (j - i - 1)]
        row = j * (2 * n - j - 1) // 2
        out[j + 1:] = self.rr_cond[row:row + n - j - 1]
        out[j] = np.nan
        return out


def sample_realization(config: ScenarioConfig, rng: np.random.Generator) -> ChannelRealization:
    """Sample a full channel realization for the configured scenario.

    All gains are drawn in one exponential block with a fixed layout
    (s_r, rr_cond, r_d, s_d, s_e, r_e row-major), so a given generator state
    always yields the same realization.
    """
    n, m = config.n, config.m
    n_rr = n * (n - 1) // 2
    draws = rng.exponential(1.0, size=2 * n + n_rr + 1 + m + n * m)
    o = 0
    s_r = draws[o:o + n]; o += n
    rr_cond = draws[o:o + n_rr]; o += n_rr
    r_d = draws[o:o + n]; o += n
    s_d = float(draws[o]); o += 1
    s_e = draws[o:o + m]; o += m
    r_e = draws[o:].reshape(n, m)
    return ChannelRealization(n=n, m=m, s_r=s_r, rr_cond=rr_cond, r_d=r_d,
                              s_d=s_d, s_e=s_e, r_e=r_e)


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
