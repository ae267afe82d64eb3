"""Rayleigh-fading channel sampling and SINR evaluation for a two-hop relay network.

The scenario is a source S talking to a destination D through one of n
candidate relays, with m passive eavesdroppers listening. Every link fades
independently with a unit-mean exponential power gain (Rayleigh amplitude,
equal path loss for all pairs). Legitimate pairs are reciprocal, one draw per
unordered pair, because relay and jammer decisions are made from pilot
measurements of those same links; eavesdropper links are directional and
nothing ever measures them. One realization spans both hops of a
transmission.

Only the legitimate gains a transmission reads are drawn, and no
eavesdropper gain at all (stream layout 3): an eavesdropper's gains are
independent of everything the legitimate nodes draw and reach its outcome
only through the jammer sets, so each eavesdropper draws one uniform that
decides both of its hops from their exact law given those sets (see
`protocols.execute_two_hop`). Every draw of a run comes from one
counter-based Philox stream per seed (`SeedStream`); trial t owns a fixed
range of its 64-bit words, so any range of trials is drawn directly, with
one call per block. `sample_realization` draws a block of trials and
decodes it into a `ChannelRealization`, whose arrays carry a leading trial
axis, so everything computed from the gains runs once per block.
`trial_rng` hands out a fresh generator for test inputs; no library code
calls it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .bounds import check_at_least, check_positive, check_unit

NOISE_MODES = ("exact", "interference-limited")

_MASK64 = (1 << 64) - 1
_LAYOUT = 3  # the stream layout, also the high word of every run's Philox key


def _philox_state(key: tuple[int, int], counter: int) -> dict:
    """Philox state with `key` (low word first) and `counter`, its output buffer empty."""
    return {"bit_generator": "Philox",
            "state": {"counter": np.array([counter & _MASK64, (counter >> 64) & _MASK64, 0, 0],
                                          dtype=np.uint64),
                      "key": np.array([k & _MASK64 for k in key], dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


def _fresh_philox() -> np.random.Philox:
    # a fixed seed reads no OS entropy; callers overwrite the whole state
    return np.random.Philox(0)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """A fresh, independent generator on the (seed, trial) substream.

    Philox keyed [trial, seed] (each mod 2**64, low word first), the same
    for any caller and call order. It serves test inputs only: no library
    code calls it, and every run reads `SeedStream`.
    """
    bits = _fresh_philox()
    bits.state = _philox_state((trial, seed), 0)
    return np.random.Generator(bits)


def _exponential(u: np.ndarray) -> np.ndarray:
    """-log1p(-u) in place: unit-mean exponentials from uniforms in [0, 1)."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


# one Philox generator per thread, re-keyed by every draw: building one costs
# more than a small draw, and a generator must not be shared between threads
_held = threading.local()


def _thread_generator() -> np.random.Generator:
    """The calling thread's generator, built on the thread's first draw.

    Not at import: numpy loads numpy.random only when it is first used.
    """
    try:
        return _held.gen
    except AttributeError:
        _held.gen = np.random.Generator(_fresh_philox())
        return _held.gen


class SeedStream:
    """The random stream of one seed: one Philox key, read by word offset.

    The Philox key is [seed mod 2**64, 3] (low word first; 3 is the stream
    layout). Rows of a table that read `words` words each are W =
    `words` rounded up to a multiple of 4 apart: row r owns words
    [r W, (r + 1) W), which start at Philox counter r W / 4. So any range of
    rows is drawn by setting the counter and making one call.

    A stream holds only its key. Every draw sets the calling thread's Philox
    to that key and counter, so streams are cheap to make and any thread may
    draw from any stream.
    """

    def __init__(self, seed: int):
        self._key = (seed, _LAYOUT)

    def uniforms(self, lo: int, hi: int, words: int) -> np.ndarray:
        """(hi - lo, words) uniforms u = (x >> 11) * 2**-53 in [0, 1) of rows [lo, hi).

        numpy's `Generator.random` makes exactly that double of each 64-bit
        word x, one word each.
        """
        width = -(-words // 4) * 4
        gen = _thread_generator()
        gen.bit_generator.state = _philox_state(self._key, lo * width // 4)
        return gen.random((hi - lo) * width).reshape(hi - lo, width)[:, :words]

    def exponentials(self, lo: int, hi: int, words: int) -> np.ndarray:
        """(hi - lo, words) unit-mean exponential gains -log1p(-u) of rows [lo, hi)."""
        # whole rows, padding and all: in place over contiguous rows is the faster pass
        return _exponential(self.uniforms(lo, hi, -(-words // 4) * 4))[:, :words]


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
        check_at_least("n", self.n, 1, integer=True)
        check_at_least("m", self.m, 0, integer=True)
        check_positive("gamma_r", self.gamma_r)
        check_positive("gamma_e", self.gamma_e)
        check_positive("es", self.es)
        check_at_least("n0", self.n0, 0)
        if self.noise_mode not in NOISE_MODES:
            raise ValueError(f"noise_mode must be one of {NOISE_MODES}, got {self.noise_mode!r}")
        check_at_least("coherence_len", self.coherence_len, 1, integer=True)
        if self.eps_s is not None:
            check_unit("eps_s", self.eps_s)
        if self.eps_t is not None:
            check_unit("eps_t", self.eps_t)

    @property
    def noise_term(self) -> float:
        """Noise power in the SINR denominator: N0/2, or 0 in interference-limited mode."""
        return 0.0 if self.noise_mode == "interference-limited" else self.n0 / 2.0


def _trial_fields(config: ScenarioConfig, maxmin: bool, independent: bool) -> list:
    """(field, words) in the order one trial draws them (stream layout 3)."""
    n, m = config.n, config.m
    if maxmin:
        head = [("s_r", n), ("r_d", n), ("to_relay", n - 1)]
    else:
        head = [("pick", 1), ("s_r", 1), ("to_relay", n - 1), ("r_d", n)]
    hop2 = [("r_d2", n)] if independent else []
    return head + hop2 + [("eve", m)]


def trial_words(config: ScenarioConfig, *, maxmin: bool, independent: bool) -> int:
    """W, the 64-bit words one trial owns: what it reads, rounded up to a multiple of 4.

    Random selection reads 2n + 1 + m words and max-min 3n - 1 + m;
    independent legs add n for hop 2.
    """
    words = sum(size for _, size in _trial_fields(config, maxmin, independent))
    return -(-words // 4) * 4


def sample_realization(config: ScenarioConfig, stream: SeedStream, lo: int, hi: int, *,
                       maxmin: bool, independent: bool
                       ) -> tuple[ChannelRealization, ChannelRealization]:
    """Draw trials [lo, hi) of `stream` and return their hop-1 and hop-2 blocks.

    Trial t reads its words [t W, (t + 1) W) (W from `trial_words`) in this
    order:

    random selection  relay index floor(u n), s_r of that relay, the n - 1
                      gains toward it, r_d (n)
    max-min           s_r (n), r_d (n), the n - 1 gains toward the relay
                      with the largest min(s_r, r_d)

    then hop 2's r_d (n) with independent legs, then one uniform per
    eavesdropper (m). Every word between the relay index and the
    eavesdroppers' uniforms is a unit-mean exponential gain. With
    independent legs the hop-2 block is the hop-1 block with r_d replaced;
    with shared legs the two blocks are one object.
    """
    n, m = config.n, config.m
    # whole rows of W words, padding included, so the conversion below runs
    # in place over one contiguous array
    draws = stream.uniforms(lo, hi, trial_words(config, maxmin=maxmin, independent=independent))
    rows = len(draws)
    drawn, o = {}, 0
    for name, size in _trial_fields(config, maxmin, independent):
        drawn[name] = draws[:, o:o + size]
        o += size
    # the relay index and the eavesdroppers' uniforms are read out before
    # every word turns into a gain in place
    pick = None if maxmin else (drawn["pick"][:, 0] * n).astype(np.intp)
    eve = drawn["eve"].copy()
    _exponential(draws)
    s_r = drawn["s_r"]
    if pick is not None:
        s_r = np.full((rows, n), math.nan)
        s_r[np.arange(rows), pick] = drawn["s_r"][:, 0]
    hop1 = ChannelRealization(n=n, m=m, pick=pick, s_r=s_r, to_relay=drawn["to_relay"],
                              r_d=drawn["r_d"], eve=eve)
    if not independent:
        return hop1, hop1
    return hop1, replace(hop1, r_d=drawn["r_d2"])


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """T sampled sets of power gains |h|^2 among S, the relays and D, with eavesdropper uniforms.

    Row t of every array belongs to trial t. Only what a transmission reads
    is drawn, so the relay-to-relay gains are those toward one relay per
    trial, the relay it transmits through:

    pick[t]          relay drawn by random selection (None under max-min)
    s_r[t, j]        gain S <-> R_j; under random selection only the picked
                     relay's entry is drawn and the others are NaN
    to_relay[t, :]   gains R_j <-> the trial's relay, j in increasing order,
                     that relay left out (n - 1 of them; reciprocal)
    r_d[t, j]        gain R_j <-> D (reciprocal)
    eve[t, i]        uniform in [0, 1) that decides eavesdropper E_i's
                     intercepts on both hops (protocols.execute_two_hop)
    """

    n: int
    m: int
    pick: np.ndarray | None
    s_r: np.ndarray
    to_relay: np.ndarray
    r_d: np.ndarray
    eve: np.ndarray

    def gains_to_relay(self, selected: np.ndarray) -> np.ndarray:
        """(T, n) gains from every relay toward trial t's relay selected[t]; that relay is NaN.

        `selected` must be the relays the gains were drawn toward; row t's
        n - 1 gains fill the other columns in order.
        """
        rows = np.arange(len(selected))
        out = np.empty((len(selected), self.n))
        others = np.ones(out.shape, dtype=bool)
        others[rows, selected] = False
        out[others] = self.to_relay.reshape(-1)
        out[rows, selected] = math.nan
        return out


def sinr(signal_gains: np.ndarray, gains: np.ndarray, jammers: np.ndarray,
         config: ScenarioConfig) -> np.ndarray:
    """SINR in each of T trials: Es*g / (Es*sum of the jammers' gains + N0/2).

    `signal_gains` is (T,), one receiver per trial; `gains` is (T, n), every
    relay's gain toward the receiver; `jammers` is the (T, n) mask of the
    relays that jam.

    The interference is each row's sum over all n relays with the gains of
    the relays that do not jam set to zero, so a trial's result depends on
    its own row only, never on its block.
    """
    if np.any(signal_gains < 0):
        raise ValueError("signal gain must be nonnegative")
    return sinr_many(signal_gains, np.where(jammers, gains, 0.0).sum(axis=1), config)


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
