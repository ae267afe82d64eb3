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
eavesdropper gain at all (stream layout 3): each eavesdropper draws one
uniform that decides both of its hops (`protocols.execute_two_hop`). Every
draw of a run comes from one counter-based Philox stream per seed
(`SeedStream`); trial t owns a fixed range of its 64-bit words, so any range
of trials is drawn with one call: `sample_realization` gives a block's
uniforms, and its `Layout` where each field lies among them. A gain
-log1p(-u) increases with its uniform u, so thresholds (`_uniform_threshold`)
and maxima are decided on the uniforms, and only the gains an SINR reads are
computed (`gain`). `trial_rng` serves test inputs only.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

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


def gain(u) -> np.ndarray:
    """Unit-mean exponential gains -log1p(-u) of uniforms u; numpy's log1p, never libm's."""
    g = np.negative(u)
    np.log1p(g, out=g)
    return np.negative(g, out=g)


@functools.lru_cache(maxsize=256)
def _uniform_threshold(tau: float) -> float:
    """u_tau, the smallest uniform k 2**-53 whose gain is >= tau (1.0 if none is).

    The gain increases with u: a gain is below tau iff its uniform is below u_tau.
    """
    check_at_least("tau", tau, 0)
    top = 1 << 53
    k = min(math.ceil(-math.expm1(-tau) * top), top)  # a step or two from the answer
    while k > 0 and gain([(k - 1) / top])[0] >= tau:
        k -= 1
    while k < top and gain([k / top])[0] < tau:
        k += 1
    return k / top


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
        check_at_least("es", self.es, 0, finite=True)  # else every jammed SINR is inf/inf
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


class Layout(NamedTuple):
    """Where a trial's fields lie among its words (stream layout 3; see ChannelRealization).

    Cached per (n, m, rule, leg mode) and shared by every block, so its arrays are read-only.
    """

    fields: dict        # field -> its columns
    hop1: slice         # to_relay's columns within "receivers", both hops' receiver words
    hop2: slice         # r_d2's columns within "receivers"
    idle: slice         # r_d within "receivers", read by no hop; empty but for random, independent
    hop: np.ndarray     # (L,) hop - 1 of each "receivers" column: 0 on hop 1's words, else 1
    signal: np.ndarray  # (2, 2) per hop: the column of relay 0's signal word, the step per relay


@functools.lru_cache(maxsize=256)
def _layout(n: int, m: int, maxmin: bool, independent: bool) -> Layout:
    sizes = ([("s_r", n), ("r_d", n), ("to_relay", n - 1)] if maxmin
             else [("pick", 1), ("s_r", 1), ("to_relay", n - 1), ("r_d", n)])
    fields, o = {}, 0
    for name, size in sizes + [("r_d2", n)] * independent + [("eve", m)]:
        fields[name], o = slice(o, o + size), o + size
    hop1, hop2 = fields["to_relay"], fields.setdefault("r_d2", fields["r_d"])
    run = fields["receivers"] = slice(min(hop1.start, hop2.start), max(hop1.stop, hop2.stop))
    hop1, hop2 = (slice(h.start - run.start, h.stop - run.start) for h in (hop1, hop2))
    hop = np.ones(run.stop - run.start, dtype=np.intp)
    hop[hop1] = 0
    # under random selection s_r is the picked relay's word alone
    signal = np.array([[fields["s_r"].start, int(maxmin)], [fields["r_d2"].start, 1]])
    for a in (hop, signal):
        a.flags.writeable = False
    return Layout(fields, hop1, hop2, slice(min(hop1.stop, hop2.stop), max(hop1.start, hop2.start)),
                  hop, signal)


def trial_words(config: ScenarioConfig, *, maxmin: bool, independent: bool) -> int:
    """W, the 64-bit words one trial owns: what it reads, rounded up to a multiple of 4.

    Random selection reads 2n + 1 + m words and max-min 3n - 1 + m;
    independent legs add n for hop 2.
    """
    return -(-_layout(config.n, config.m, maxmin, independent).fields["eve"].stop // 4) * 4


def sample_realization(config: ScenarioConfig, stream: SeedStream, lo: int, hi: int, *,
                       maxmin: bool, independent: bool) -> ChannelRealization:
    """Draw trials [lo, hi) of `stream`: trial t's words [t W, (t + 1) W), W = `trial_words`.

    A trial reads, under random selection, a relay index floor(u n), s_r of
    that relay, the n - 1 gains toward it and r_d (n); under max-min, s_r
    (n), r_d (n) and the n - 1 gains toward the relay with the largest
    min(s_r, r_d). Then hop 2's r_d (n) with independent legs, then one
    uniform per eavesdropper (m).
    """
    return ChannelRealization(
        n=config.n, m=config.m, maxmin=maxmin, independent=independent,
        words=stream.uniforms(lo, hi, trial_words(config, maxmin=maxmin, independent=independent)))


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """T trials' uniforms: row t of `words` is trial t's words (see `sample_realization`).

    real[field] is the (T, size) view of a field, each uniform u standing
    for the reciprocal power gain -log1p(-u) between two nodes:

    "s_r"        S <-> R_j; under random selection the picked relay's only
    "to_relay"   R_j <-> the trial's relay, j increasing, that relay left out
    "r_d"        R_j <-> D, as max-min selection reads it
    "r_d2"       R_j <-> D on hop 2: r_d, or a fresh draw with independent legs
    "eve"        eavesdropper E_i's uniform, which decides both its hops
    "receivers"  the run of words holding to_relay and r_d2
    """

    n: int
    m: int
    maxmin: bool
    independent: bool
    words: np.ndarray

    @functools.cached_property
    def layout(self) -> Layout:
        return _layout(self.n, self.m, self.maxmin, self.independent)

    def __getitem__(self, field: str) -> np.ndarray:
        return self.words[:, self.layout.fields[field]]

    @property
    def pick(self) -> np.ndarray | None:
        """(T,) relay floor(u n) drawn by random selection; None under max-min."""
        return None if self.maxmin else (self.words[:, 0] * self.n).astype(np.intp)

    def gains_to_relay(self, selected: np.ndarray) -> np.ndarray:
        """(T, n) gains from every relay toward trial t's relay selected[t]; that relay is NaN.

        The gain-level view the tests read; the kernel never builds it.
        """
        cols = np.arange(self.n - 1)
        cols = cols + (cols >= selected[:, None])  # each row skips its own relay
        out = np.full((len(selected), self.n), math.nan)
        out[np.arange(len(selected))[:, None], cols] = gain(self["to_relay"])
        return out


def sinr(signal_gains: np.ndarray, gains: np.ndarray, jammers: np.ndarray,
         config: ScenarioConfig) -> np.ndarray:
    """SINR in each of T trials: Es*g / (Es*sum of the jammers' gains + N0/2).

    `signal_gains` is (T,); `gains` is (T, n), every relay's gain toward the
    receiver; `jammers` is the (T, n) mask of the relays that jam. Only tests
    and the benchmark tracer read it: it sums in numpy's order, not in the
    kernel's relay order, so the two may differ in the last bits.
    """
    if np.any(signal_gains < 0):
        raise ValueError("signal gain must be nonnegative")
    return sinr_many(signal_gains, np.where(jammers, gains, 0.0).sum(axis=1), config)


def sinr_many(signal_gains: np.ndarray, interference_sums: np.ndarray,
              config: ScenarioConfig) -> np.ndarray:
    """Elementwise SINR from signal gains and interference sums.

    g / (I + N0/2 / Es), N0/2 dropped when interference-limited, so a huge Es cannot
    make inf/inf. A zero denominator or an overflow gives +inf, above any finite threshold.
    """
    denom = interference_sums + config.noise_term / config.es
    out = np.full(denom.shape, math.inf)
    with np.errstate(over="ignore"):
        return np.divide(signal_gains, denom, out=out, where=denom > 0.0)
