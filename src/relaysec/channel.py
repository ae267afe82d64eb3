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
eavesdropper gain at all (stream layout 8): three uniforms a trial, for any
m, give the first eavesdropper to intercept each hop. Every
draw of a run comes from one PCG64DXSM stream per seed (`SeedStream`);
trial t owns a fixed range of its 64-bit words, and the generator advances
to any word, so any range of trials is drawn with one call:
`sample_realization` gives a block's uniforms, and its `layout` where each
field lies among them. A gain -log1p(-u) increases with its uniform u, so
thresholds (`_uniform_threshold`) and maxima are decided on the uniforms,
and only the gains an SINR reads are computed (`gain`). `trial_rng`, a
keyed Philox, serves test inputs only.

A trial's row has one of two formats, chosen from (n, tau) alone
(`count_cap`). Per-relay rows hold a word for every relay a jammer set is
decided on. Count rows, where few of many relays jam, hold a hop's jammer
count as one uniform to invert (`protocols._count_tables`) and its jammers'
gains, truncated below tau, in `cap` words; a trial whose count passes
`cap` reads the rest from its own row of a second key. There max-min reads
no relay's gains but its own, from the law of the maximum (`best`).
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .bounds import check_at_least, check_positive, check_unit

NOISE_MODES = ("exact", "interference-limited")

_MASK64 = (1 << 64) - 1
# the seed sequence's second entropy word: layout 7, which keyed the stream (layout 8
# moved only max-min's count rows, so every other row kept its words)
_STREAM_KEY = 7

# a counted hop reads cap = min(n - 1, ceil(mean + _CAP_SIGMAS sd) + _CAP_PAD) jammer words,
# mean and sd those of its Bin(n - 1, p) count; count rows are drawn from n = _COUNT_ROWS_FROM
# relays on, where they cost less than per-relay rows (CHANGES.md has the grid), and up to
# cap = _COUNT_CAP_MAX, which bounds the inversion table (`protocols._count_tables`) at
# 16 (cap + 1)^2 bytes, about 4 MB, and (cap + 1)^2 scalar terms to build
_CAP_SIGMAS, _CAP_PAD = 8, 5
_COUNT_ROWS_FROM, _COUNT_CAP_MAX = 41, 512


def count_cap(n: int, tau: float) -> int | None:
    """cap, the jammer words a counted hop reads in its row, or None for per-relay rows.

    p = 1 - e^-tau is the chance that a relay jams a hop. A configuration
    draws count rows when n >= _COUNT_ROWS_FROM and cap <= min((n - 1) / 2,
    _COUNT_CAP_MAX).
    """
    p = -math.expm1(-tau)
    mean = (n - 1) * p
    cap = min(n - 1, math.ceil(mean + _CAP_SIGMAS * math.sqrt(mean * (1.0 - p))) + _CAP_PAD)
    return cap if n >= _COUNT_ROWS_FROM and 2 * cap <= n - 1 and cap <= _COUNT_CAP_MAX else None


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """A fresh, independent generator on the (seed, trial) substream.

    Philox keyed [trial, seed] (each mod 2**64, low word first), the same
    for any caller and call order. It serves test inputs only: no library
    code calls it, and every run reads `SeedStream`.
    """
    bits = np.random.Philox(0)  # a fixed seed reads no OS entropy; the state below replaces it
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": np.zeros(4, dtype=np.uint64),
                            "key": np.array([trial & _MASK64, seed & _MASK64], dtype=np.uint64)},
                  "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                  "has_uint32": 0, "uinteger": 0}
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


# one PCG64DXSM generator per thread, re-stated by every draw: building one
# costs more than a small draw, and a generator must not be shared between threads
_held = threading.local()


def _thread_generator() -> np.random.Generator:
    """The calling thread's PCG64DXSM generator, built on the thread's first draw.

    Not at import: numpy loads numpy.random only when it is first used.
    """
    try:
        return _held.gen
    except AttributeError:
        # a fixed seed reads no OS entropy; every draw overwrites the whole state
        _held.gen = np.random.Generator(np.random.PCG64DXSM(0))
        return _held.gen


@functools.lru_cache(maxsize=256)
def _base_state(seed: int, overflow: bool = False) -> dict:
    """PCG64DXSM's state at word 0 of the stream of `seed`, in [0, 2**64), or of its
    overflow key; read-only."""
    return np.random.PCG64DXSM(np.random.SeedSequence([seed, _STREAM_KEY, 1][:2 + overflow])).state


class SeedStream:
    """The random stream of one seed: PCG64DXSM (O'Neill 2014), read by word offset.

    Word 0 is the state of PCG64DXSM seeded by SeedSequence([seed mod 2**64,
    7]) (7 is the layout that keyed the stream), or by SeedSequence([seed mod 2**64, 7, 1])
    for the overflow key. A table whose rows read `words` words each has row
    width W = `words`, no padding: row r owns words [r W, (r + 1) W). So any
    range of rows is drawn by setting the base state, advancing it r W words
    and making one call.

    A stream holds only its seed. Every draw sets the calling thread's
    generator to the base state and advances it, so streams are cheap to
    make and any thread may draw from any stream.
    """

    def __init__(self, seed: int):
        self._seed = operator.index(seed) & _MASK64  # numpy integers too; never a float

    def uniforms(self, lo: int, hi: int, words: int, overflow: bool = False) -> np.ndarray:
        """(hi - lo, words) uniforms u = (x >> 11) * 2**-53 in [0, 1) of rows [lo, hi),
        of the overflow key's stream if `overflow`.

        numpy's `Generator.random` makes exactly that double of each 64-bit
        word x, one word each.
        """
        gen = _thread_generator()
        bits = gen.bit_generator
        bits.state = _base_state(self._seed, overflow)
        bits.advance(int(lo) * words)  # a Python int: the offset passes 2**64 far in
        return gen.random((hi - lo) * words).reshape(hi - lo, words)


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


@functools.lru_cache(maxsize=256)
def _layout(n: int, maxmin: bool, independent: bool, cap: int | None) -> MappingProxyType:
    """Field -> its columns among a trial's words (stream layout 8; see `sample_realization`).

    Cached per (n, rule, leg mode, cap) and shared by every block, so read-only.
    """
    if cap is None:  # per-relay rows
        head = [("s_r", n)] + [("r_d", n)] * independent if maxmin else [("pick", 1), ("s_r", 1)]
        body = [("to_relay", n - 1), ("r_d2", n)]
    else:  # count rows: max-min's head is its relay's min, its side and the other's excess
        head = [("best", 1), ("side", 1), ("s_r", 1)] if maxmin else [("s_r", 1)]
        shared_best = maxmin and not independent  # hop 2's signal and jammers read M
        body = [("r_d2", 1)] * (not shared_best) + [("draws", 3 + shared_best), ("jam", 2 * cap)]
    fields, o = {}, 0
    for name, size in head + body + [("eve", 3)]:
        fields[name], o = slice(o, o + size), o + size
    if "best" in fields:  # shared legs: hop 2's signal is on the larger side too, the same excess
        fields.setdefault("r_d2", fields["s_r"])
    else:
        fields.setdefault("r_d", fields.get("r_d2"))
        fields.setdefault("r_d2", fields["r_d"])
    if cap is None:
        fields["receivers"] = slice(fields["to_relay"].start, fields["r_d2"].stop)
    return MappingProxyType(fields)


def trial_words(config: ScenarioConfig, *, maxmin: bool, independent: bool,
                cap: int | None) -> int:
    """W, the 64-bit words one trial owns in the row format `cap` = `count_cap`(n, tau): the
    words it reads, whatever m is.

    On per-relay rows (`cap` None) random selection reads 2n + 4 words in
    either leg mode, and max-min 3n + 2, 4n + 2 with independent legs. On
    count rows random selection reads 2 cap + 8 and max-min 2 cap + 10, in
    either leg mode.
    """
    return _layout(config.n, maxmin, independent, cap)["eve"].stop


def sample_realization(config: ScenarioConfig, stream: SeedStream, lo: int, hi: int, *,
                       maxmin: bool, independent: bool, cap: int | None) -> ChannelRealization:
    """Draw trials [lo, hi) of `stream` in the row format `cap` = `count_cap`(n, tau):
    trial t's words [t W, (t + 1) W), W = `trial_words`.

    Per-relay rows: a trial reads its head, then the n - 1 gains toward its
    relay (hop 1's jammer words), then r_d (n) as hop 2 reads it, then three
    eavesdropper uniforms, for any m. The head is a relay index floor(u n)
    and that relay's s_r under random selection, and s_r (n) under max-min,
    which picks the relay with the largest min(s_r, r_d); with independent
    legs max-min's head adds the r_d (n) it picks on, and hop 2 reads a
    fresh r_d. Random selection reads no r_d before hop 2, so its two leg
    modes read the same words.

    Count rows (`cap` is not None) draw no relay index. The head is the
    relay's s_r under random selection; under max-min it is the words
    best, side and s_r (`ChannelRealization.best`). Then the relay's hop-2
    signal word r_d2, unless max-min with shared legs reads it from the
    head and draws a second K2 word in its place; then the count words
    `draws`, K2's (one or two) and hop 1's two; then `cap`
    jammer words a hop, then three eavesdropper uniforms. Random selection's
    two leg modes read the same words here too.
    """
    words = _layout(config.n, maxmin, independent, cap)["eve"].stop
    return ChannelRealization(n=config.n, maxmin=maxmin, independent=independent,
                              words=stream.uniforms(lo, hi, words), cap=cap, stream=stream,
                              first=lo)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """T trials' uniforms: row t of `words` is trial `first` + t's words (see `sample_realization`).

    real[field] is the (T, size) view of a field, each uniform u standing
    for the reciprocal power gain -log1p(-u) between two nodes:

    "pick"       random selection's relay-index uniform, not a gain (see `pick`)
    "s_r"        S <-> R_j; under random selection the picked relay's only; on max-min's
                 count rows the excess of its relay's larger gain over the smaller, M
    "to_relay"   R_j <-> the trial's relay, j increasing, that relay left out
    "r_d"        R_j <-> D, as max-min selection reads it (per-relay rows)
    "r_d2"       R_j <-> D on hop 2: r_d, but a fresh draw under max-min with independent legs;
                 on count rows only the relay's own, under max-min with shared legs the
                 excess word s_r
    "best"       max-min's count rows: the uniform of M, its relay's min(s_r, r_d) (`best`)
    "side"       max-min's count rows: below 1/2 iff M is the relay's s_r, else its r_d
    "eve"        u0, u1, u2: each hop's first interceptor (`protocols._first_hits`)
    "receivers"  per-relay rows' jammer words, to_relay then r_d2: hop 1's n - 1 words,
                 then relay j's hop-2 word at column n - 1 + j
    "draws"      count rows: the uniforms that K2 (two under max-min with shared legs), then
                 k ~ Bin(K2, p) and K1 - k ~ Bin(n - 1 - K2, p) invert
                 (`protocols._counted_jammers`)
    "jam"        count rows: `cap` words of hop 1's jammer gains, then hop 2's; each u
                 stands for the gain -log1p(-u p) below tau, p = 1 - e^-tau

    A count-row trial whose count passes `cap` reads its other jammer words
    from its own row of `stream`'s overflow key.
    """

    n: int
    maxmin: bool
    independent: bool
    words: np.ndarray
    cap: int | None = None  # None on per-relay rows
    stream: SeedStream | None = None
    first: int = 0

    @functools.cached_property
    def layout(self) -> MappingProxyType:
        """Field -> its columns (`_layout`), read-only."""
        return _layout(self.n, self.maxmin, self.independent, self.cap)

    def __getitem__(self, field: str) -> np.ndarray:
        return self.words[:, self.layout[field]]

    @functools.cached_property
    def best(self) -> np.ndarray | None:
        """(T,) M, max-min's relay's min(s_r, r_d), on count rows; else None.

        Each relay's min(s_r, r_d) is Exp(2), so P(M <= x) = (1 - e^-2x)^n
        (David & Nagaraja, Order Statistics, 2003): the "best" uniform u gives
        x = -log(-expm1(log(u) / n)) / 2, a numpy ufunc a step as in `gain`;
        u = 0 reads as the smallest positive word, 2**-53. So M is never below
        tau: every (n, tau) that draws count rows has tau below M at 2**-53.
        The relay's other gain is M plus an Exp(1) excess (the s_r word).
        """
        if not self.maxmin or self.cap is None:
            return None
        x = np.maximum(self["best"][:, 0], 2.0 ** -53)
        np.log(x, out=x)
        x /= self.n
        np.expm1(x, out=x)
        np.negative(x, out=x)
        np.log(x, out=x)
        x *= -0.5
        return x

    @property
    def pick(self) -> np.ndarray | None:
        """(T,) relay floor(u n) drawn by random selection on per-relay rows; else None."""
        if self.maxmin or self.cap is not None:
            return None
        return (self.words[:, 0] * self.n).astype(np.intp)

    def gains_to_relay(self, selected: np.ndarray) -> np.ndarray:
        """(T, n) gains from every relay toward trial t's relay selected[t]; that relay is NaN.

        The gain-level view of per-relay rows that the tests read; the kernel never builds it.
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
