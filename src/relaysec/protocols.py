"""Two-hop transmission protocols with cooperative jamming, over blocks of trials.

One transmission is: pick a relay, send S -> relay while nearby idle relays
jam, then send relay -> D while a second jammer set jams. A relay joins a
hop's jammer set when its (pilot-measured) gain toward that hop's legitimate
receiver is below the threshold tau, so jammers are loud at unknown
eavesdropper positions but quiet at the receiver. Two selection rules are
supported: the max-min optimal rule and uniform random selection; both reuse
the same threshold jamming, differing only in where tau comes from.

Everything runs on blocks of T trials (a single transmission is a block of
one): a block's `ChannelRealization` of uniforms and its (T,) selected
relays. A gain increases with its uniform, so selection and jamming are
decided on the uniforms. `execute_two_hop` has two stages: a reader for the
block's row format (`_per_relay_jammers`, `_counted_jammers`) gives the
jammers' words, counts and overlap, and one outcome stage computes only the
gains an SINR reads and reduces the block to a few numbers per trial, which
`classify_outage` counts under every name of `COUNT_KEYS`. Each constant
a stage reads comes from a cache keyed on what it depends on: u_tau on tau
(`channel._uniform_threshold`), the intercept law's powers on the counts'
range, gamma_e, nu and the leg mode (`_law_powers`), and the columns of a
block's fields on its layout (`ChannelRealization.layout`). On count rows
max-min has no relay index: the law of the maximum gives its relay's gains
and, with shared legs, hop 2's jammer law (`_counted_jammers`).

An eavesdropper's gains are independent of every legitimate gain and enter
its outcome only through the two jammer sets, so three uniforms a trial give
the first eavesdropper to intercept each hop, for every m at once, from the
exact law given the sets (conditional Monte Carlo; Asmussen & Glynn, 2007,
ch. V): every count keeps the law a simulation of their gains gives it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import InfeasibleConfigError, check_at_least, check_positive, theorem2_tau_range
from .channel import ChannelRealization, ScenarioConfig, _uniform_threshold, gain, sinr_many
from .channel import sinr  # noqa: F401  (not called: the benchmark tracer's tests read it here)

PROTOCOL_KINDS = ("optimal-maxmin", "random-uniform")
TAU_POLICIES = ("protocol1-formula", "theorem2-max", "theorem2-min", "manual")


@dataclass(frozen=True)
class ProtocolChoice:
    """Which relay-selection rule to run and how to resolve its jamming threshold."""

    kind: str = "random-uniform"
    tau_policy: str = "protocol1-formula"
    tau: float | None = None

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"kind must be one of {PROTOCOL_KINDS}, got {self.kind!r}")
        if self.tau_policy not in TAU_POLICIES:
            raise ValueError(f"tau_policy must be one of {TAU_POLICIES}, got {self.tau_policy!r}")
        if self.tau_policy == "manual":
            if self.tau is None:
                raise ValueError("manual tau policy requires tau >= 0")
            check_at_least("tau", self.tau, 0)
        elif self.tau is not None:
            raise ValueError(f"tau is only meaningful with the manual policy, got {self.tau}")


class TransmissionRecord(NamedTuple):
    """What T two-hop transmissions came to; row t is trial t, column h hop h + 1.

    `jammers_both` is None with independent legs: the intercept law reads the
    overlap |J1 & J2| only when both hops share one channel. `selected_relay`
    is None on count rows, which draw no relay index.
    """

    selected_relay: np.ndarray | None  # (T,) relay index, or None
    jammers: np.ndarray              # (T, 2) |J1|, |J2|: the relays that jam each hop
    jammers_both: np.ndarray | None  # (T,) |J1 & J2| with shared legs; None with independent
    sinr: np.ndarray                 # (T, 2) SINR at the selected relay, at D
    first_hit: np.ndarray            # (T, 2) first eavesdropper to decode each hop, > m if none


def select_relay_optimal(s_r: np.ndarray, r_d: np.ndarray) -> np.ndarray:
    """(T,) relay with the largest min(gain to S, gain to D) in each trial, ties to the lowest.

    `s_r` and `r_d` are (T, n) gains or their uniforms: both pick alike.
    """
    return np.argmax(np.minimum(s_r, r_d), axis=1)


def jammer_set(real: ChannelRealization, selected: np.ndarray, tau: float) -> np.ndarray:
    """(T, 2n - 1) mask over per-relay rows' real["receivers"]: the words whose relays jam.

    Columns [0, n - 1) are hop 1's words (to_relay) and column n - 1 + j is
    relay j's hop-2 word. A relay jams a hop when its gain toward the hop's
    receiver is below tau, its uniform below u_tau
    (`channel._uniform_threshold`); the selected relay never jams.
    """
    jam = real["receivers"] < _uniform_threshold(tau)
    jam[np.arange(len(selected)), selected + real.n - 1] = False
    return jam


def tau_protocol1(n: int, gamma_r: float) -> float:
    """Jamming threshold sqrt(ln n / (8 n gamma_r)) used with max-min selection."""
    check_at_least("n", n, 1, finite=True)
    check_positive("gamma_r", gamma_r)
    return math.sqrt(math.log(n) / (8.0 * n * gamma_r))


def resolve_tau(protocol: ProtocolChoice, config: ScenarioConfig) -> float:
    """Turn a tau policy into a number for this scenario.

    theorem2-* policies need eps_s and eps_t on the config and raise
    InfeasibleConfigError when the theorem-2 window is empty. The theorem2-min
    endpoint is clamped at 0 (a negative floor just means any threshold
    already satisfies secrecy).
    """
    if protocol.tau_policy == "manual":
        return float(protocol.tau)
    if protocol.tau_policy == "protocol1-formula":
        return tau_protocol1(config.n, config.gamma_r)
    if config.eps_s is None or config.eps_t is None:
        raise ValueError(f"tau policy {protocol.tau_policy!r} requires eps_s and eps_t in the scenario")
    interval = theorem2_tau_range(config.n, config.m, config.gamma_r,
                                  config.gamma_e, config.eps_s, config.eps_t)
    if not interval.feasible:
        raise InfeasibleConfigError(
            f"tau policy {protocol.tau_policy!r} has no feasible threshold: {interval.reason}")
    if protocol.tau_policy == "theorem2-max":
        return interval.tau_max
    return max(0.0, interval.tau_min)


def _powers(base: float, top: int) -> np.ndarray:
    """base**j for j = 0..top, each by Python's float power.

    numpy's vectorised power may round an entry differently, by its place
    in the array; scalar powers keep a trial's law independent of its block.
    """
    return np.array([base ** j for j in range(top + 1)])


@functools.lru_cache(maxsize=32)
def _law_powers(top: int, gamma_e: float, nu: float, shared: bool) -> tuple[np.ndarray, ...]:
    """The read-only tables the intercept law reads, for jammer counts up to `top`.

    With nu and q as in `intercept_law`: ab = nu q^j for j = 0..top, so
    A = ab[K1] and B = ab[K2]; with shared legs also c = nu^2 q^j for
    j = 0..2 top and r = (1 + 2 gamma_e)^-j for j = 0..top, so
    C = c[K1 + K2 - 2k] r[k]. Each power is one Python float power (`_powers`).
    """
    q = _powers(1.0 / (1.0 + gamma_e), 2 * top if shared else top)
    tables = ((nu * q[:top + 1], nu * nu * q, _powers(1.0 / (1.0 + 2.0 * gamma_e), top))
              if shared else (nu * q,))
    for table in tables:
        table.flags.writeable = False
    return tables


def intercept_law(jammers: np.ndarray, both: np.ndarray | None, config: ScenarioConfig,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T,) probabilities A, B, C that one eavesdropper decodes hop 1, hop 2, both.

    Given trial t's jammer counts (K1, K2) = `jammers[t]` and, with shared
    legs, k = `both[t]` = |J1 & J2|, with nu = exp(-gamma_e N0/2 / Es) (1
    when interference-limited, 0 at gamma_e = inf) and q = 1 / (1 + gamma_e):
    A = nu q^K1, B = nu q^K2, and with shared legs, where the k jammers both
    sets hold reach the eavesdropper over the same gain,
    C = nu^2 q^(K1 + K2 - 2k) / (1 + 2 gamma_e)^k; with independent legs
    C = A B, and `both` is None. An SINR Es g / (Es I + N0/2) reaches
    gamma_e iff g >= gamma_e (I + N0/2 / Es), and g ~ Exp(1) is independent
    of I. The powers come from `_law_powers`, up to the block's largest
    count rounded up to 2^j - 1 (at most n - 1), so a run at any n builds a
    few tables of the counts it reaches.
    """
    ge = config.gamma_e  # inf: no eavesdropper decodes, in either noise mode
    nu = 0.0 if math.isinf(ge) else math.exp(-ge * config.noise_term / config.es)
    top = min(config.n - 1, (1 << int(np.maximum.reduce(jammers, axis=None)).bit_length()) - 1)
    ab, *joint = _law_powers(top, ge, nu, both is not None)
    k1, k2 = jammers.T
    a, b = ab[k1], ab[k2]
    if both is None:
        return a, b, a * b
    c, r = joint
    return a, b, c[k1 + k2 - 2 * both] * r[both]


def _first_hits(eve: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                m: int) -> np.ndarray:
    """(T, 2) H1, H2: the first of the eavesdroppers 1, 2, ... to intercept hop 1 and hop 2.

    `eve` is (T, 3) uniforms u0, u1, u2 and A, B, C are `intercept_law`'s. With
    C clipped to min(A, B), an eavesdropper intercepts some hop with probability
    p = A + B - C (at most 1), so by inversion (Devroye 1986, ch. X.2) the first
    that does is H = 1 + floor(log1p(-u0) / log1p(-p)); it intercepts both hops
    iff u2 p < C, hop 1 only iff C <= u2 p < A, else hop 2 only, and the other
    hop's first interceptor is H + Geometric(B) or H + Geometric(A), from u1.
    Both, and p = 0's NaN, are capped at m + 1, or past 2**53 the float after m.
    """
    c = np.minimum(c, np.minimum(a, b))
    p = np.minimum(a + b - c, 1.0)
    v = eve[:, 2] * p
    hop2_only = v >= a
    hop1_only = (v >= c) > hop2_only
    with np.errstate(divide="ignore", invalid="ignore"):  # p = 0 or 1: log1p(-p) = -0 or -inf
        h = np.floor(np.log1p(-eve[:, 0]) / np.log1p(-p)) + 1.0
        later = np.floor(np.log1p(-eve[:, 1]) / np.log1p(-np.where(hop1_only, b, a))) + 1.0
    hits = np.where((hop2_only, hop1_only), h + later, h)
    return np.fmin(hits, max(m + 1.0, math.nextafter(m, math.inf)), out=hits).T


_log_fact = functools.lru_cache(maxsize=1 << 16)(lambda j: math.lgamma(j + 1))  # log j!


def _pmf_terms(size: int, lo: int, hi: int, log_p: float, log_q: float) -> list[float]:
    """P(Bin(size, p) = k) for k = lo..hi - 1, from log p and log(1 - p).

    Each term is one math.exp of cached lgammas and logs, not numpy's
    vectorised exp, so a term does not depend on where it sits in an array.
    """
    head = _log_fact(size)
    return [math.exp(head - _log_fact(k) - _log_fact(size - k) + k * log_p + (size - k) * log_q)
            for k in range(lo, hi)]


def _binomial_cdf(size: int, tau: float, top: int) -> np.ndarray:
    """F(k) = P(Bin(size, p) <= k) for k = 0..top, p = 1 - e^-tau: `_pmf_terms` added in
    k order (a cumsum adds in order too) and capped at 1; F is 1 from k = size on, and
    everywhere at p = 0."""
    cdf = np.ones(top + 1)
    if tau > 0.0:
        hi = min(top + 1, size)
        cdf[:hi] = np.minimum(np.cumsum(_pmf_terms(size, 0, hi, math.log(-math.expm1(-tau)),
                                                   -tau)), 1.0)
    return cdf


def _invert_on(size: int, log_p: float, log_q: float, u: float, k: int = -1,
               total: float = 0.0) -> int:
    """#{j : F(j) <= u} for Bin(size, p), log_p = log p and log_q = log(1 - p), given
    F(k) = total <= u: `_pmf_terms` added on in j order until F passes u."""
    while total <= u and k < size:
        k += 1
        total += _pmf_terms(size, k, k + 1, log_p, log_q)[0]
    return k


@functools.lru_cache(maxsize=16)
def _count_tables(n: int, tau: float, cap: int) -> np.ndarray:
    """(cap + 1, 2, cap + 1) read-only inversion tables of count rows, by K2 = 0..cap.

    [K2, 0] is Bin(K2, p)'s CDF and [K2, 1] Bin(n - 1 - K2, p)'s, at k = 0..cap
    (`_binomial_cdf`); [0, 1] is K2's own law, Bin(n - 1, p). A uniform u
    inverts to #{k : F(k) <= u}, and cap + 1 means past cap, where
    `_invert_on` carries on.
    """
    table = np.array([(_binomial_cdf(k2, tau, cap), _binomial_cdf(n - 1 - k2, tau, cap))
                      for k2 in range(cap + 1)])
    table.flags.writeable = False
    return table


def _extra_chance(x: np.ndarray, tau: float) -> np.ndarray:
    """(T,) r = (q - p) / (1 - p), q(x) the chance that a relay jams hop 2 given max-min's
    M = x (shared legs), so that Bin(n - 1, q) is Bin(n - 1, p) + Bin(n - 1 - that, r).

    Every other relay's min(s_r, r_d) is at most x, so q = P(r_d < tau |
    min <= x) = (p - e^-x max(0, e^-x - e^-tau)) / (1 - e^-2x). M is never
    below tau on count rows (`ChannelRealization.best`), so r is
    (e^tau - 1) / (e^2x - 1), a numpy ufunc a step.
    """
    r = np.multiply(x, 2.0)
    np.expm1(r, out=r)
    return np.divide(math.expm1(tau), r, out=r)


def _binomial_invert(size: np.ndarray, r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(T,) Bin(size[t], r[t]) by inversion of u[t]: F(0) = (1 - r)^size is a numpy ufunc a
    step, as in `gain`, and where u passes it `_invert_on` carries on."""
    f0 = np.negative(r)
    np.log1p(f0, out=f0)
    f0 *= size
    np.exp(f0, out=f0)
    k = np.zeros(len(r), dtype=np.intp)
    for i in np.nonzero(u >= f0)[0].tolist():
        k[i] = _invert_on(int(size[i]), math.log(r[i]), math.log1p(-r[i]), u[i], 0, f0[i])
    return k


def _per_relay_jammers(real: ChannelRealization, selected: np.ndarray, tau: float):
    """Per-relay rows' jammer words, their cells, counts and overlap (see `execute_two_hop`).

    One pass over `jammer_set`'s flat indices puts each jammer in its cell,
    hop 2 from column n - 1 on, in relay order. The overlap k = |J1 & J2|
    is found only with shared legs, the one mode whose law reads it.
    """
    t, n = len(selected), real.n
    jam = jammer_set(real, selected, tau)
    row, col = np.divmod(np.flatnonzero(jam), jam.shape[1])
    cell = 2 * row + (col >= n - 1)
    both = None
    if not real.independent:
        # hop-1 column c is relay c + (c >= selected), as to_relay leaves the
        # selected relay out; that relay jams hop 2 too iff its hop-2 word,
        # n - 1 columns on, is in the mask
        on1 = col < n - 1
        row1, col1 = row[on1], col[on1]
        both = np.bincount(row1[jam[row1, col1 + (col1 >= selected[row1]) + n - 1]], minlength=t)
    sizes = np.bincount(cell, minlength=2 * t).reshape(t, 2)
    return [real["receivers"][row, col]], cell, sizes, both


def _counted_jammers(real: ChannelRealization, selected: None, tau: float):
    """Count rows' jammer words, their cells, counts and overlap (see `execute_two_hop`).

    Each relay jams a hop independently with p = 1 - e^-tau, so a hop's
    jammer count inverts its uniforms of real["draws"] (`_count_tables`):
    K2 ~ Bin(n - 1, p), then k = |J1 & J2| ~ Bin(K2, p) and K1 - k ~
    Bin(n - 1 - K2, p). Under max-min with shared legs a relay jams hop 2
    with q(M) > p, and K2 adds Bin(n - 1 - K2, r(M)) from its second word
    (`_extra_chance`, `_binomial_invert`). The first K of a hop's `cap`
    jammer words u give the words u p, whose gains -log1p(-u p) are Exp(1)
    truncated below tau (so too hop 2's under max-min, as M >= tau). A count
    past cap carries on past the table (`_invert_on`); its other jammer
    words, in order, from its row of the overflow key, come after all the
    others. Count rows hold no relay index: `selected` is None.
    """
    t, n, cap = len(real.words), real.n, real.cap
    p = -math.expm1(-tau)
    table = _count_tables(n, tau, cap)
    draws = real["draws"]
    x = real.best if real.maxmin and not real.independent else None  # hop 2 reads M
    sizes = np.empty((t, 2), dtype=np.intp)  # K1, K2
    k2 = sizes[:, 1]
    k2[:] = np.searchsorted(table[0, 1], draws[:, 0], side="right")
    if k2.max() > cap:  # rare: a count past cap
        for i in np.flatnonzero(k2 > cap).tolist():
            k2[i] = _invert_on(n - 1, math.log(p), -tau, draws[i, 0], cap, table[0, 1, cap])
    if x is not None:  # Bin(n - 1, q(M)) = Bin(n - 1, p) + Bin(n - 1 - that, r(M))
        k2 += _binomial_invert(n - 1 - k2, _extra_chance(x, tau), draws[:, 1])
    split = (table[np.minimum(k2, cap)] <= draws[:, -2:, None]).sum(axis=2)  # k, K1 - k
    sizes[:, 0] = split.sum(axis=1)
    past = sizes.max() > cap
    if past:
        for i in np.flatnonzero((k2 > cap) | (split[:, 1] > cap)):
            split[i] = [_invert_on(size, math.log(p), -tau, v) for size, v in
                        ((int(k2[i]), draws[i, -2]), (n - 1 - int(k2[i]), draws[i, -1]))]
            sizes[i, 0] = split[i].sum()
    # flat index (trial, hop, word) of each jammer's word: flat // cap is its cell
    flat = np.flatnonzero(np.arange(cap) < sizes[:, :, None])
    words, cell = [real["jam"].reshape(-1)[flat] * p], flat // cap
    if past:
        for i, h in zip(*np.nonzero(sizes > cap)):
            key = real.stream.uniforms(real.first + i, real.first + i + 1, 2 * (n - 1 - cap),
                                       overflow=True)
            extra = key[0, h * (n - 1 - cap):][:sizes[i, h] - cap]
            words.append(extra * p)
            cell = np.concatenate((cell, np.full(sizes[i, h] - cap, 2 * i + h)))
    return words, cell, sizes, None if real.independent else split[:, 0]


def execute_two_hop(real: ChannelRealization, selected: np.ndarray | None, tau: float,
                    config: ScenarioConfig) -> TransmissionRecord:
    """Run T two-hop transmissions through the (T,) `selected` relays and record the outcome.

    Hop 1: S transmits to the selected relay, hop 2 the relay to D over
    r_d2, each jammed by its set. The row format's reader
    (`_per_relay_jammers` or `_counted_jammers`, where no relay index is
    drawn and `selected` is None) gives the jammers' words, each word's
    cell 2 trial + hop, the (T, 2) counts K1, K2 and, with shared legs, the
    overlap k = |J1 & J2|. Each SINR is Es g / (Es I + N0/2), I the
    jammers' gains added in the reader's order, and g the selected relay's
    own word of s_r and r_d2 (a one-column field holds only that word); on
    max-min's count rows that word is the excess, and g is M plus it on the
    relay's larger side, M on the other (`ChannelRealization.best`).
    `_first_hits` gives each hop's first interceptor from `intercept_law`'s
    A, B and C: for every m each hop has its exact marginal and the pair its
    exact joint law.
    """
    read = _per_relay_jammers if real.cap is None else _counted_jammers
    words, cell, sizes, both = read(real, selected, tau)
    t = len(real.words)
    rows = np.arange(t)
    signals = [w[:, 0] if w.shape[1] == 1 else w[rows, selected]
               for w in (real["s_r"], real["r_d2"])]
    # the jammers' gains, then the signals' (hop 1's, then hop 2's)
    gains = gain(np.concatenate((*words, *signals)))
    sums = np.bincount(cell, weights=gains[:-2 * t], minlength=2 * t).reshape(t, 2)
    signal = gains[-2 * t:].reshape(2, t)
    if real.maxmin and real.cap is not None:  # the excess words: the larger side is M + excess
        s_larger = real["side"][:, 0] >= 0.5
        signal[0] *= s_larger
        signal[0] += real.best
        if not real.independent:  # hop 2 reads r_d, the other side
            signal[1] *= ~s_larger
            signal[1] += real.best
    a, b, c = intercept_law(sizes, both, config)
    return TransmissionRecord(selected_relay=selected, jammers=sizes, jammers_both=both,
                              sinr=sinr_many(signal.T, sums, config),
                              first_hit=_first_hits(real["eve"], a, b, c, config.m))


# Every count a run keeps, in report order: transmission (t) and secrecy (s)
# outage on hop 1, hop 2, either hop (e2e) and both hops; the trials whose
# first eavesdropper intercepts hop 1; the hop-1 jammer count |J1| and its square.
COUNT_KEYS = ("t_hop1", "t_hop2", "t_e2e", "t_both",
              "s_hop1", "s_hop2", "s_e2e", "s_both",
              "eve_hits_hop1", "jam1_sum", "jam1_sumsq")

# row i marks the outage codes t1 + 2 t2 + 4 s1 + 8 s2 that count toward COUNT_KEYS[i]
_CODE_BITS = 1 << np.arange(4)
_T1, _T2, _S1, _S2 = (np.arange(16) & bit > 0 for bit in _CODE_BITS)
_OUTAGE_CODES = np.array([_T1, _T2, _T1 | _T2, _T1 & _T2, _S1, _S2, _S1 | _S2, _S1 & _S2],
                         dtype=np.intp)


def classify_outage(record: TransmissionRecord, config: ScenarioConfig) -> dict[str, int]:
    """Each count of `COUNT_KEYS` over the record's trials.

    A receiver decodes iff its SINR is strictly greater than gamma_r (a
    measure-zero boundary, fixed for reproducibility). A hop is in secrecy
    outage iff its first hit is at most m; eve_hits_hop1 counts H1 = 1 <= m.
    """
    # (4, T) rows t1, t2, s1, s2: one product makes the codes
    codes = _CODE_BITS @ np.concatenate((~(record.sinr.T > config.gamma_r),
                                         record.first_hit.T <= config.m))
    jam1 = record.jammers[:, 0]
    return dict(zip(COUNT_KEYS, [*(_OUTAGE_CODES @ np.bincount(codes, minlength=16)).tolist(),
                                 int(np.count_nonzero(record.first_hit[:, 0] <= min(config.m, 1))),
                                 int(jam1.sum()), int(jam1 @ jam1)]))
