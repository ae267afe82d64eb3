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
decided on the uniforms; `execute_two_hop` computes only the gains an SINR
reads and reduces the block to a few numbers per trial, which
`classify_outage` counts under every name of `COUNT_KEYS`. Each constant
a stage reads comes from a cache keyed on what it depends on: u_tau on tau
(`channel._uniform_threshold`), the intercept law's powers on n, gamma_e,
nu and the leg mode (`_law_powers`), and the columns of a block's fields on
its layout (`ChannelRealization.layout`).

An eavesdropper's gains are independent of every legitimate gain and enter
its outcome only through the two jammer sets, so three uniforms a trial give
the first eavesdropper to intercept each hop, for every m at once, from the
exact law given the sets (conditional Monte Carlo; Asmussen & Glynn, 2007,
ch. V): every count keeps the law a simulation of their gains gives it.
"""

from __future__ import annotations

import bisect
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
    is None under random selection on count rows, which draws no relay index.
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
    """Mask over real["receivers"]: the per-relay words whose relays jam.

    On per-relay rows it is (T, 2n - 1): columns [0, n - 1) are hop 1's words
    (to_relay) and column n - 1 + j is relay j's hop-2 word. On count rows of
    max-min with shared legs it is (T, n), relay j's hop-2 word at column j.
    A relay jams a hop when its gain toward the hop's receiver is below tau,
    its uniform below u_tau (`channel._uniform_threshold`); the selected
    relay never jams.
    """
    jam = real["receivers"] < _uniform_threshold(tau)
    jam[np.arange(len(selected)), selected + (real.n - 1 if real.cap is None else 0)] = False
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
def _law_powers(n: int, gamma_e: float, nu: float, shared: bool) -> tuple[np.ndarray, ...]:
    """The read-only tables the intercept law reads, up to the largest exponent a trial reaches.

    With nu and q as in `intercept_law`: ab = nu q^j for j = 0..n - 1, so
    A = ab[K1] and B = ab[K2]; with shared legs also c = nu^2 q^j for
    j = 0..2n - 2 and r = (1 + 2 gamma_e)^-j for j = 0..n - 1, so
    C = c[K1 + K2 - 2k] r[k]. Each power is one Python float power (`_powers`).
    """
    q = _powers(1.0 / (1.0 + gamma_e), 2 * n - 2 if shared else n - 1)
    tables = ((nu * q[:n], nu * nu * q, _powers(1.0 / (1.0 + 2.0 * gamma_e), n - 1))
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
    of I. The powers come from `_law_powers`.
    """
    ge = config.gamma_e  # inf: no eavesdropper decodes, in either noise mode
    nu = 0.0 if math.isinf(ge) else math.exp(-ge * config.noise_term / config.es)
    ab, *joint = _law_powers(config.n, ge, nu, both is not None)
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


def _binomial_cdf(size: int, tau: float, top: int) -> np.ndarray:
    """F(k) = P(Bin(size, p) <= k) for k = 0..top, p = 1 - e^-tau, from math scalars.

    Each pmf term is one math.exp of lgammas and logs, added in k order (at
    most 1); F is 1 from k = size on, and everywhere at p = 0. The terms come
    from `math`, not numpy's vectorised exp, so a table does not depend on
    where an entry sits in an array.
    """
    cdf = np.ones(top + 1)
    if tau > 0.0:
        log_p, head, total = math.log(-math.expm1(-tau)), math.lgamma(size + 1), 0.0
        for k in range(min(top + 1, size)):
            total += math.exp(head - math.lgamma(k + 1) - math.lgamma(size - k + 1)
                              + k * log_p - (size - k) * tau)
            cdf[k] = min(total, 1.0)
    return cdf


@functools.lru_cache(maxsize=16)
def _count_tables(n: int, tau: float, cap: int) -> np.ndarray:
    """(cap + 1, 2, cap + 1) read-only inversion tables of count rows, by K2 = 0..cap.

    [K2, 0] is Bin(K2, p)'s CDF and [K2, 1] Bin(n - 1 - K2, p)'s, at k = 0..cap
    (`_binomial_cdf`); [0, 1] is K2's own law, Bin(n - 1, p). A uniform u
    inverts to #{k : F(k) <= u}, and cap + 1 means past cap.
    """
    table = np.array([(_binomial_cdf(k2, tau, cap), _binomial_cdf(n - 1 - k2, tau, cap))
                      for k2 in range(cap + 1)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=256)
def _full_cdf(size: int, tau: float) -> list:
    """Bin(size, p)'s whole CDF (`_binomial_cdf`), for the counts past a table's cap."""
    return _binomial_cdf(size, tau, size).tolist()


def _counted_hops(real: ChannelRealization, selected: np.ndarray | None, tau: float,
                  config: ScenarioConfig) -> TransmissionRecord:
    """`execute_two_hop` on count rows.

    A counted hop's jammer count inverts its uniform of real["draws"]
    (`_count_tables`): K2 ~ Bin(n - 1, p), unless max-min with shared legs
    decided hop 2's set on r_d (`jammer_set`), then k = |J1 & J2| ~
    Bin(K2, p) and K1 - k ~ Bin(n - 1 - K2, p), as each relay jams a hop
    independently with p = 1 - e^-tau. Its first K of `cap` jammer words
    are gains -log1p(-u p), Exp(1) truncated below tau, added in word
    order; a trial whose count passes cap finds it from the whole CDF
    (`_full_cdf`) and reads its other jammer words, in order, from its row
    of the overflow key.
    """
    t, n, cap = len(real.words), real.n, real.cap
    p = -math.expm1(-tau)
    table = _count_tables(n, tau, cap)
    draws, jam = real["draws"], real["jam"]
    counted = jam.shape[1] // cap  # hop 1, and hop 2 unless max-min with shared legs
    sizes = np.empty((t, 2), dtype=np.intp)  # K1, K2
    k2 = sizes[:, 1]
    if counted == 2:
        k2[:] = (table[0, 1] <= draws[:, :1]).sum(axis=1)
    else:
        row2, col2 = np.divmod(np.flatnonzero(jammer_set(real, selected, tau)), n)
        k2[:] = np.bincount(row2, minlength=t)
    split = (table[np.minimum(k2, cap)] <= draws[:, -2:, None]).sum(axis=2)  # k, K1 - k
    sizes[:, 0] = split.sum(axis=1)
    past = sizes.max() > cap  # rare: a count past cap, exact only from the whole CDF
    if past:
        for i in np.flatnonzero((k2 > cap) | (split[:, 1] > cap)):
            u = draws[i].tolist()
            if counted == 2:
                k2[i] = bisect.bisect_right(_full_cdf(n - 1, tau), u[0])
            split[i] = [bisect.bisect_right(_full_cdf(size, tau), x)
                        for size, x in ((int(k2[i]), u[-2]), (n - 1 - int(k2[i]), u[-1]))]
            sizes[i, 0] = split[i].sum()
    # flat index (trial, hop, word) of each counted jammer's word; cell 2 trial + hop
    flat = np.flatnonzero(np.arange(cap) < sizes[:, :counted, None])
    cell = flat // cap
    rows = np.arange(t)
    signal1 = real["s_r"][rows, selected] if real.maxmin else real["s_r"][:, 0]
    if counted == 2:
        per_relay, signal2 = (), real["r_d2"][:, 0]
    else:
        cell = np.concatenate((cell * 2, row2 * 2 + 1))
        per_relay, signal2 = (real["r_d"][row2, col2],), real["r_d"][rows, selected]
    # the counted jammers' gains, hop 2's per-relay ones, then the signals' (hop 1's, hop 2's)
    gains = gain(np.concatenate((jam.reshape(-1)[flat] * p, *per_relay, signal1, signal2)))
    sums = np.bincount(cell, weights=gains[:-2 * t], minlength=2 * t).reshape(t, 2)
    if past:  # the words past cap, from the trial's row of the overflow key
        for i, h in zip(*np.nonzero(sizes[:, :counted] > cap)):
            extra = real.stream.uniforms(real.first + i, real.first + i + 1,
                                         counted * (n - 1 - cap), overflow=True)[0]
            total = float(sums[i, h])
            for g in gain(extra[h * (n - 1 - cap):][:sizes[i, h] - cap] * p).tolist():
                total += g
            sums[i, h] = total
    both = None if real.independent else split[:, 0]
    a, b, c = intercept_law(sizes, both, config)
    return TransmissionRecord(selected_relay=selected, jammers=sizes, jammers_both=both,
                              sinr=sinr_many(gains[-2 * t:].reshape(2, t).T, sums, config),
                              first_hit=_first_hits(real["eve"], a, b, c, config.m))


def execute_two_hop(real: ChannelRealization, selected: np.ndarray | None, tau: float,
                    config: ScenarioConfig) -> TransmissionRecord:
    """Run T two-hop transmissions through the (T,) `selected` relays and record the outcome.

    Hop 1: S transmits to the selected relay, hop 2 the relay to D over
    r_d2, each jammed by its set from `jammer_set`; one pass over the mask's
    flat indices puts every jammer in its (hop, trial) cell, hop 2 from
    column n - 1 on. Each SINR is Es g / (Es I + N0/2), I the jammers'
    gains added in relay order. The overlap k = |J1 & J2| is found only with
    shared legs, the one mode whose law reads it. `_first_hits` gives each
    hop's first interceptor from `intercept_law`'s A, B and C: for every m
    each hop has its exact marginal and the pair its exact joint law.
    Count rows take `_counted_hops`, where random selection has no relay
    (`selected` None).
    """
    if real.cap is not None:
        return _counted_hops(real, selected, tau, config)
    t, n = len(selected), real.n
    rows = np.arange(t)
    jam = jammer_set(real, selected, tau)
    row, col = np.divmod(np.flatnonzero(jam), jam.shape[1])
    signal1 = real["s_r"][rows, selected] if real.maxmin else real["s_r"][:, 0]
    # the jammers' gains, then the signals' (hop 1's, then hop 2's)
    gains = gain(np.concatenate((real["receivers"][row, col], signal1,
                                 real["r_d2"][rows, selected])))
    cell = (col >= n - 1) * t + row
    sums = np.bincount(cell, weights=gains[:-2 * t], minlength=2 * t).reshape(2, t)
    sizes = np.bincount(cell, minlength=2 * t).reshape(2, t)
    both = None
    if not real.independent:
        # hop-1 column c is relay c + (c >= selected), as to_relay leaves the
        # selected relay out; that relay jams hop 2 too iff its hop-2 word,
        # n - 1 columns on, is in the mask
        on1 = col < n - 1
        row1, col1 = row[on1], col[on1]
        both = np.bincount(row1[jam[row1, col1 + (col1 >= selected[row1]) + n - 1]], minlength=t)
    a, b, c = intercept_law(sizes.T, both, config)
    return TransmissionRecord(selected_relay=selected, jammers=sizes.T, jammers_both=both,
                              sinr=sinr_many(gains[-2 * t:].reshape(2, t), sums, config).T,
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
