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
`classify_outage` counts under every name of `COUNT_KEYS`.

An eavesdropper's gains are independent of every legitimate gain and enter
its outcome only through the two jammer sets, so one uniform decides its
pair of intercepts from their exact law given the sets (conditional Monte
Carlo; Asmussen & Glynn, *Stochastic Simulation*, 2007, ch. V): every count
keeps the law a simulation of the eavesdropper gains would give it.
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
    """What T two-hop transmissions came to; row t is trial t, column h hop h + 1."""

    selected_relay: np.ndarray   # (T,) relay index
    jammers: np.ndarray          # (T, 2) |J1|, |J2|: the relays that jam each hop
    jammers_both: np.ndarray     # (T,) |J1 & J2|
    sinr: np.ndarray             # (T, 2) SINR at the selected relay, at D
    intercepts: np.ndarray       # (T, 2) eavesdroppers that decode each hop


def select_relay_optimal(s_r: np.ndarray, r_d: np.ndarray) -> np.ndarray:
    """(T,) relay with the largest min(gain to S, gain to D) in each trial, ties to the lowest.

    `s_r` and `r_d` are (T, n) gains or their uniforms: both pick alike.
    """
    return np.argmax(np.minimum(s_r, r_d), axis=1)


def jammer_set(real: ChannelRealization, selected: np.ndarray, tau: float) -> np.ndarray:
    """(T, L) mask over real["receivers"]: the words of both hops (`Layout`) whose relays jam.

    A relay jams a hop when its gain toward the hop's receiver is below tau,
    its uniform below u_tau (`channel._uniform_threshold`); the selected relay never jams.
    """
    jam = real["receivers"] < _uniform_threshold(tau)
    jam[:, real.layout.idle] = False
    jam[np.arange(len(selected)), selected + real.layout.hop2.start] = False
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


@functools.lru_cache(maxsize=256)
def _powers(base: float, top: int) -> np.ndarray:
    """base**j for j = 0..top, each by Python's float power; cached, so read-only.

    numpy's vectorised power may round an entry differently, by its place
    in the array; scalar powers keep a trial's law independent of its block.
    """
    table = np.array([base ** j for j in range(top + 1)])
    table.flags.writeable = False
    return table


def intercept_law(jammers: np.ndarray, both: np.ndarray, shared: bool,
                  config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T,) probabilities A, B, C that one eavesdropper decodes hop 1, hop 2, both.

    Given trial t's jammer counts (K1, K2) = `jammers[t]` and k = `both[t]` = |J1 & J2|,
    with nu = exp(-gamma_e N0/2 / Es) (1 when interference-limited) and
    q = 1 / (1 + gamma_e): A = nu q^K1, B = nu q^K2, and with shared legs, where the
    k jammers both sets hold reach the eavesdropper over the same gain,
    C = nu^2 q^(K1 + K2 - 2k) / (1 + 2 gamma_e)^k; with independent legs C = A B.
    An SINR Es g / (Es I + N0/2) reaches gamma_e iff g >= gamma_e (I + N0/2 / Es),
    and g ~ Exp(1) is independent of I.
    """
    gamma_e = config.gamma_e
    nu = math.exp(-gamma_e * config.noise_term / config.es)
    total = jammers[:, 0] + jammers[:, 1]
    q_pow = _powers(1.0 / (1.0 + gamma_e), int(total.max()))  # every exponent below
    a, b = (nu * q_pow[jammers]).T
    if not shared:
        return a, b, a * b
    r_pow = _powers(1.0 / (1.0 + 2.0 * gamma_e), int(both.max()))
    return a, b, nu * nu * q_pow[total - 2 * both] * r_pow[both]


def execute_two_hop(real: ChannelRealization, selected: np.ndarray, tau: float,
                    config: ScenarioConfig) -> TransmissionRecord:
    """Run T two-hop transmissions through the (T,) `selected` relays and record the outcome.

    Hop 1: S transmits to the selected relay, hop 2 the relay to D over
    r_d2, each jammed by its set from `jammer_set`; one pass over the mask's
    flat indices puts every jammer in its (trial, hop) cell. Each SINR is
    Es g / (Es I + N0/2), I the jammers' gains added in relay order. Each
    eavesdropper's uniform u decides both hops from `intercept_law`'s A, B
    and C: hop 1 is intercepted iff u < A, and hop 2 iff u < C or
    A <= u < A + B - C, so each hop has its exact marginal and the pair its
    exact joint law.
    """
    t = len(selected)
    layout = real.layout
    jam = jammer_set(real, selected, tau)
    row, col = np.divmod(np.flatnonzero(jam), jam.shape[1])
    on1 = (col >= layout.hop1.start) & (col < layout.hop1.stop)  # else on hop 2's words
    cell = 2 * row + ~on1
    # the jammers' gains, then the signals' (hop 1's, then hop 2's)
    gains = gain(np.concatenate((real["receivers"][row, col], *real.signals(selected))))
    sums = np.bincount(cell, weights=gains[:-2 * t], minlength=2 * t).reshape(t, 2)
    sizes = np.bincount(cell, minlength=2 * t).reshape(t, 2)
    # a hop-1 jammer's relay jams hop 2 too iff its hop-2 word is in the mask
    row1, col1 = row[on1], col[on1] - layout.hop1.start
    col1 += col1 >= selected[row1]  # to_relay leaves the selected relay out
    both = np.bincount(row1[jam[row1, col1 + layout.hop2.start]], minlength=t)
    a, b, c = (p[:, None] for p in intercept_law(sizes, both, not real.independent, config))
    hits = np.empty((t, 2, real.m), dtype=bool)
    hit1 = np.less(real["eve"], a, out=hits[:, 0])
    np.less(real["eve"], np.where(hit1, c, np.maximum(c, a + b - c)), out=hits[:, 1])
    return TransmissionRecord(selected_relay=selected, jammers=sizes, jammers_both=both,
                              sinr=sinr_many(gains[-2 * t:].reshape(2, t).T, sums, config),
                              intercepts=hits @ np.ones(real.m, dtype=np.intp))


# Every count a run keeps, in report order: transmission (t) and secrecy (s)
# outage on hop 1, hop 2, either hop (e2e) and both hops; hop-1 intercepts
# summed over the eavesdroppers; the hop-1 jammer count |J1| and its square.
COUNT_KEYS = ("t_hop1", "t_hop2", "t_e2e", "t_both",
              "s_hop1", "s_hop2", "s_e2e", "s_both",
              "eve_hits_hop1", "jam1_sum", "jam1_sumsq")

# row i marks the outage codes t1 + 2 t2 + 4 s1 + 8 s2 that count toward COUNT_KEYS[i]
_CODE_BITS = 1 << np.arange(4)
_T1, _T2, _S1, _S2 = (np.arange(16) & bit > 0 for bit in _CODE_BITS)
_OUTAGE_CODES = np.array([_T1, _T2, _T1 | _T2, _T1 & _T2, _S1, _S2, _S1 | _S2, _S1 & _S2])


def classify_outage(record: TransmissionRecord, config: ScenarioConfig) -> dict[str, int]:
    """Each count of `COUNT_KEYS` over the record's trials.

    A receiver decodes iff its SINR is strictly greater than gamma_r (a
    measure-zero boundary, fixed for reproducibility). A hop is in secrecy
    outage iff some eavesdropper intercepts it.
    """
    outage = np.concatenate((~(record.sinr > config.gamma_r), record.intercepts > 0), axis=1)
    codes = np.bincount(outage @ _CODE_BITS, minlength=16)
    jam1 = record.jammers[:, 0]
    return dict(zip(COUNT_KEYS, [*(_OUTAGE_CODES @ codes).tolist(),
                                 int(record.intercepts[:, 0].sum()), int(jam1.sum()),
                                 int(jam1 @ jam1)]))
