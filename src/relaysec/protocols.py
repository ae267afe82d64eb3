"""Two-hop transmission protocols with cooperative jamming, over blocks of trials.

One transmission is: pick a relay, send S -> relay while nearby idle relays
jam, then send relay -> D while a second jammer set jams. A relay joins a
hop's jammer set when its (pilot-measured) gain toward that hop's legitimate
receiver is below the threshold tau, so jammers are loud at unknown
eavesdropper positions but quiet at the receiver. Two selection rules are
supported: the max-min optimal rule and uniform random selection; both reuse
the same threshold jamming, differing only in where tau comes from.

Everything runs on blocks of T trials, one row per trial: the
`ChannelRealization` blocks the trials drew (see `channel.sample_realization`,
which draws a random-selection trial's relay index with its gains), the (T,)
selected relays, and arrays with a leading trial axis.
`select_relay_optimal` picks max-min relays for a block, `execute_two_hop`
runs the block's transmissions and `classify_outage` maps each count name
of `COUNT_KEYS` to its (T,) per-trial terms, which a run sums. A single
transmission is a block of one.

An eavesdropper's gains are independent of every legitimate gain and enter
its outcome only through the two jammer sets, so `execute_two_hop` decides
each eavesdropper's pair of intercepts from their exact law given the sets,
with one uniform (conditional Monte Carlo; Asmussen & Glynn, *Stochastic
Simulation*, 2007, ch. V). Every count stays an indicator with the law a
simulation of the eavesdropper gains would give it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import InfeasibleConfigError, check_at_least, check_positive, theorem2_tau_range
from .channel import ChannelRealization, ScenarioConfig, sinr

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


@dataclass(frozen=True)
class TransmissionRecord:
    """Everything observed during T two-hop transmissions, one row per trial."""

    selected_relay: np.ndarray   # (T,) relay index
    jammers_hop1: np.ndarray     # (T, n) mask of hop-1 jammers
    jammers_hop2: np.ndarray     # (T, n) mask of hop-2 jammers
    sinr_relay: np.ndarray       # (T,)
    sinr_dest: np.ndarray        # (T,)
    intercept_hop1: np.ndarray   # (T, m) bool: eavesdropper i decodes hop 1
    intercept_hop2: np.ndarray   # (T, m) bool: eavesdropper i decodes hop 2


def select_relay_optimal(s_r: np.ndarray, r_d: np.ndarray) -> np.ndarray:
    """(T,) relay with the largest min(gain to S, gain to D) in each trial.

    `s_r` and `r_d` are (T, n). Ties go to the lowest index.
    """
    return np.argmax(np.minimum(s_r, r_d), axis=1)


def jammer_set(gains: np.ndarray, selected: np.ndarray, tau: float) -> np.ndarray:
    """(T, n) mask of the relays that jam in each of T trials.

    `gains[t, j]` is relay j's gain toward the hop's legitimate receiver (the
    selected relay on hop 1, D on hop 2). Every relay below tau jams except
    the trial's selected relay.
    """
    check_at_least("tau", tau, 0)
    jam = gains < tau
    jam[np.arange(len(jam)), selected] = False
    return jam


def tau_protocol1(n: int, gamma_r: float) -> float:
    """Jamming threshold sqrt(ln n / (8 n gamma_r)) used with max-min selection."""
    check_at_least("n", n, 1)
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

    numpy's vectorised power may round an entry differently, and by its
    place in the array; one scalar power per entry keeps a trial's law
    independent of its block and of the other trials.
    """
    return np.array([base ** j for j in range(top + 1)])


def intercept_law(jam1: np.ndarray, jam2: np.ndarray, shared: bool,
                  config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T,) probabilities A, B, C that one eavesdropper decodes hop 1, hop 2, both.

    Given trial t's jammer sets J1 and J2, with nu = exp(-gamma_e N0/2 / Es)
    (1 when interference-limited) and q = 1 / (1 + gamma_e):
    A = nu q^|J1|, B = nu q^|J2|, and with shared legs, where the jammers
    both sets hold (k of them) reach the eavesdropper over the same gain,
    C = nu^2 q^(|J1| + |J2| - 2k) / (1 + 2 gamma_e)^k; with independent legs
    C = A B. An SINR Es g / (Es I + N0/2) reaches gamma_e iff
    g >= gamma_e (I + N0/2 / Es), and g ~ Exp(1) is independent of I.
    """
    gamma_e = config.gamma_e
    nu = math.exp(-gamma_e * config.noise_term / config.es)
    k1, k2 = jam1.sum(axis=1), jam2.sum(axis=1)
    q_pow = _powers(1.0 / (1.0 + gamma_e), int((k1 + k2).max(initial=0)))  # every exponent below
    a, b = nu * q_pow[k1], nu * q_pow[k2]
    if not shared:
        return a, b, a * b
    k = (jam1 & jam2).sum(axis=1)
    r_pow = _powers(1.0 / (1.0 + 2.0 * gamma_e), int(k.max(initial=0)))
    return a, b, nu * nu * q_pow[k1 + k2 - 2 * k] * r_pow[k]


def execute_two_hop(hop1: ChannelRealization, hop2: ChannelRealization,
                    selected: np.ndarray, tau: float,
                    config: ScenarioConfig) -> TransmissionRecord:
    """Run T two-hop transmissions through the (T,) `selected` relays and record the outcome.

    Hop 1 reads the block `hop1`; hop 2 reads `hop2`, which is `hop1` itself
    when both hops share the channel, or a fresh block when the legs are
    independent.

    Hop 1: S transmits to the selected relay; jammer set 1 is thresholded
    against the selected relay. Hop 2: the selected relay transmits to D;
    jammer set 2 is thresholded against D. Each eavesdropper hears the hop's
    transmitter as signal and the hop's jammer set as interference; its
    uniform u (`ChannelRealization.eve`) decides both hops from
    `intercept_law`'s A, B and C: hop 1 is intercepted iff u < A, and hop 2
    iff u < C or A <= u < A + B - C. So each hop has its exact marginal and
    the pair its exact joint law.
    """
    rows = np.arange(len(selected))
    to_relay = hop1.gains_to_relay(selected)
    jam1 = jammer_set(to_relay, selected, tau)
    jam2 = jammer_set(hop2.r_d, selected, tau)
    a, b, c = (p[:, None] for p in intercept_law(jam1, jam2, hop2 is hop1, config))
    u = hop1.eve
    return TransmissionRecord(
        selected_relay=selected, jammers_hop1=jam1, jammers_hop2=jam2,
        sinr_relay=sinr(hop1.s_r[rows, selected], to_relay, jam1, config),
        sinr_dest=sinr(hop2.r_d[rows, selected], hop2.r_d, jam2, config),
        intercept_hop1=u < a,
        intercept_hop2=(u < c) | ((u >= a) & (u < a + b - c)))


# Every count a run keeps, in report order: transmission (t) and secrecy (s)
# outage on hop 1, hop 2, either hop (e2e) and both hops; hop-1 intercepts
# summed over the eavesdroppers; the hop-1 jammer count |J1| and its square.
COUNT_KEYS = ("t_hop1", "t_hop2", "t_e2e", "t_both",
              "s_hop1", "s_hop2", "s_e2e", "s_both",
              "eve_hits_hop1", "jam1_sum", "jam1_sumsq")


def classify_outage(record: TransmissionRecord, config: ScenarioConfig) -> dict[str, np.ndarray]:
    """Each count of `COUNT_KEYS` mapped to its (T,) per-trial term.

    A legitimate receiver decodes iff its SINR is strictly greater than
    gamma_r (the boundary matters only on a measure-zero event but is fixed
    for reproducibility). A hop is in secrecy outage iff some eavesdropper
    intercepts it.
    """
    t1 = ~(record.sinr_relay > config.gamma_r)
    t2 = ~(record.sinr_dest > config.gamma_r)
    s1 = record.intercept_hop1.any(axis=1)
    s2 = record.intercept_hop2.any(axis=1)
    jam1 = record.jammers_hop1.sum(axis=1)
    return dict(zip(COUNT_KEYS, (t1, t2, t1 | t2, t1 & t2, s1, s2, s1 | s2, s1 & s2,
                                 record.intercept_hop1.sum(axis=1), jam1, jam1 * jam1)))
