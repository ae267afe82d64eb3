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
runs the block's transmissions and `classify_outage` turns their SINRs into
outage flags. A single transmission is a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import InfeasibleConfigError, theorem2_tau_range
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
            if self.tau is None or self.tau < 0:
                raise ValueError("manual tau policy requires tau >= 0")
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
    sinr_eves_hop1: np.ndarray   # (T, m)
    sinr_eves_hop2: np.ndarray   # (T, m)


@dataclass(frozen=True)
class OutageFlags:
    """Per-hop and end-to-end outage classification of T transmissions, (T,) each."""

    t_out_hop1: np.ndarray
    t_out_hop2: np.ndarray
    s_out_hop1: np.ndarray
    s_out_hop2: np.ndarray
    t_out_e2e: np.ndarray
    s_out_e2e: np.ndarray


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
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    jam = gains < tau
    jam[np.arange(len(jam)), selected] = False
    return jam


def tau_protocol1(n: int, gamma_r: float) -> float:
    """Jamming threshold sqrt(ln n / (8 n gamma_r)) used with max-min selection."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if gamma_r <= 0:
        raise ValueError(f"gamma_r must be > 0, got {gamma_r}")
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


def execute_two_hop(hop1: ChannelRealization, hop2: ChannelRealization,
                    selected: np.ndarray, tau: float,
                    config: ScenarioConfig) -> TransmissionRecord:
    """Run T two-hop transmissions through the (T,) `selected` relays and record every SINR.

    Hop 1 reads the block `hop1`; hop 2 reads `hop2`, which is `hop1` itself
    when both hops share the channel, or a fresh block when the legs are
    independent.

    Hop 1: S transmits to the selected relay; jammer set 1 is thresholded
    against the selected relay. Hop 2: the selected relay transmits to D;
    jammer set 2 is thresholded against D. Each eavesdropper hears the hop's
    transmitter as signal and the hop's jammer set as interference.
    """
    rows = np.arange(len(selected))
    to_relay = hop1.gains_to_relay(selected)
    jam1 = jammer_set(to_relay, selected, tau)
    jam2 = jammer_set(hop2.r_d, selected, tau)
    return TransmissionRecord(
        selected_relay=selected, jammers_hop1=jam1, jammers_hop2=jam2,
        sinr_relay=sinr(hop1.s_r[rows, selected], to_relay, jam1, config),
        sinr_dest=sinr(hop2.r_d[rows, selected], hop2.r_d, jam2, config),
        sinr_eves_hop1=sinr(hop1.s_e, hop1.r_e, jam1, config),
        sinr_eves_hop2=sinr(hop2.r_e[rows, selected], hop2.r_e, jam2, config))


def classify_outage(record: TransmissionRecord, config: ScenarioConfig) -> OutageFlags:
    """Apply the decoding thresholds to T transmission records.

    A legitimate receiver decodes iff its SINR is strictly greater than
    gamma_r; an eavesdropper succeeds iff its SINR reaches gamma_e. Both
    boundary conventions matter only on measure-zero events but are fixed
    for reproducibility.
    """
    t1 = ~(record.sinr_relay > config.gamma_r)
    t2 = ~(record.sinr_dest > config.gamma_r)
    s1 = np.any(record.sinr_eves_hop1 >= config.gamma_e, axis=1)
    s2 = np.any(record.sinr_eves_hop2 >= config.gamma_e, axis=1)
    return OutageFlags(t_out_hop1=t1, t_out_hop2=t2, s_out_hop1=s1,
                       s_out_hop2=s2, t_out_e2e=t1 | t2, s_out_e2e=s1 | s2)
