"""Replicated-trial estimation of outage probabilities and load-balance statistics.

Trials are embarrassingly parallel: trial t reads a fixed range of words of
the seed's PCG64DXSM stream, reached by advancing the generator (stream
layout 4, see `channel.SeedStream`), so a run can be split across any number of
workers and merged back into counts that are bit-identical to a
single-worker run. `OutageEstimate.proportion(key)` reads a count as a
proportion with its Wilson 95% interval, which stays honest at the extreme
rates secrecy studies produce; `PROPORTIONS` names the seven a run reports.

The trial kernel works in blocks with no per-trial loop: per block, one
draw, one selection and one `protocols.execute_two_hop` pass, which decide
on the uniforms (a relay jams iff its uniform is below u_tau) and add each
trial's jammer gains in relay order. A trial's outcome depends only on its
own words, so block boundaries never change a count. No eavesdropper gain
is drawn: each eavesdropper's uniform decides its two intercepts from their
exact law given the trial's jammer sets, so every count keeps the law a
gain-level simulation gives it, and its cost does not grow with n m.

Two leg-sampling modes exist because the protocol and the closed-form
analysis disagree about hop coupling: "shared" runs both hops on one channel
realization (what the protocol actually experiences), while "independent"
redraws the channel for hop 2 (what the leg-combining identity assumes). The
estimate records the empirical hop correlation either way, so shared-mode
results document how far the independence assumption drifts.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bounds import check_at_least, check_unit
from .channel import ScenarioConfig, SeedStream, sample_realization, trial_words
from .protocols import (COUNT_KEYS, ProtocolChoice, classify_outage, execute_two_hop,
                        resolve_tau, select_relay_optimal)

LEG_MODES = ("shared", "independent")

Z95 = 1.959963984540054  # two-sided 95% normal quantile


class Proportion(NamedTuple):
    """A point estimate with its Wilson 95% interval."""

    p: float
    lo: float
    hi: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # containment of the point estimate must survive float rounding at p = 0 or 1
    return (min(p, max(0.0, center - half)), max(p, min(1.0, center + half)))


# reported proportion -> the count it is a proportion of, in report order
PROPORTIONS = {"p_t_hop1": "t_hop1", "p_t_hop2": "t_hop2", "p_t_e2e": "t_e2e",
               "p_s_hop1": "s_hop1", "p_s_hop2": "s_hop2", "p_s_e2e": "s_e2e",
               "p_eve_single_hop1": "eve_hits_hop1"}
CI_SUFFIXES = ("", "_ci_lo", "_ci_hi")  # a proportion's point estimate and Wilson bounds


# Words drawn per block, 2 MB of uniforms: trial_words words a trial, and
# never less than one trial.
_BLOCK_WORDS = 1 << 18


def _run_trials(config: ScenarioConfig, protocol: ProtocolChoice,
                start: int, stop: int, seed: int, legs: str) -> dict[str, int]:
    """Run trials [start, stop) of `seed` and return raw outcome counts."""
    tau = resolve_tau(protocol, config)
    maxmin = protocol.kind == "optimal-maxmin"
    independent = legs == "independent"
    size = max(1, _BLOCK_WORDS // trial_words(config, maxmin=maxmin, independent=independent))
    stream = SeedStream(seed)
    c = dict.fromkeys(COUNT_KEYS, 0)
    for lo in range(start, stop, size):
        real = sample_realization(config, stream, lo, min(lo + size, stop),
                                  maxmin=maxmin, independent=independent)
        selected = select_relay_optimal(real["s_r"], real["r_d"]) if maxmin else real.pick
        record = execute_two_hop(real, selected, tau, config)
        for key, count in classify_outage(record, config).items():
            c[key] += count
    return c


@dataclass(frozen=True)
class OutageEstimate:
    """Pooled outcome counts from one set of trials, with derived estimates.

    Counts are stored rather than ratios so that estimates from disjoint
    trial ranges merge exactly.
    """

    config: ScenarioConfig
    protocol: ProtocolChoice
    legs: str
    seed: int
    trial_start: int
    trials: int
    counts: dict

    def proportion(self, key: str) -> Proportion | None:
        """Count `key` as a proportion of the trials, with its Wilson interval.

        `eve_hits_hop1` is a proportion of trials * m, one per eavesdropper
        and trial (pooled over the eavesdroppers); None when m = 0.
        """
        denom = self.trials * self.config.m if key == "eve_hits_hop1" else self.trials
        if denom == 0:
            return None
        k = self.counts[key]
        lo, hi = wilson_interval(k, denom)
        return Proportion(k / denom, lo, hi)

    @property
    def mean_jammers_hop1(self) -> float:
        return self.counts["jam1_sum"] / self.trials

    @property
    def se_jammers_hop1(self) -> float:
        """Standard error of the mean hop-1 jammer count."""
        if self.trials < 2:
            return math.inf
        s, ss = self.counts["jam1_sum"], self.counts["jam1_sumsq"]
        var = (ss - s * s / self.trials) / (self.trials - 1)
        return math.sqrt(max(0.0, var) / self.trials)

    def hop_correlation(self, outage: str) -> float | None:
        """Phi correlation between the two hops' outage indicators ("t" or "s")."""
        n1, n2 = self.counts[f"{outage}_hop1"], self.counts[f"{outage}_hop2"]
        both, n = self.counts[f"{outage}_both"], self.trials
        denom = n1 * (n - n1) * n2 * (n - n2)
        if denom == 0:
            return None
        return (both * n - n1 * n2) / math.sqrt(denom)

    def as_dict(self) -> dict:
        out = {"trials": self.trials, "seed": self.seed, "legs": self.legs}
        for name, key in PROPORTIONS.items():
            out.update(zip((name + end for end in CI_SUFFIXES),
                           self.proportion(key) or (None,) * 3))
        out["mean_jammers_hop1"] = self.mean_jammers_hop1
        out["corr_t_hops"] = self.hop_correlation("t")
        out["corr_s_hops"] = self.hop_correlation("s")
        return out


# Trial indices stay below 2**63, so every trial range is one of int64s.
_TRIAL_LIMIT = 1 << 63


def _check_run(trials: int, seed: int, legs: str, workers: int, trial_start: int = 0) -> None:
    check_at_least("trials", trials, 1, integer=True)
    check_at_least("seed", seed, -math.inf, integer=True)  # the stream reads it mod 2**64
    check_at_least("trial_start", trial_start, 0, integer=True)
    end = int(trial_start) + int(trials)  # numpy integers would wrap
    if end > _TRIAL_LIMIT:
        raise ValueError(f"trial_start + trials must be <= 2**63, got {end}")
    check_at_least("workers", workers, 1, integer=True)
    if legs not in LEG_MODES:
        raise ValueError(f"legs must be one of {LEG_MODES}, got {legs!r}")


def _pool(workers: int, trials: int):
    """A process pool for `workers` workers sharing `trials` trials; a no-op for one worker."""
    if workers <= 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=min(workers, trials))


def _estimate(pool, config: ScenarioConfig, protocol: ProtocolChoice, trials: int,
              seed: int, legs: str, workers: int, trial_start: int = 0) -> OutageEstimate:
    """`estimate_outage` on `pool`, a pool from `_pool(workers, trials)`, run here if None."""
    if pool is None:
        counts = _run_trials(config, protocol, trial_start, trial_start + trials, seed, legs)
        return OutageEstimate(config=config, protocol=protocol, legs=legs, seed=seed,
                              trial_start=trial_start, trials=trials, counts=counts)
    edges = [int(trial_start) + i * int(trials) // workers for i in range(workers + 1)]
    ranges = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    futures = [pool.submit(_run_trials, config, protocol, a, b, seed, legs)
               for a, b in ranges]
    return merge_estimates([OutageEstimate(config=config, protocol=protocol, legs=legs,
                                           seed=seed, trial_start=a, trials=b - a,
                                           counts=f.result())
                            for (a, b), f in zip(ranges, futures)])


def estimate_outage(config: ScenarioConfig, protocol: ProtocolChoice,
                    trials: int, seed: int, legs: str = "shared",
                    workers: int = 1, trial_start: int = 0) -> OutageEstimate:
    """Estimate all outage probabilities from `trials` simulated transmissions.

    The run counts trials [trial_start, trial_start + trials): `trial_start`
    is an integer >= 0 and the range ends at 2**63 at most, or ValueError;
    `seed` is any integer (not a bool), read mod 2**64, or ValueError.
    The result is identical for any `workers` count: trial t always reads
    the same words of the seed's stream, and workers only partition the
    trial range, by integer arithmetic.
    """
    _check_run(trials, seed, legs, workers, trial_start)
    if workers > 1:
        resolve_tau(protocol, config)  # an infeasible tau policy fails before any worker starts
    with _pool(workers, trials) as pool:
        return _estimate(pool, config, protocol, trials, seed, legs, workers, trial_start)


def merge_estimates(parts: list[OutageEstimate]) -> OutageEstimate:
    """Pool estimates whose trial ranges tile one range of one configuration.

    Merging is exact (counts add), so the result equals a single run over
    that range. Parts with mismatched configuration, protocol, leg mode or
    seed are rejected, and so are parts whose ranges, in any order, overlap
    or leave a gap.
    """
    if not parts:
        raise ValueError("nothing to merge")
    parts = sorted(parts, key=lambda p: p.trial_start)
    head = parts[0]
    for prev, p in zip(parts, parts[1:]):
        if (p.config, p.protocol, p.legs, p.seed) != (head.config, head.protocol,
                                                      head.legs, head.seed):
            raise ValueError("cannot merge estimates from different runs")
        if p.trial_start != prev.trial_start + prev.trials:
            raise ValueError(f"trial ranges must tile one range: [{prev.trial_start}, "
                             f"{prev.trial_start + prev.trials}) is followed by a range "
                             f"starting at {p.trial_start}")
    return OutageEstimate(config=head.config, protocol=head.protocol, legs=head.legs,
                          seed=head.seed, trial_start=head.trial_start,
                          trials=sum(p.trials for p in parts),
                          counts={k: sum(p.counts[k] for p in parts) for k in head.counts})


@dataclass(frozen=True)
class ToleranceResult:
    """Outcome of an empirical eavesdropper-tolerance search."""

    m_max: int
    violated_at_m1: bool
    probes: tuple


def tolerance_search(config: ScenarioConfig, protocol: ProtocolChoice,
                     eps_s: float, trials: int, m_cap: int, seed: int,
                     legs: str = "shared", workers: int = 1) -> ToleranceResult:
    """Largest m <= m_cap whose estimated secrecy outage stays within eps_s.

    Uses the Wilson upper bound of p_s_e2e (conservative at the chosen trial
    count) and doubling-then-bisection, justified by the monotonicity of
    secrecy outage in m. The jamming threshold is resolved once from the
    base configuration and frozen, so policies that depend on m do not move
    during the search. With `workers` > 1, one process pool serves every
    probe.
    """
    check_at_least("m_cap", m_cap, 1, integer=True)
    check_unit("eps_s", eps_s)
    _check_run(trials, seed, legs, workers)
    frozen = ProtocolChoice(kind=protocol.kind, tau_policy="manual",
                            tau=resolve_tau(protocol, config))
    probes: list[tuple[int, float]] = []
    with _pool(workers, trials) as pool:

        def ok(m: int) -> bool:
            est = _estimate(pool, replace(config, m=m), frozen, trials, seed, legs, workers)
            upper = est.proportion("s_e2e").hi
            probes.append((m, upper))
            return upper <= eps_s

        if not ok(1):
            return ToleranceResult(0, True, tuple(probes))
        good, bad = 1, None
        while good < m_cap:
            nxt = min(2 * good, m_cap)
            if ok(nxt):
                good = nxt
            else:
                bad = nxt
                break
        while bad is not None and bad - good > 1:
            mid = (good + bad) // 2
            if ok(mid):
                good = mid
            else:
                bad = mid
    return ToleranceResult(good, False, tuple(probes))


def jain_index(counts) -> float:
    """Jain fairness (sum c)^2 / (n sum c^2): 1 when balanced, 1/n when concentrated."""
    c = np.asarray(counts, dtype=float)
    return _jain(c, c.sum())


def _jain(c: np.ndarray, total) -> float:
    total_sq = total ** 2
    if total_sq == 0.0:
        return 1.0
    return float(total_sq / (c.size * (c * c).sum()))


def selection_entropy(counts) -> float:
    """Entropy in nats of the empirical selection distribution."""
    c = np.asarray(counts, dtype=float)
    return _entropy(c, c.sum())


def _entropy(c: np.ndarray, total) -> float:
    if total == 0.0:
        return 0.0
    p = c[c > 0] / total
    return float(-(p * np.log(p)).sum())


@dataclass(frozen=True)
class LoadBalanceStats:
    """Relay-selection frequencies over a run of transmission slots."""

    selection_counts: tuple
    jain_index: float
    entropy: float
    slots: int
    epochs: int
    coherence_len: int
    constant_within_epochs: bool
    seed: int


def load_balance(config: ScenarioConfig, protocol: ProtocolChoice,
                 slots: int, seed: int) -> LoadBalanceStats:
    """Relay-selection statistics over slots grouped into coherence epochs.

    The channel is resampled at epoch boundaries (every coherence_len slots)
    and the relay is reselected every slot, which is what makes max-min
    selection freeze onto one relay per epoch while random selection keeps
    rotating. Only selection is simulated; no jamming threshold is needed.

    Epoch e is row e of the seed's stream (`SeedStream`): a max-min epoch
    reads s_r and r_d (2n words) and counts its relay once a slot, a random
    one a relay index floor(u n) a slot (min(coherence_len, slots) words).
    A block of epochs is one bincount; a short last epoch counts its slots only.

    `constant_within_epochs` is always true for max-min, which picks from
    one draw per epoch; it tells you something only for random selection.
    """
    check_at_least("slots", slots, 1, integer=True)
    check_at_least("seed", seed, -math.inf, integer=True)
    n, epoch_len = config.n, config.coherence_len
    maxmin = protocol.kind == "optimal-maxmin"
    span = min(epoch_len, slots)  # the slots of each epoch but a short last one
    words = 2 * n if maxmin else span
    epochs = (slots + epoch_len - 1) // epoch_len
    stream = SeedStream(seed)
    counts = np.zeros(n, dtype=np.int64)
    constant = True
    size = max(1, _BLOCK_WORDS // words)
    for lo in range(0, epochs, size):
        u = stream.uniforms(lo, min(lo + size, epochs), words)
        if maxmin:
            selected = select_relay_optimal(u[:, :n], u[:, n:])
            counts += span * np.bincount(selected, minlength=n)
        else:
            picks = (u * n).astype(np.intp)
            read = slots - lo * span  # the short last epoch's tail is drawn but not read
            counts += np.bincount(picks.ravel()[:read], minlength=n)
            constant = constant and bool((picks == picks[:, :1]).ravel()[:read].all())
    if maxmin:  # the short last epoch lacks the slots past the run
        counts[selected[-1]] -= epochs * span - slots
    c = counts.astype(float)
    total = c.sum()
    return LoadBalanceStats(selection_counts=tuple(counts.tolist()),
                            jain_index=_jain(c, total), entropy=_entropy(c, total),
                            slots=slots, epochs=epochs, coherence_len=epoch_len,
                            constant_within_epochs=constant, seed=seed)
