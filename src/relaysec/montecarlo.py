"""Replicated-trial estimation of outage probabilities and load-balance statistics.

Trials are embarrassingly parallel: trial t reads a fixed range of words of
the seed's PCG64DXSM stream, reached by advancing the generator (stream
layout 8, see `channel.SeedStream`), so a run can be split across any number of
workers and merged back into counts that are bit-identical to a
single-worker run. `OutageEstimate.proportion(key)` reads a count as a
proportion with its Wilson 95% interval, which stays honest at the extreme
rates secrecy studies produce; `PROPORTIONS` names the seven a run reports.

The trial kernel works in blocks with no per-trial loop: per block, one
draw, one selection and one `protocols.execute_two_hop` pass. Its reader
finds the jammers, on per-relay rows by their uniforms (a relay jams iff
its uniform is below u_tau), on count rows (`channel.count_cap`) by
inverting one uniform to a hop's jammer count; its one outcome stage adds
each trial's jammer gains in the reader's order and gives the SINRs and
first interceptors. A trial's outcome depends only on its own words, so
block boundaries never change a count. No eavesdropper gain is drawn, and
a trial's words and cost do not depend on m: on one seed no secrecy count
falls as m rises, and one run at m_cap answers `tolerance_search` for every
m (`protocols._first_hits`).

Two leg-sampling modes exist because the protocol and the closed-form
analysis disagree about hop coupling: "shared" runs both hops on one channel
realization (what the protocol actually experiences), while "independent"
redraws the channel for hop 2 (what the leg-combining identity assumes). The
estimate records the empirical hop correlation either way, so shared-mode
results document how far the independence assumption drifts.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bounds import check_at_least, check_unit
from .channel import ScenarioConfig, SeedStream, count_cap, sample_realization, trial_words
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


def _blocks(config: ScenarioConfig, kind: str, tau: float, start: int, stop: int, seed: int,
            legs: str):
    """The `protocols.TransmissionRecord` of each block of trials [start, stop) of `seed`."""
    maxmin = kind == "optimal-maxmin"
    independent = legs == "independent"
    cap, stream = count_cap(config.n, tau), SeedStream(seed)
    size = max(1, _BLOCK_WORDS // trial_words(config, maxmin=maxmin, independent=independent,
                                              cap=cap))
    for lo in range(start, stop, size):
        real = sample_realization(config, stream, lo, min(lo + size, stop),
                                  maxmin=maxmin, independent=independent, cap=cap)
        # max-min's count rows draw their relay's gains from the law of the maximum, no index
        selected = select_relay_optimal(real["s_r"], real["r_d"]) if maxmin and cap is None \
            else real.pick
        yield execute_two_hop(real, selected, tau, config)


def _run_trials(config: ScenarioConfig, kind: str, tau: float, start: int, stop: int,
                seed: int, legs: str) -> dict[str, int]:
    """Raw counts of trials [start, stop) of `seed` under rule `kind` and threshold `tau`."""
    c = dict.fromkeys(COUNT_KEYS, 0)
    for record in _blocks(config, kind, tau, start, stop, seed, legs):
        for key, count in classify_outage(record, config).items():
            c[key] += count
    return c


def _first_interceptors(config: ScenarioConfig, kind: str, tau: float, start: int, stop: int,
                        seed: int, legs: str) -> np.ndarray:
    """Each trial's first hit min(H1, H2), over m if none of m intercepts (`_run_trials`)."""
    return np.concatenate([np.minimum(*record.first_hit.T)
                           for record in _blocks(config, kind, tau, start, stop, seed, legs)])


@dataclass(frozen=True)
class OutageEstimate:
    """Pooled outcome counts from one set of trials, with derived estimates.

    Counts are stored rather than ratios so that estimates from disjoint
    trial ranges merge exactly.
    """

    config: ScenarioConfig
    protocol: ProtocolChoice
    tau: float  # the jamming threshold the trials ran at
    legs: str
    seed: int
    trial_start: int
    trials: int
    counts: dict

    def proportion(self, key: str) -> Proportion | None:
        """Count `key` as a proportion of the trials, with its Wilson interval.

        `eve_hits_hop1` is the share of trials whose first eavesdropper
        intercepts hop 1: one eavesdropper's intercept rate. None when m = 0.
        """
        if key == "eve_hits_hop1" and self.config.m == 0:
            return None
        k = self.counts[key]
        return Proportion(k / self.trials, *wilson_interval(k, self.trials))

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
    """A process pool for `workers` workers sharing `trials` trials; a no-op for one job."""
    jobs = min(workers, trials)  # `_map_ranges` gives each worker at least one trial
    return nullcontext() if jobs <= 1 else ProcessPoolExecutor(max_workers=jobs)


def _map_ranges(pool, job, config: ScenarioConfig, kind: str, tau: float, trial_start: int,
                trials: int, seed: int, legs: str, workers: int) -> list:
    """`job`'s results on trials [trial_start, trial_start + trials), one range a worker in
    trial order, on `pool` (from `_pool`) or here if None."""
    edges = [int(trial_start) + i * int(trials) // workers for i in range(workers + 1)]
    jobs = [(config, kind, tau, a, b, seed, legs) for a, b in zip(edges, edges[1:]) if b > a]
    return list((map if pool is None else pool.map)(job, *zip(*jobs)))


def estimate_outage(config: ScenarioConfig, protocol: ProtocolChoice,
                    trials: int, seed: int, legs: str = "shared",
                    workers: int = 1, trial_start: int = 0) -> OutageEstimate:
    """Estimate all outage probabilities from `trials` simulated transmissions.

    The run counts trials [trial_start, trial_start + trials): `trial_start`
    is an integer >= 0 and the range ends at 2**63 at most, or ValueError;
    `seed` is any integer (not a bool), read mod 2**64, or ValueError.
    The threshold is resolved once, before any worker starts, and carried as
    `tau`. The result is identical for any `workers` count: trial t always
    reads the same words of the seed's stream, and workers only partition
    the trial range, by integer arithmetic.
    """
    _check_run(trials, seed, legs, workers, trial_start)
    tau = resolve_tau(protocol, config)
    with _pool(workers, trials) as pool:
        counts, *rest = _map_ranges(pool, _run_trials, config, protocol.kind, tau, trial_start,
                                    trials, seed, legs, workers)
    for part in rest:
        counts = {key: count + part[key] for key, count in counts.items()}
    return OutageEstimate(config=config, protocol=protocol, tau=tau, legs=legs, seed=seed,
                          trial_start=trial_start, trials=trials, counts=counts)


def merge_estimates(parts: list[OutageEstimate]) -> OutageEstimate:
    """Pool estimates whose trial ranges tile one range of one configuration.

    Merging is exact (counts add), so the result equals a single run over
    that range. Parts with mismatched configuration, protocol, threshold,
    leg mode or seed are rejected, and so are parts whose ranges, in any
    order, overlap or leave a gap.
    """
    if not parts:
        raise ValueError("nothing to merge")
    parts = sorted(parts, key=lambda p: p.trial_start)
    head = parts[0]
    for prev, p in zip(parts, parts[1:]):
        if (p.config, p.protocol, p.tau, p.legs, p.seed) != (head.config, head.protocol,
                                                             head.tau, head.legs, head.seed):
            raise ValueError("cannot merge estimates from different runs")
        if p.trial_start != prev.trial_start + prev.trials:
            raise ValueError(f"trial ranges must tile one range: [{prev.trial_start}, "
                             f"{prev.trial_start + prev.trials}) is followed by a range "
                             f"starting at {p.trial_start}")
    return OutageEstimate(config=head.config, protocol=head.protocol, tau=head.tau,
                          legs=head.legs, seed=head.seed, trial_start=head.trial_start,
                          trials=sum(p.trials for p in parts),
                          counts={k: sum(p.counts[k] for p in parts) for k in head.counts})


@dataclass(frozen=True)
class ToleranceResult:
    """Empirical eavesdropper tolerance at jamming threshold `tau`; `probes` holds
    (m, Wilson upper bound of p_s_e2e) at m = 1, 2, 4, ..., m_max and m_max + 1 in [1, m_cap]."""

    m_max: int
    tau: float
    probes: tuple

    @property
    def violated_at_m1(self) -> bool:
        """Whether one eavesdropper already breaks the budget, so that m_max is 0."""
        return self.m_max == 0


def tolerance_search(config: ScenarioConfig, protocol: ProtocolChoice,
                     eps_s: float, trials: int, m_cap: int, seed: int,
                     legs: str = "shared", workers: int = 1) -> ToleranceResult:
    """Largest m <= m_cap whose estimated secrecy outage stays within eps_s, from one run.

    One run sorts the T trials' first hits min(H1, H2) at m = m_cap; the s_e2e count
    `estimate_outage` gives at any m is the number at most m. The Wilson upper bound
    rises with it, so bisection finds the least count over eps_s, and m_max is one below
    the hit that reaches it: O(T log T) time and O(T) memory whatever m_cap is. The
    threshold is resolved once, at the base configuration's m.
    """
    check_at_least("m_cap", m_cap, 1, integer=True)
    check_unit("eps_s", eps_s)
    _check_run(trials, seed, legs, workers)
    tau = resolve_tau(protocol, config)
    with _pool(workers, trials) as pool:
        hits = np.sort(np.concatenate(_map_ranges(pool, _first_interceptors,
                                                  replace(config, m=m_cap), protocol.kind, tau,
                                                  0, trials, seed, legs, workers)))

    def upper(count: int) -> float:
        return wilson_interval(count, trials)[1]

    over = bisect.bisect_left(range(trials + 1), True, key=lambda count: upper(count) > eps_s)
    m_max = m_cap if over > trials else min(m_cap, int(hits[over - 1]) - 1) if over else 0
    probes = sorted({1 << k for k in range(int(m_cap).bit_length())} | {m_max, m_max + 1})
    return ToleranceResult(m_max, tau, tuple((m, upper(int(np.searchsorted(hits, m, "right"))))
                                             for m in probes if 1 <= m <= m_cap))


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

    Each pick is a relay floor(u n) from one word of the seed's stream
    (`SeedStream`), `_BLOCK_WORDS` picks a block: slot s's from word s under
    random selection, epoch e's from word e under max-min, whose pick is
    uniform in law, as every relay's s_r and r_d have one law. A max-min pick
    counts once a slot of its epoch; a short last epoch counts its slots only.

    `constant_within_epochs` is always true for max-min, which picks from
    one draw per epoch; it tells you something only for random selection.
    """
    check_at_least("slots", slots, 1, integer=True)
    check_at_least("seed", seed, -math.inf, integer=True)
    n, epoch_len = config.n, config.coherence_len
    epochs = (slots + epoch_len - 1) // epoch_len
    stream = SeedStream(seed)
    counts = np.zeros(n, dtype=np.int64)
    maxmin = protocol.kind == "optimal-maxmin"
    constant = True
    # max-min picks once an epoch, each pick counting `span` slots
    picks_made, span = (epochs, min(epoch_len, slots)) if maxmin else (slots, 1)
    for lo in range(0, picks_made, _BLOCK_WORDS):
        u = stream.uniforms(lo, min(lo + _BLOCK_WORDS, picks_made), 1)[:, 0]
        picks = (u * n).astype(np.intp)
        counts += span * np.bincount(picks, minlength=n)
        if constant and not maxmin:  # a relay may differ from the slot before's at epochs only
            moved = picks[1:] != picks[:-1]  # entry i: slot lo + 1 + i
            moved[(-lo - 1) % epoch_len::epoch_len] = False
            constant = not (moved.any() or lo % epoch_len and picks[0] != last)
        last = picks[-1]  # the relay of the next block's slot before, or the last epoch's
    counts[last] -= picks_made * span - slots  # max-min's short last epoch's missing slots
    c = counts.astype(float)
    total = c.sum()
    return LoadBalanceStats(selection_counts=tuple(counts.tolist()),
                            jain_index=_jain(c, total), entropy=_entropy(c, total),
                            slots=slots, epochs=epochs, coherence_len=epoch_len,
                            constant_within_epochs=constant, seed=seed)
