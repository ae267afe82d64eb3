"""The eavesdropper intercept law against gain-level simulation and exact values.

The kernel never draws an eavesdropper gain: one uniform per eavesdropper
decides both hops from their exact law given the jammer sets
(`protocols.intercept_law`). Two independent checks hold it to that:

* a ground-truth simulator that still draws s_e, r_e (and hop 2's r_e with
  independent legs), computes every eavesdropper's SINR and thresholds it at
  gamma_e, compared count by count with `estimate_outage` at 6 sigma of the
  two-proportion z;
* exact random-selection secrecy outages with shared legs, summed over the
  jammer sets' overlap, gated at 6 binomial sigma.
"""

import itertools
import math

import numpy as np
import pytest

from relaysec import (ProtocolChoice, ScenarioConfig, SeedStream, estimate_outage,
                      execute_two_hop, sample_realization, select_relay_optimal, trial_rng)
from relaysec.channel import sinr_many

Z = 6.0
CHUNK = 5_000
MS, GAMMA_ES = (0, 1, 8), (0.5, 2.0)
GROUPS = list(itertools.product(("optimal-maxmin", "random-uniform"), ("shared", "independent"),
                                ("exact", "interference-limited"), (0.0, 0.3, 1.0)))
OUTAGES = ("t_hop1", "t_hop2", "t_e2e", "t_both", "s_hop1", "s_hop2", "s_e2e", "s_both")


def simulate_gains(n, kind, legs, noise, tau, trials, seed):
    """{(m, gamma_e): outcome counts} with every eavesdropper gain drawn.

    The legitimate gains and relays come from the library's own draw of
    `seed` with no eavesdropper, and the jammer sets from thresholding those
    gains at tau (the kernel's jammer counts must agree); the gains of
    max(MS) eavesdroppers from `trial_rng(seed, chunk)`, the first m of them
    serving m. Every eavesdropper's SINR is computed and thresholded at each
    gamma_e.
    """
    maxmin, independent = kind == "optimal-maxmin", legs == "independent"
    config = ScenarioConfig(n=n, m=0, gamma_r=1.0, gamma_e=1.0, noise_mode=noise)
    stream, eves = SeedStream(seed), max(MS)
    counts = {(m, g): dict.fromkeys(OUTAGES + ("eve_hits_hop1",), 0)
              for m in MS for g in GAMMA_ES}
    for chunk, lo in enumerate(range(0, trials, CHUNK)):
        hi = min(lo + CHUNK, trials)
        real = sample_realization(config, stream, lo, hi, maxmin=maxmin, independent=independent)
        selected = select_relay_optimal(real["s_r"], real["r_d"]) if maxmin else real.pick
        record = execute_two_hop(real, selected, tau, config)
        t1, t2 = (~(record.sinr > config.gamma_r)).T
        rows = np.arange(hi - lo)
        jam1 = real.gains_to_relay(selected) < tau  # the selected relay's NaN never jams
        jam2 = -np.log1p(-real["r_d2"]) < tau
        jam2[rows, selected] = False
        assert np.array_equal(record.jammers, np.stack((jam1.sum(axis=1), jam2.sum(axis=1)), 1))
        assert np.array_equal(record.jammers_both, (jam1 & jam2).sum(axis=1))
        rng = trial_rng(seed, chunk)
        s_e = rng.standard_exponential((hi - lo, eves))
        r_e = rng.standard_exponential((hi - lo, n, eves))
        r_e2 = rng.standard_exponential((hi - lo, n, eves)) if independent else r_e
        # the hop's signal over the interference of the hop's jammers, each eavesdropper
        signal1, signal2 = s_e, r_e2[rows, selected]
        interference1 = np.einsum("tn,tnm->tm", jam1.astype(float), r_e)
        interference2 = np.einsum("tn,tnm->tm", jam2.astype(float), r_e2)
        for g in GAMMA_ES:
            hits1 = sinr_many(signal1, interference1, config) >= g
            hits2 = sinr_many(signal2, interference2, config) >= g
            for m in MS:
                s1, s2 = hits1[:, :m].any(axis=1), hits2[:, :m].any(axis=1)
                c = counts[m, g]
                for key, flags in zip(OUTAGES, (t1, t2, t1 | t2, t1 & t2,
                                                s1, s2, s1 | s2, s1 & s2)):
                    c[key] += int(flags.sum())
                c["eve_hits_hop1"] += int(hits1[:, :m].sum())
    return counts


def two_sample_misses(a, b, trials, m):
    """Counts of two independent runs of `trials` that differ by more than Z sigma."""
    misses = []
    for key in OUTAGES + ("eve_hits_hop1",):
        # eve_hits_hop1 sums m indicators a trial that may all move together,
        # so its per-trial variance is bounded by m^2 p (1 - p)
        scale = m if key == "eve_hits_hop1" else 1
        if scale == 0:
            continue
        p = (a[key] + b[key]) / (2 * trials * scale)
        sigma = scale * math.sqrt(p * (1.0 - p) * 2.0 / trials)
        if abs(a[key] - b[key]) / trials > Z * sigma:
            misses.append((key, a[key], b[key]))
    return misses


@pytest.mark.parametrize("n, trials", [(1, 20_000), (2, 20_000), (11, 20_000), (40, 5_000)])
def test_kernel_matches_gain_level_simulation(n, trials):
    # every (m, gamma_e) of a group is compared with one simulation of the group
    wrong = []
    for i, (kind, legs, noise, tau) in enumerate(GROUPS):
        truth = simulate_gains(n, kind, legs, noise, tau, trials, 5000 + i)
        protocol = ProtocolChoice(kind=kind, tau_policy="manual", tau=tau)
        for j, (m, g) in enumerate(itertools.product(MS, GAMMA_ES)):
            config = ScenarioConfig(n=n, m=m, gamma_r=1.0, gamma_e=g, noise_mode=noise)
            kernel = estimate_outage(config, protocol, trials, 1000 + 10 * i + j, legs=legs)
            misses = two_sample_misses(kernel.counts, truth[m, g], trials, m)
            if misses:
                wrong.append((m, kind, legs, noise, tau, g, misses))
    assert wrong == []


def exact_shared_secrecy(n, m, tau, gamma_e, nu):
    """Exact P(s_hop1), P(s_hop2), P(s_e2e), P(s_both): random selection, shared legs.

    Each of the n - 1 other relays is, independently, in J1 only, J2 only,
    both or neither with probabilities p(1-p), p(1-p), p^2, (1-p)^2,
    p = 1 - e^-tau. Given a = |J1 \\ J2|, b = |J2 \\ J1| and k = |J1 & J2|, one
    eavesdropper decodes hop 1 with probability A = nu (1+g)^-(a+k), hop 2
    with B = nu (1+g)^-(b+k) and both with C = nu^2 (1+g)^-(a+b) (1+2g)^-k,
    the k shared jammers reaching it over one gain each; its m
    eavesdroppers are independent given the sets.
    """
    p = 1.0 - math.exp(-tau)
    one, two, none = p * (1.0 - p), p * p, (1.0 - p) ** 2
    total = [0.0, 0.0, 0.0, 0.0]
    rest_n = n - 1
    for a in range(rest_n + 1):
        for b in range(rest_n + 1 - a):
            for k in range(rest_n + 1 - a - b):
                rest = rest_n - a - b - k
                weight = (math.comb(rest_n, a) * math.comb(rest_n - a, b)
                          * math.comb(rest_n - a - b, k)
                          * one ** (a + b) * two ** k * none ** rest)
                big_a = nu * (1.0 + gamma_e) ** -(a + k)
                big_b = nu * (1.0 + gamma_e) ** -(b + k)
                big_c = nu * nu * (1.0 + gamma_e) ** -(a + b) * (1.0 + 2.0 * gamma_e) ** -k
                safe1, safe2 = (1.0 - big_a) ** m, (1.0 - big_b) ** m
                safe = (1.0 - big_a - big_b + big_c) ** m
                for j, value in enumerate((1.0 - safe1, 1.0 - safe2, 1.0 - safe,
                                           1.0 - safe1 - safe2 + safe)):
                    total[j] += weight * value
    return total


EXACT_CASES = [  # (n, m, tau, gamma_e, trials)
    (11, 1, 1.0, 0.5, 100_000),   # where C = A B would move s_both by about 10 sigma
    (21, 8, 0.3, 0.5, 40_000),
    (2, 3, 1.0, 2.0, 40_000),
    (40, 8, 0.1, 1.0, 20_000),
]


@pytest.mark.parametrize("noise", ["exact", "interference-limited"])
@pytest.mark.parametrize("n, m, tau, gamma_e, trials", EXACT_CASES)
def test_shared_legs_secrecy_matches_exact(n, m, tau, gamma_e, trials, noise):
    config = ScenarioConfig(n=n, m=m, gamma_r=1.0, gamma_e=gamma_e, noise_mode=noise)
    nu = math.exp(-gamma_e * config.n0 / 2.0 / config.es) if noise == "exact" else 1.0
    est = estimate_outage(config, ProtocolChoice(kind="random-uniform", tau_policy="manual",
                                                 tau=tau), trials, 31 + n)
    wrong = []
    for key, p in zip(("s_hop1", "s_hop2", "s_e2e", "s_both"),
                      exact_shared_secrecy(n, m, tau, gamma_e, nu)):
        z = (est.counts[key] / trials - p) / math.sqrt(p * (1.0 - p) / trials)
        if abs(z) > Z:
            wrong.append((key, est.counts[key] / trials, p, z))
    assert wrong == []
