"""Stream layout 6 against a slow per-trial reference.

The reference uses nothing of the library's kernel. For each configuration
it seeds its own PCG64DXSM, reads the trials' W words in order from word 0,
decodes them by the documented layout, runs the protocol on plain 1-D
arrays and finds the first eavesdropper to intercept each hop from the
trial's three eavesdropper uniforms in scalar Python. `_run_trials` must
reproduce its counts, and `_first_interceptors` each trial's first hit, bit
for bit, whatever the block size, trial-range split or worker count. The
four-worker runs share one process pool.
"""

import itertools
import math

import numpy as np
import pytest

from relaysec import ProtocolChoice, ScenarioConfig, estimate_outage, merge_estimates
from relaysec import montecarlo
from relaysec.montecarlo import _first_interceptors, _map_ranges, _run_trials
from relaysec.protocols import COUNT_KEYS

SEED, TRIALS, CUT = 424242, 2000, 777
WINDOW = range(CUT - 40, CUT + 40)  # trials run again in blocks of one
GRID = list(itertools.product((1, 2, 7, 11, 40), (0, 1, 8),
                              ("optimal-maxmin", "random-uniform"), ("shared", "independent"),
                              ("exact", "interference-limited"), (0.0, 0.1, 1.0)))
M64 = (1 << 64) - 1
LAYOUT = 6  # the stream layout: the second entropy word of every seed sequence


def trial_words(n, maxmin, independent):
    """W by the README table: the words a trial reads."""
    return (3 * n - 1 if maxmin else 2 * n + 1) + (n if maxmin and independent else 0) + 3


def interference(gains, jam):
    """The jammers' gains toward the receiver, added one at a time in relay order."""
    total = 0.0
    for g in gains[jam]:
        total += g
    return total


def sinr(signal, interference_sum, config):
    """g / (I + N0/2 / Es), and +inf where that denominator is 0 or the quotient overflows."""
    denom = interference_sum + config.noise_term / config.es
    with np.errstate(over="ignore"):
        return signal / denom if denom > 0.0 else math.inf


def with_relay(others, sel, value):
    """The n - 1 entries of the other relays with the selected relay's `value` put back."""
    out = np.empty(len(others) + 1, dtype=others.dtype)
    out[:sel], out[sel], out[sel + 1:] = others[:sel], value, others[sel:]
    return out


def geometric(u, p):
    """The first success, by inversion of uniform u, of trials that succeed with probability p."""
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return 1.0
    ratio = math.log1p(-u) / math.log1p(-p)
    return math.inf if ratio == math.inf else 1.0 + math.floor(ratio)


def law(k1, k2, k, shared, config):
    """A, B, C: one eavesdropper intercepts hop 1, hop 2, both, given the jammer counts."""
    ge = config.gamma_e
    nu = math.exp(-ge * config.noise_term / config.es)
    q, r = 1.0 / (1.0 + ge), 1.0 / (1.0 + 2.0 * ge)
    a, b = nu * q ** k1, nu * q ** k2
    return a, b, nu * nu * q ** (k1 + k2 - 2 * k) * r ** k if shared else a * b


def first_hits(eve, a, b, c, m):
    """(H1, H2): the first eavesdropper to intercept hop 1 and hop 2, m + 1 if none of m does.

    Each eavesdropper intercepts both hops with probability C, hop 1 only
    with A - C and hop 2 only with B - C, so the first to intercept either
    is Geometric(A + B - C) (u0) and its cell follows from u2 (A + B - C);
    the other hop's first interceptor after a one-hop intercept is one more
    geometric, from u1.
    """
    c = min(c, a, b)
    p = min(a + b - c, 1.0)
    u0, u1, u2 = eve
    h = geometric(u0, p)
    if u2 * p < c:
        h1 = h2 = h
    elif u2 * p < a:
        h1, h2 = h, h + geometric(u1, b)
    else:
        h1, h2 = h + geometric(u1, a), h
    return min(h1, m + 1.0), min(h2, m + 1.0)


def reference_outcomes(config, kind, legs, tau, seed, trials):
    """(trials, len(COUNT_KEYS)) per-trial contributions to every count, and the
    (trials,) first eavesdropper to intercept either hop, m + 1 if none of m does."""
    n, m = config.n, config.m
    maxmin, independent = kind == "optimal-maxmin", legs == "independent"
    width = trial_words(n, maxmin, independent)
    bits = np.random.PCG64DXSM(np.random.SeedSequence([seed & M64, LAYOUT]))
    out = np.zeros((trials, len(COUNT_KEYS)), dtype=np.int64)
    first = np.zeros(trials, dtype=np.int64)
    for t in range(trials):
        u = (bits.random_raw(width) >> np.uint64(11)) * 2.0 ** -53
        g = -np.log1p(-u)
        pos = 0

        def take(k):
            nonlocal pos
            pos += k
            return g[pos - k:pos]

        if maxmin:
            s_r = take(n)
            r_d = take(n) if independent else None  # shared legs: hop 2's r_d below
        else:
            sel = int(u[0] * n)
            signal1 = take(2)[1]
        toward = take(n - 1)
        r_d2 = take(n)  # hop 2's r_d; random selection reads it in both leg modes
        if maxmin:
            sel = int(np.argmax(np.minimum(s_r, r_d2 if r_d is None else r_d)))
            signal1 = s_r[sel]
        eve = u[pos:pos + 3].tolist()
        to_sel = with_relay(toward, sel, 0.0)
        jam1 = with_relay(toward < tau, sel, False)  # the relay itself never jams
        jam2 = r_d2 < tau
        jam2[sel] = False
        t1 = not sinr(signal1, interference(to_sel, jam1), config) > config.gamma_r
        t2 = not sinr(r_d2[sel], interference(r_d2, jam2), config) > config.gamma_r
        k1, k2 = int(jam1.sum()), int(jam2.sum())
        h1, h2 = first_hits(eve, *law(k1, k2, int((jam1 & jam2).sum()), not independent,
                                      config), m)
        s1, s2 = h1 <= m, h2 <= m
        out[t] = (t1, t2, t1 or t2, t1 and t2, s1, s2, s1 or s2, s1 and s2,
                  s1 and h1 == 1, k1, k1 * k1)
        first[t] = min(h1, h2)
    return out, first


def as_tuple(counts):
    return tuple(counts[k] for k in COUNT_KEYS)


@pytest.fixture(scope="module")
def pool():
    with montecarlo._pool(4, TRIALS) as shared:
        yield shared


@pytest.mark.parametrize("n", sorted({key[0] for key in GRID}))
def test_kernel_matches_per_trial_reference(n, monkeypatch, pool):
    wrong = []
    for key in GRID:
        if key[0] != n:
            continue
        _, m, kind, legs, noise, tau = key
        config = ScenarioConfig(n=n, m=m, gamma_r=0.5, gamma_e=1.0, noise_mode=noise)
        protocol = ProtocolChoice(kind=kind, tau_policy="manual", tau=tau)
        ref, first = reference_outcomes(config, kind, legs, tau, SEED, TRIALS)
        want = tuple(int(v) for v in ref.sum(axis=0))
        run = (config, protocol.kind, protocol.tau)
        whole = as_tuple(_run_trials(*run, 0, TRIALS, SEED, legs))
        hits = _first_interceptors(*run, 0, TRIALS, SEED, legs).tolist()
        split = merge_estimates([estimate_outage(config, protocol, b - a, SEED, legs=legs,
                                                 trial_start=a)
                                 for a, b in ((0, CUT), (CUT, TRIALS))])
        count_parts, hit_parts = (_map_ranges(pool, job, *run, 0, TRIALS, SEED, legs, workers=4)
                                  for job in (_run_trials, _first_interceptors))
        pooled = tuple(sum(part[key] for part in count_parts) for key in COUNT_KEYS)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_BLOCK_WORDS", 1)
            ones = as_tuple(_run_trials(*run, WINDOW.start, WINDOW.stop, SEED, legs))
            ones_hits = _first_interceptors(*run, WINDOW.start, WINDOW.stop, SEED, legs).tolist()
        window = tuple(int(v) for v in ref[WINDOW.start:WINDOW.stop].sum(axis=0))
        got = (whole, as_tuple(split.counts), pooled, ones,
               hits, np.concatenate(hit_parts).tolist(), ones_hits)
        want_hits = first.tolist()
        if got != (want, want, want, window, want_hits, want_hits,
                   want_hits[WINDOW.start:WINDOW.stop]):
            wrong.append(key)
    assert wrong == []
