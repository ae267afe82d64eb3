"""Stream layout 4 against a slow per-trial reference.

The reference uses nothing of the library's kernel. For each configuration
it seeds its own PCG64DXSM, reads the trials' W words in order from word 0,
decodes them by the documented layout, runs the protocol on plain 1-D
arrays and decides every eavesdropper's two intercepts by the four-cell
rule in scalar Python. `_run_trials` must reproduce its counts bit for bit,
whatever the block size, trial-range split or worker count. The four-worker
runs share one process pool.
"""

import itertools
import math

import numpy as np
import pytest

from relaysec import ProtocolChoice, ScenarioConfig, estimate_outage, merge_estimates
from relaysec import montecarlo
from relaysec.montecarlo import _run_trials
from relaysec.protocols import COUNT_KEYS

SEED, TRIALS, CUT = 424242, 2000, 777
WINDOW = range(CUT - 40, CUT + 40)  # trials run again in blocks of one
GRID = list(itertools.product((1, 2, 7, 11, 40), (0, 1, 8),
                              ("optimal-maxmin", "random-uniform"), ("shared", "independent"),
                              ("exact", "interference-limited"), (0.0, 0.1, 1.0)))
M64 = (1 << 64) - 1


def trial_words(n, m, maxmin, independent):
    """W by the README table: the words a trial reads."""
    return (3 * n - 1 if maxmin else 2 * n + 1) + (n if independent else 0) + m


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


def intercepts(eve, k1, k2, k, shared, config):
    """Each eavesdropper's (hop 1, hop 2) intercepts by the four-cell rule, as two lists."""
    ge = config.gamma_e
    nu = math.exp(-ge * config.noise_term / config.es)
    q, r = 1.0 / (1.0 + ge), 1.0 / (1.0 + 2.0 * ge)
    a, b = nu * q ** k1, nu * q ** k2
    c = nu * nu * q ** (k1 + k2 - 2 * k) * r ** k if shared else a * b
    hop1 = [u < a for u in eve]
    hop2 = [u < c or a <= u < a + b - c for u in eve]
    return hop1, hop2


def reference_outcomes(config, kind, legs, tau, seed, trials):
    """(trials, len(COUNT_KEYS)) per-trial contributions to every count."""
    n, m = config.n, config.m
    maxmin, independent = kind == "optimal-maxmin", legs == "independent"
    width = trial_words(n, m, maxmin, independent)
    bits = np.random.PCG64DXSM(np.random.SeedSequence([seed & M64, 4]))
    out = np.zeros((trials, len(COUNT_KEYS)), dtype=np.int64)
    for t in range(trials):
        u = (bits.random_raw(width) >> np.uint64(11)) * 2.0 ** -53
        g = -np.log1p(-u)
        pos = 0

        def take(k):
            nonlocal pos
            pos += k
            return g[pos - k:pos]

        if maxmin:
            s_r, r_d = take(n), take(n)
            sel = int(np.argmax(np.minimum(s_r, r_d)))
            signal1 = s_r[sel]
            toward = take(n - 1)
        else:
            sel = int(u[0] * n)
            take(1)
            signal1 = take(1)[0]
            toward = take(n - 1)
            r_d = take(n)
        r_d2 = take(n) if independent else r_d
        eve = u[pos:pos + m].tolist()
        to_sel = with_relay(toward, sel, 0.0)
        jam1 = with_relay(toward < tau, sel, False)  # the relay itself never jams
        jam2 = r_d2 < tau
        jam2[sel] = False
        t1 = not sinr(signal1, interference(to_sel, jam1), config) > config.gamma_r
        t2 = not sinr(r_d2[sel], interference(r_d2, jam2), config) > config.gamma_r
        k1, k2 = int(jam1.sum()), int(jam2.sum())
        hits1, hits2 = intercepts(eve, k1, k2, int((jam1 & jam2).sum()), not independent,
                                  config)
        s1, s2 = any(hits1), any(hits2)
        out[t] = (t1, t2, t1 or t2, t1 and t2, s1, s2, s1 or s2, s1 and s2,
                  sum(hits1), k1, k1 * k1)
    return out


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
        ref = reference_outcomes(config, kind, legs, tau, SEED, TRIALS)
        want = tuple(int(v) for v in ref.sum(axis=0))
        whole = as_tuple(_run_trials(config, protocol, 0, TRIALS, SEED, legs))
        split = merge_estimates([estimate_outage(config, protocol, b - a, SEED, legs=legs,
                                                 trial_start=a)
                                 for a, b in ((0, CUT), (CUT, TRIALS))])
        pooled = montecarlo._estimate(pool, config, protocol, TRIALS, SEED, legs, workers=4)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_BLOCK_WORDS", 1)
            ones = as_tuple(_run_trials(config, protocol, WINDOW.start, WINDOW.stop, SEED, legs))
        window = tuple(int(v) for v in ref[WINDOW.start:WINDOW.stop].sum(axis=0))
        got = (whole, as_tuple(split.counts), as_tuple(pooled.counts), ones)
        if got != (want, want, want, window):
            wrong.append(key)
    assert wrong == []
