"""Stream layout 2 against a slow per-trial reference.

The reference uses nothing of the library's kernel. For each trial t it
positions its own Philox at counter t W / 4, draws the trial's W words,
decodes them by the documented layout and runs the protocol on plain 1-D
arrays. `_run_trials` must reproduce its counts bit for bit, whatever the
block size, trial-range split or worker count.
"""

import itertools

import numpy as np
import pytest

from relaysec import ProtocolChoice, ScenarioConfig, estimate_outage, merge_estimates
from relaysec import montecarlo
from relaysec.montecarlo import _COUNT_KEYS, _run_trials

SEED, TRIALS, CUT = 424242, 2000, 777
WINDOW = range(CUT - 40, CUT + 40)  # trials run again in blocks of one
GRID = list(itertools.product((1, 2, 7, 11, 40), (0, 1, 8),
                              ("optimal-maxmin", "random-uniform"), ("shared", "independent"),
                              ("exact", "interference-limited"), (0.0, 0.1, 1.0)))
M64 = (1 << 64) - 1


def trial_words(n, m, maxmin, independent):
    """W by the README table: words read, rounded up to a multiple of 4."""
    read = (3 * n - 1 if maxmin else 2 * n + 1) + m + n * m + (n + n * m if independent else 0)
    return -(-read // 4) * 4


def interference(gains, jam):
    """Sum over every relay of its gain toward the receiver(s), 0 where it does not jam."""
    return np.where(jam if gains.ndim == 1 else jam[:, None], gains, 0.0).sum(axis=0)


def sinr(signal, interference_sum, config):
    """Es g / (Es I + N0/2), and +inf where that denominator is 0."""
    denom = config.es * interference_sum + config.noise_term
    return np.where(denom > 0.0, config.es * signal / np.where(denom > 0.0, denom, 1.0), np.inf)


def with_relay(others, sel, value):
    """The n - 1 entries of the other relays with the selected relay's `value` put back."""
    out = np.empty(len(others) + 1, dtype=others.dtype)
    out[:sel], out[sel], out[sel + 1:] = others[:sel], value, others[sel:]
    return out


def reference_outcomes(config, kind, legs, tau, seed, trials):
    """(trials, len(_COUNT_KEYS)) per-trial contributions to every count."""
    n, m = config.n, config.m
    maxmin, independent = kind == "optimal-maxmin", legs == "independent"
    width = trial_words(n, m, maxmin, independent)
    key = (seed & M64) | (2 << 64)
    out = np.zeros((trials, len(_COUNT_KEYS)), dtype=np.int64)
    for t in range(trials):
        raw = np.random.Philox(key=key, counter=t * width // 4).random_raw(width)
        u = (raw >> np.uint64(11)) * 2.0 ** -53
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
        s_e, r_e = take(m), take(n * m).reshape(n, m)
        r_d2, r_e2 = (take(n), take(n * m).reshape(n, m)) if independent else (r_d, r_e)
        to_sel = with_relay(toward, sel, 0.0)
        jam1 = with_relay(toward < tau, sel, False)  # the relay itself never jams
        jam2 = r_d2 < tau
        jam2[sel] = False
        t1 = not sinr(signal1, interference(to_sel, jam1), config) > config.gamma_r
        t2 = not sinr(r_d2[sel], interference(r_d2, jam2), config) > config.gamma_r
        hits1 = sinr(s_e, interference(r_e, jam1), config) >= config.gamma_e
        hits2 = sinr(r_e2[sel], interference(r_e2, jam2), config) >= config.gamma_e
        s1, s2 = bool(hits1.any()), bool(hits2.any())
        k1 = int(jam1.sum())
        out[t] = (t1, t2, t1 or t2, t1 and t2, s1, s2, s1 or s2, s1 and s2,
                  int(hits1.sum()), k1, k1 * k1)
    return out


def as_tuple(counts):
    return tuple(counts[k] for k in _COUNT_KEYS)


@pytest.mark.parametrize("n", sorted({key[0] for key in GRID}))
def test_kernel_matches_per_trial_reference(n, monkeypatch):
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
        pooled = estimate_outage(config, protocol, TRIALS, SEED, legs=legs, workers=4)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_BLOCK_WORDS", 1)
            ones = as_tuple(_run_trials(config, protocol, WINDOW.start, WINDOW.stop, SEED, legs))
        window = tuple(int(v) for v in ref[WINDOW.start:WINDOW.stop].sum(axis=0))
        got = (whole, as_tuple(split.counts), as_tuple(pooled.counts), ones)
        if got != (want, want, want, window):
            wrong.append(key)
    assert wrong == []
