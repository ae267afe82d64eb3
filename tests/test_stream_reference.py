"""Stream layout 8 against the kernel-independent reference, `tests/reference.py`.

The reference decodes each configuration's trials from word 0 of its own
PCG64DXSM, per-relay rows or count rows by its own switch, and runs the
protocol and the first-hit law over them. The
kernel's counts (`_run_trials`), first hits (`_first_interceptors`) and
per-trial records (relay or None, K1, K2, k with shared legs, SINRs, H1, H2) must be
the reference's, bit for bit, whatever the block size, trial-range split or
worker count. The four-worker runs share one process pool.
"""

import ast
import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from relaysec import ProtocolChoice, ScenarioConfig, estimate_outage, merge_estimates
from relaysec import channel, montecarlo
from relaysec.montecarlo import _blocks, _first_interceptors, _map_ranges, _run_trials
from relaysec.protocols import COUNT_KEYS

from . import reference

SEED, TRIALS, CUT = 424242, 2000, 777
WINDOW = range(CUT - 40, CUT + 40)  # trials run again in blocks of one
# n = 101 draws count rows at tau = 0 and 0.1, per-relay rows at tau = 1
GRID = list(itertools.product((1, 2, 7, 11, 40, 101), (0, 1, 8),
                              ("optimal-maxmin", "random-uniform"), ("shared", "independent"),
                              ("exact", "interference-limited"), (0.0, 0.1, 1.0)))


@functools.lru_cache(maxsize=36)  # an n's (rule, legs, noise, tau) of GRID: m is read later
def transmissions(n, kind, legs, noise, tau):
    """The reference's eavesdropper uniforms and transmissions of trials [0, TRIALS) of SEED."""
    config = ScenarioConfig(n=n, m=0, gamma_r=0.5, gamma_e=1.0, noise_mode=noise)
    maxmin, independent = kind == "optimal-maxmin", legs == "independent"
    if reference.count_cap(n, tau) is not None:
        hops, eve = reference.count_hops(SEED, TRIALS, n, tau, maxmin, independent, config)
        return eve, hops
    gains, eve = reference.decode(SEED, TRIALS, n, maxmin, independent)
    return eve, reference.two_hop(*gains, tau, config)


def reference_outcomes(config, kind, legs, tau):
    """The reference's (TRIALS, len(COUNT_KEYS)) per-trial contributions to every count,
    and its per-trial record: relay, (K1, K2), k (None with independent legs), SINRs
    and (H1, H2), each first hit m + 1 if none of m intercepts."""
    return outcomes(*transmissions(config.n, kind, legs, config.noise_mode, tau), config,
                    legs == "shared")


def outcomes(eve, hops, config, shared):
    """`reference_outcomes` of given transmissions."""
    m = config.m
    jammers, both = hops.jammers, hops.both
    h1, h2 = reference.first_hits(eve,
                                  *reference.intercept_law(jammers, both, shared, config), m)
    t1, t2 = (~(hops.sinr > config.gamma_r)).T
    s1, s2 = h1 <= m, h2 <= m
    k1 = jammers[:, 0]
    rows = np.stack((t1, t2, t1 | t2, t1 & t2, s1, s2, s1 | s2, s1 & s2, s1 & (h1 == 1),
                     k1, k1 * k1), axis=1).astype(np.int64)
    return rows, (hops.selected, jammers, both if shared else None, hops.sinr,
                  np.stack((h1, h2), axis=1))


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
        ref, record = reference_outcomes(config, kind, legs, tau)
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
        want_hits = np.minimum(*record[-1].T).tolist()
        kernel = [None if parts[0] is None else np.concatenate(parts)
                  for parts in zip(*_blocks(*run, 0, TRIALS, SEED, legs))]
        same = all(a is b is None or np.array_equal(a, b) for a, b in zip(kernel, record))
        if not same or got != (want, want, want, window, want_hits, want_hits,
                               want_hits[WINDOW.start:WINDOW.stop]):
            wrong.append(key)
    assert wrong == []


@pytest.mark.parametrize("kind", ["optimal-maxmin", "random-uniform"])
@pytest.mark.parametrize("legs", ["shared", "independent"])
def test_counts_past_cap_match_reference(monkeypatch, small_cap, kind, legs):
    # with no margin over the mean, cap = ceil((n - 1) p) = 10 at n = 101 and
    # tau = 0.1, and about 40% of the counts pass it: K2 from the table, K2
    # from the r_d mask, K1 - k, and the overflow key's jammer words, read
    # whole, in blocks of one and by four workers
    n, tau, trials = 101, 0.1, 300
    assert channel.count_cap(n, tau) == 10
    config = ScenarioConfig(n=n, m=8, gamma_r=0.5, gamma_e=1.0)
    protocol = ProtocolChoice(kind=kind, tau_policy="manual", tau=tau)
    hops, eve = reference.count_hops(SEED, trials, n, tau, kind == "optimal-maxmin",
                                     legs == "independent", config, cap=10)
    assert np.count_nonzero(hops.jammers > 10) > trials // 2
    ref, record = outcomes(eve, hops, config, legs == "shared")
    want = tuple(int(v) for v in ref.sum(axis=0))
    run = (config, kind, tau)
    kernel = [None if parts[0] is None else np.concatenate(parts)
              for parts in zip(*_blocks(*run, 0, trials, SEED, legs))]
    assert all(a is b is None or np.array_equal(a, b) for a, b in zip(kernel, record))
    assert as_tuple(_run_trials(*run, 0, trials, SEED, legs)) == want
    assert as_tuple(estimate_outage(config, protocol, trials, SEED, legs=legs,
                                    workers=4).counts) == want
    monkeypatch.setattr(montecarlo, "_BLOCK_WORDS", 1)
    assert as_tuple(_run_trials(*run, 0, trials, SEED, legs)) == want


def test_switch_matches_reference():
    # the row format and cap of every configuration, either side of each line:
    # n >= 41, cap <= (n - 1) / 2 and cap <= 512 (at n = 2001, tau = 0.204 cap is 513)
    grid = list(itertools.product((11, 40, 41, 101, 1001, 2001, 10 ** 4, 10 ** 6),
                                  (0.0, 1e-300, 0.01, 0.0616, 0.1, 0.203, 0.204, 0.466, 1.0,
                                   40.0)))
    assert [channel.count_cap(n, tau) for n, tau in grid] == \
        [reference.count_cap(n, tau) for n, tau in grid]
    assert (channel.count_cap(2001, 0.203), channel.count_cap(2001, 0.204)) == (511, None)
    assert channel.count_cap(10 ** 4, 0.0191) == 304


def test_reference_imports_nothing_of_the_kernel():
    # the reference must not come to call the code it checks: no import of
    # relaysec, and no relative import, which could reach it through a test module
    nodes = list(ast.walk(ast.parse((Path(__file__).parent / "reference.py").read_text())))
    names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    names += ["." * node.level + (node.module or "") for node in nodes
              if isinstance(node, ast.ImportFrom)]
    assert [name for name in names if name.split(".")[0] in ("", "relaysec")] == []
