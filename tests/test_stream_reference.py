"""Stream layout 6 against the kernel-independent reference, `tests/reference.py`.

The reference decodes each configuration's trials from word 0 of its own
PCG64DXSM and runs the protocol and the first-hit law over them. The
kernel's counts (`_run_trials`), first hits (`_first_interceptors`) and
per-trial records (relay, K1, K2, k with shared legs, SINRs, H1, H2) must be
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
from relaysec import montecarlo
from relaysec.montecarlo import _blocks, _first_interceptors, _map_ranges, _run_trials
from relaysec.protocols import COUNT_KEYS

from . import reference

SEED, TRIALS, CUT = 424242, 2000, 777
WINDOW = range(CUT - 40, CUT + 40)  # trials run again in blocks of one
GRID = list(itertools.product((1, 2, 7, 11, 40), (0, 1, 8),
                              ("optimal-maxmin", "random-uniform"), ("shared", "independent"),
                              ("exact", "interference-limited"), (0.0, 0.1, 1.0)))


@functools.lru_cache(maxsize=24)  # an n's (rule, legs, noise, tau) of GRID: m is read later
def transmissions(n, kind, legs, noise, tau):
    """The reference's eavesdropper uniforms and transmissions of trials [0, TRIALS) of SEED."""
    config = ScenarioConfig(n=n, m=0, gamma_r=0.5, gamma_e=1.0, noise_mode=noise)
    gains, eve = reference.decode(SEED, TRIALS, n, kind == "optimal-maxmin", legs == "independent")
    return eve, reference.two_hop(*gains, tau, config)


def reference_outcomes(config, kind, legs, tau):
    """The reference's (TRIALS, len(COUNT_KEYS)) per-trial contributions to every count,
    and its per-trial record: relay, (K1, K2), k (None with independent legs), SINRs
    and (H1, H2), each first hit m + 1 if none of m intercepts."""
    m, shared = config.m, legs == "shared"
    eve, hops = transmissions(config.n, kind, legs, config.noise_mode, tau)
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


def test_reference_imports_nothing_of_the_kernel():
    # the reference must not come to call the code it checks: no import of
    # relaysec, and no relative import, which could reach it through a test module
    nodes = list(ast.walk(ast.parse((Path(__file__).parent / "reference.py").read_text())))
    names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    names += ["." * node.level + (node.module or "") for node in nodes
              if isinstance(node, ast.ImportFrom)]
    assert [name for name in names if name.split(".")[0] in ("", "relaysec")] == []
