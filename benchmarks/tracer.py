"""Span tracer that wraps relaysec's functions from outside the package.

The tracer replaces module attributes (for example
`relaysec.montecarlo.sample_realization` and `relaysec.protocols.sinr`) with
timing wrappers, so no file of the library needs instrumenting. Every
relaysec namespace that holds the original object gets the same wrapper,
which is what catches calls made through `from .channel import sinr`.

A span's self time is its duration minus the time of the spans it caused.
Spans are aggregated in memory per name (calls and self time).

Targets can disappear as the library changes. A named target that cannot
be resolved is reported as None, never as an error, so functions such as
`execute_two_hop` can be deleted without editing the benchmark.

Pool workers: under the "fork" start method a worker inherits the patched
modules, so its spans are recorded too. Each worker appends its aggregates
to its own file in the spool directory whenever its outermost span ends,
and the parent merges those files. Under "spawn" or "forkserver" workers
import the library afresh and record nothing; `start_method` says which
one the numbers relied on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

PACKAGE = "relaysec"
LAYERS = ("channel", "protocols", "bounds", "montecarlo", "serialize", "cli")

# Span name -> "module:attribute path". These are the spans the per-layer
# metrics name explicitly; every other public function of a layer is traced
# under "<layer>.<function>" and only counts toward its layer's totals.
NAMED_TARGETS = {
    "channel.trial_rng": "channel:trial_rng",
    "channel.sample_realization": "channel:sample_realization",
    "channel.gains_to_relay": "channel:ChannelRealization.gains_to_relay",
    "channel.sinr": "channel:sinr",
    "channel.sinr_many": "channel:sinr_many",
    "protocols.jammer_set": "protocols:jammer_set",
    "protocols.execute_two_hop": "protocols:execute_two_hop",
    "protocols.classify_outage": "protocols:classify_outage",
    "protocols.resolve_tau": "protocols:resolve_tau",
    "protocols.select_relay_optimal": "protocols:select_relay_optimal",
    "montecarlo.run_trials": "montecarlo:_run_trials",
    "montecarlo.estimate_outage": "montecarlo:estimate_outage",
    "montecarlo.tolerance_search": "montecarlo:tolerance_search",
    "montecarlo.load_balance": "montecarlo:load_balance",
    "montecarlo.pool": "montecarlo:ProcessPoolExecutor",
}

# Self time of estimate_outage calls that fan out to a pool is the parent's
# time spent starting, feeding and waiting on the workers.
POOLED = "montecarlo.estimate_outage.pooled"


def _resolve(spec: str):
    """(owner, attribute, object) for "module:a.b", or None if any part is missing."""
    mod_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def _public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__
            and not isinstance(obj, type)}


def _workers_of(fn, args, kwargs) -> int:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError):
        return 1
    return int(bound.arguments.get("workers", 1) or 1)


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_gains(counters, parent, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    n, m = config.n, config.m
    _add(counters, "channel.gains_drawn", 2 * n + n * (n - 1) // 2 + 1 + m + n * m)


def _count_probe(counters, parent, args, kwargs, result):
    if parent == "montecarlo.tolerance_search":
        _add(counters, "montecarlo.probes", 1)


def _count_bytes(counters, parent, args, kwargs, result):
    if isinstance(result, str) and not parent.startswith("serialize."):
        _add(counters, "serialize.bytes_out", len(result.encode()))


def _pooled_name(fn):
    def name(args, kwargs):
        return POOLED if _workers_of(fn, args, kwargs) > 1 else "montecarlo.estimate_outage"
    return name


def _hooks(span: str, fn):
    """(name_of, count) for a span: a renamer by arguments and a counter, or None."""
    if span == "channel.sample_realization":
        return None, _count_gains
    if span == "montecarlo.estimate_outage":
        return _pooled_name(fn), _count_probe
    if span.startswith("serialize."):
        return None, _count_bytes
    return None, None


class _State:
    """Per-process aggregates; a forked worker starts a fresh one."""

    def __init__(self, worker: bool):
        self.worker = worker
        self.stack: list[list] = []  # [span name, time of child spans]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counters: dict[str, float] = {}
        self.root_s = 0.0

    def as_record(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "root_s": self.root_s}


class Tracer:
    """Install with `install()`, run the work, then `uninstall()` and `collect()`."""

    def __init__(self, spool_dir: Path, named_targets: dict = NAMED_TARGETS):
        self.spool_dir = Path(spool_dir)
        self.named_targets = dict(named_targets)
        self.missing: set[str] = set()
        self.missing_layers: set[str] = set()
        self.start_method = multiprocessing.get_start_method(allow_none=False)
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self._state = _State(worker=False)
        self._active = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self._active:
            self._state = _State(worker=True)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        spans: dict[int, str] = {}  # id(module-level original) -> span name
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.missing_layers.add(layer)
                continue
            for fname, fn in _public_functions(module).items():
                spans[id(fn)] = f"{layer}.{fname}"
        for span, spec in self.named_targets.items():
            found = _resolve(spec)
            if found is None:
                self.missing.add(span)
            elif isinstance(found[0], type):  # a method: patch it on its class
                owner, attr, obj = found
                self._patches.append((owner, attr, obj))
                setattr(owner, attr, self._wrap(obj, span))
            else:
                spans[id(found[2])] = span
        # a module-level object gets one wrapper, installed in every relaysec
        # namespace that holds it
        wrappers: dict[int, object] = {}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(module).items()):
                span = spans.get(id(val))
                if span is None:
                    continue
                if id(val) not in wrappers:
                    wrappers[id(val)] = self._wrap(val, span)
                self._patches.append((module, attr, val))
                setattr(module, attr, wrappers[id(val)])
        self._active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._active = False

    def _wrap(self, fn, span: str):
        tracer = self
        perf = time.perf_counter
        name_of, count = _hooks(span, fn)

        def wrapper(*args, **kwargs):
            st = tracer._state
            stack = st.stack
            name = span if name_of is None else name_of(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    st.root_s += dur
            if count is not None:
                count(st.counters, stack[-1][0] if stack else "", args, kwargs, result)
            if st.worker and not stack:
                tracer._flush(st)
            return result

        if isinstance(fn, type):
            wrapper.__wrapped__ = fn
            return wrapper
        # keep __module__/__qualname__ so pickling by reference (pool
        # submissions) finds the patched attribute
        return functools.wraps(fn)(wrapper)

    def _flush(self, st: _State) -> None:
        with open(self.spool_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(st.as_record()) + "\n")
        st.stats, st.counters, st.root_s = {}, {}, 0.0

    # -- results -------------------------------------------------------

    def collect(self) -> dict:
        """Merged aggregates: parent stats plus every worker file in the spool."""
        stats = {k: list(v) for k, v in self._state.stats.items()}
        counters = dict(self._state.counters)
        worker_s = 0.0
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                for k, (calls, self_s) in rec["stats"].items():
                    acc = stats.setdefault(k, [0, 0.0])
                    acc[0] += calls
                    acc[1] += self_s
                for k, v in rec["counters"].items():
                    counters[k] = counters.get(k, 0) + v
                worker_s += rec["root_s"]
        return {"stats": stats, "counters": counters, "parent_root_s": self._state.root_s,
                "worker_busy_s": worker_s}

    def layer_metrics(self, wall_s: float, passes: int) -> dict:
        """Per-layer metrics per pass, None where the layer or target is gone."""
        agg = self.collect()
        stats, counters = agg["stats"], agg["counters"]
        out: dict[str, float | None] = {}

        def span(name):
            if name in self.missing:
                return None
            return stats.get(name, [0, 0.0])

        for name in self.named_targets:
            rec = span(name)
            out[f"{name}.self_s"] = None if rec is None else rec[1] / passes
            out[f"{name}.calls"] = None if rec is None else rec[0] / passes
        for layer in LAYERS:
            if layer in self.missing_layers:
                out[f"{layer}.self_s"] = out[f"{layer}.calls"] = None
                continue
            recs = [v for k, v in stats.items() if k.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(r[1] for r in recs) / passes
            out[f"{layer}.calls"] = sum(r[0] for r in recs) / passes

        def counter(key, needs):
            if any(n in self.missing for n in needs):
                return None
            return counters.get(key, 0) / passes

        out["channel.gains_drawn"] = counter("channel.gains_drawn", ["channel.sample_realization"])
        out["montecarlo.probes"] = counter("montecarlo.probes",
                                           ["montecarlo.estimate_outage", "montecarlo.tolerance_search"])
        out["serialize.bytes_out"] = None if "serialize" in self.missing_layers \
            else counters.get("serialize.bytes_out", 0) / passes
        pool = span("montecarlo.pool")
        out["montecarlo.pools_created"] = None if pool is None else pool[0] / passes
        pooled = None if "montecarlo.estimate_outage" in self.missing \
            else stats.get(POOLED, [0, 0.0])
        out["montecarlo.pool_wait_s"] = None if pooled is None else pooled[1] / passes
        out["montecarlo.worker_busy_s"] = agg["worker_busy_s"] / passes
        out["trace.coverage"] = agg["parent_root_s"] / wall_s if wall_s > 0 else None
        return out
