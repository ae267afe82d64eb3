"""relaysec benchmark: one closed-loop client, one workload per run.

    python3 benchmarks/run.py --workload mc-small --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. The run
repeats passes of the workload (see workloads.py) for about --seconds and
prints, as its last line, one JSON object with "correct", "attempted",
"failed" and "metrics". The line before it stamps the run with its resolved
inputs and environment.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with no
instrumentation: the wall time (run_s), trials per second and CPU time of a
pass whose every operation runs at its fastest in the run (see Fastest),
plus setup_s, the median of several fresh-interpreter set-ups (import numpy
and relaysec, build the inputs).

--trace 1 reports the per-layer metrics. It runs untraced passes for half of
--seconds, then the same number of passes with the tracer installed, and
reports each layer's self time and calls per traced pass, the tracer's
coverage of the traced wall time and its overhead against the untraced half.
Figures the tracer computes that BENCHMARK.json does not declare, such as
the pool metrics of the unlisted tolerance workload, go in the stamp.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
MIN_PASSES = 3


def load_program():
    """Import numpy and relaysec from ./src, refusing any other copy of relaysec."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import relaysec
    except ImportError as exc:
        sys.exit(f"cannot import the program from {ROOT / 'src'}: {exc}")
    if Path(relaysec.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"relaysec was imported from {relaysec.__file__}, not from {ROOT / 'src'}")
    return numpy


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss() -> dict:
    """Peak RSS in MB of this process and of its largest reaped child (a pool worker).

    A forked worker's peak counts the pages it still shares with this
    process, so the two figures overlap.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self": own / 1024.0, "largest_child": kids / 1024.0}  # ru_maxrss is in KiB


class Fastest:
    """Fastest wall and CPU time seen for each operation of a pass, by key.

    On a shared machine a slow operation measures the other tenants as much
    as the program; the fastest of many repetitions of a short operation is
    the steadiest estimate of what it costs. A pass's figure is the sum over
    its operations.
    """

    def __init__(self):
        self.wall: dict = {}
        self.cpu: dict = {}

    @contextlib.contextmanager
    def __call__(self, key):
        c0, t0 = cpu_seconds(), time.perf_counter()
        yield
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.wall[key] = min(wall, self.wall.get(key, wall))
        self.cpu[key] = min(cpu, self.cpu.get(key, cpu))


def run_passes(wl, ledger, fastest: Fastest, first: int, budget_s: float = 0.0,
               count: int | None = None) -> list:
    """Run passes `first`, `first + 1`, ...; return (wall_s, trials) per pass.

    With `count`, run exactly that many. Otherwise run at least MIN_PASSES
    and stop before a pass that would likely end past `budget_s`.
    """
    clock = time.perf_counter
    samples = []
    start = clock()
    while True:
        if count is not None:
            if len(samples) == count:
                break
        elif len(samples) >= MIN_PASSES and clock() - start + samples[-1][0] > budget_s:
            break
        t0 = clock()
        trials = wl.run_pass(first + len(samples), ledger, fastest)
        samples.append((clock() - t0, trials))
    return samples


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, each measured from its own start."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                               workload, "--seed", str(seed), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def end_to_end(wl, samples, fastest: Fastest, rss: dict) -> dict:
    """Per-pass figures, each operation of the pass at its fastest.

    peak_rss_mb is the benchmark process's peak, plus the largest pool
    worker's where workers run in the timed passes (wl.pooled); elsewhere
    the only children are the untimed determinism operation's workers.
    """
    run_s = sum(fastest.wall.values())
    return {"run_s": run_s,
            "trials_per_s": statistics.median(t for _, t in samples) / run_s,
            "time_to_ci_s": wl.time_to_ci(fastest.wall),
            "cpu_s": sum(fastest.cpu.values()),
            "peak_rss_mb": rss["self"] + (rss["largest_child"] if wl.pooled else 0.0)}


def pass_summary(samples) -> dict:
    """Whole-pass wall times, for the stamp."""
    walls = sorted(w for w, _ in samples)
    return {"passes": len(walls), "min_s": walls[0], "median_s": statistics.median(walls),
            "p90_s": walls[int(0.9 * (len(walls) - 1))]}


def traced(wl, ledger, seconds: float, spool: Path) -> tuple[dict, dict]:
    from tracer import Tracer
    plain_best, traced_best = Fastest(), Fastest()
    plain = run_passes(wl, ledger, plain_best, 0, budget_s=seconds / 2.0)
    tracer = Tracer(spool)
    tracer.install()
    try:
        with_trace = run_passes(wl, ledger, traced_best, len(plain), count=len(plain))
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(sum(w for w, _ in with_trace), len(with_trace))
    metrics["trace.overhead_frac"] = (sum(traced_best.wall.values())
                                      / sum(plain_best.wall.values()) - 1.0)
    info = {"start_method": tracer.start_method, "missing_targets": sorted(tracer.missing),
            "missing_layers": sorted(tracer.missing_layers),
            "untraced": pass_summary(plain), "traced": pass_summary(with_trace)}
    return metrics, info


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    numpy = load_program()
    wl = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print(time.perf_counter() - T_START)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ledger = workloads.Ledger()
    wl.determinism(ledger)
    spool = ROOT / ".bench_build" / f"trace-{os.getpid()}"
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace}
    try:
        if args.trace:
            values, stamp["tracer"] = traced(wl, ledger, args.seconds, spool)
            declared = spec["per_layer"]
            names = {m["name"] for m in declared}
            stamp["tracer"]["undeclared"] = {k: v for k, v in values.items() if k not in names}
        else:
            fastest = Fastest()
            samples = run_passes(wl, ledger, fastest, 0, budget_s=args.seconds)
            stamp["timing"] = pass_summary(samples)
            stamp["peak_rss_mb"] = peak_rss()
            values = end_to_end(wl, samples, fastest, stamp["peak_rss_mb"])
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    wl.finish(ledger)
    if not args.trace:
        values["setup_s"] = setup_seconds(args.workload, args.seed)

    stamp.update({"inputs": wl.stamp(), "python": platform.python_version(),
                  "numpy": numpy.__version__, "git_sha": git_sha(), "nproc": os.cpu_count(),
                  "start_method": multiprocessing.get_start_method(),
                  "failed_frac": ledger.failed / ledger.attempted})
    print(json.dumps({"stamp": stamp}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
