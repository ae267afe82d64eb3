"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client issues one operation, waits for
its result, checks it, and issues the next. A pass is a fixed list of
operations; run.py repeats passes and times each one.

* mc-small  - estimate_outage at n = 11 over both rules, both leg modes,
              both noise modes and m in {1, 8}: per-trial Python overhead.
* mc-large  - estimate_outage at n = 1001, m = 8: the O(n^2) channel draw.
* tolerance - `relaysec tolerance` in-process with 2 workers: a process pool
              per probe, merging, m-scaling and JSON emission.
* sweep-lb  - `relaysec sweep --outputs bounds --load-balance-slots` with long
              coherence epochs: bounds, CSV emission, and max-min reselection.

An operation is one estimate, one tolerance query or one sweep row; it fails
when it raises or when its output fails a check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import sys
import traceback

import oracles
from oracles import Scenario

MAX_REPORTED_FAILURES = 5


class Ledger:
    """Counts operations attempted and failed, and keeps the first failure reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, check) -> bool:
        """Run one operation; `check` returns a list of problems (empty when correct)."""
        self.attempted += 1
        try:
            problems = check()
        except Exception:  # the benchmark must keep going and count the failure
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call relaysec's CLI in-process and capture what it writes, untouched."""
    from relaysec import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _counts_problems(counts: dict, trials: int, exact: dict) -> list[str]:
    """Inclusion-exclusion identities for every case, exact gates where known."""
    problems = []
    for o in ("t", "s"):
        h1, h2, e2e, both = (counts[f"{o}_hop1"], counts[f"{o}_hop2"],
                             counts[f"{o}_e2e"], counts[f"{o}_both"])
        if e2e != h1 + h2 - both or not max(h1, h2) <= e2e <= min(h1 + h2, trials):
            problems.append(f"{o}: hop1={h1} hop2={h2} both={both} e2e={e2e} trials={trials}")
    for key, p in exact.items():
        if not oracles.within_gate(counts[key], trials, p):
            problems.append(f"{key}={counts[key]}/{trials} vs exact {p:.6f}")
    return problems


class Workload:
    """A workload's hooks around its passes; the defaults do nothing extra."""

    pooled = False  # whether pool workers run in the timed passes

    def determinism(self, ledger: Ledger) -> None:
        """Untimed operations run once before the passes."""

    def finish(self, ledger: Ledger) -> None:
        """Checks on the whole run, after the last pass."""

    def time_to_ci(self, fastest: dict) -> float:
        """Seconds to the workload's answer at its requested accuracy: one pass."""
        return sum(fastest.values())


class McWorkload(Workload):
    """Repeated estimate_outage calls, one per case per pass, workers = 1.

    Pass k of case c runs trials [k T, (k+1) T) of the case's seed, and the
    parts are merged with merge_estimates, so the run ends with one large
    estimate per case that is gated again at its full size.
    """

    DETERMINISM_START = 1000

    def __init__(self, name: str, seed: int, n: int, ms: tuple, rules: tuple, legs: tuple,
                 noise_modes: tuple, trials: int, determinism_trials: int, scenario: dict):
        from relaysec import ProtocolChoice, ScenarioConfig
        from relaysec.protocols import resolve_tau
        self.name, self.seed, self.trials = name, seed, trials
        self.determinism_trials = determinism_trials
        policy = {"optimal-maxmin": "protocol1-formula", "random-uniform": "theorem2-max"}
        self.cases = []
        for i, (rule, leg, noise, m) in enumerate(itertools.product(rules, legs, noise_modes, ms)):
            config = ScenarioConfig(n=n, m=m, noise_mode=noise, **scenario)
            protocol = ProtocolChoice(kind=rule, tau_policy=policy[rule])
            tau = resolve_tau(protocol, config)
            exact = {}
            if rule == "random-uniform":
                s = Scenario(n=n, tau=tau, gamma_r=config.gamma_r, gamma_e=config.gamma_e,
                             es=config.es, n0=config.n0,
                             interference_limited=noise == "interference-limited")
                pt, ps = oracles.p_t_hop(s), oracles.p_s_hop(s, m)
                exact = {"t_hop1": pt, "t_hop2": pt, "t_e2e": oracles.combine(pt, pt),
                         "s_hop1": ps, "s_hop2": ps}
                if leg == "independent":
                    exact["s_e2e"] = oracles.combine(ps, ps)
            self.cases.append({"config": config, "protocol": protocol, "legs": leg, "tau": tau,
                               "seed": seed * 1000 + i, "exact": exact})
        self.merged = [None] * len(self.cases)

    def stamp(self) -> dict:
        return {"cases": [{"n": c["config"].n, "m": c["config"].m, "rule": c["protocol"].kind,
                           "tau_policy": c["protocol"].tau_policy, "legs": c["legs"],
                           "noise_mode": c["config"].noise_mode, "tau_resolved": c["tau"],
                           "trials": self.trials, "workers": 1, "estimate_seed": c["seed"]}
                          for c in self.cases],
                "determinism": {"trials": self.determinism_trials, "workers": [1, 2],
                                "trial_start": self.DETERMINISM_START}}

    def determinism(self, ledger: Ledger) -> None:
        """Whole slice, two merged trial ranges, and two workers must count alike."""
        from relaysec import montecarlo
        c = self.cases[self.seed % len(self.cases)]
        start, t = self.DETERMINISM_START, self.determinism_trials
        cut = start + t // 3

        def est(a, b, workers=1):
            return montecarlo.estimate_outage(c["config"], c["protocol"], b - a, c["seed"],
                                              legs=c["legs"], workers=workers, trial_start=a)

        def check():
            whole = est(start, start + t)
            split = montecarlo.merge_estimates([est(start, cut), est(cut, start + t)])
            pooled = est(start, start + t, workers=2)
            return [f"{label} counts differ from the whole slice"
                    for label, other in (("split", split), ("workers=2", pooled))
                    if (other.counts, other.trials) != (whole.counts, whole.trials)]

        ledger.run(f"{self.name} determinism", check)

    def run_pass(self, k: int, ledger: Ledger, timed) -> int:
        from relaysec import montecarlo
        for i, c in enumerate(self.cases):
            def check():
                with timed(i):
                    est = montecarlo.estimate_outage(c["config"], c["protocol"], self.trials,
                                                     c["seed"], legs=c["legs"], workers=1,
                                                     trial_start=k * self.trials)
                prev = self.merged[i]
                self.merged[i] = est if prev is None else montecarlo.merge_estimates([prev, est])
                if est.trials != self.trials:
                    return [f"trials {est.trials} != {self.trials}"]
                return _counts_problems(est.counts, est.trials, c["exact"])

            ledger.run(f"{self.name} case {i} pass {k}", check)
        return self.trials * len(self.cases)

    def finish(self, ledger: Ledger) -> None:
        """Gate every merged random-uniform estimate at its full size."""
        for i, (c, est) in enumerate(zip(self.cases, self.merged)):
            if c["exact"] and est is not None:
                ledger.run(f"{self.name} case {i} merged",
                           lambda c=c, est=est: _counts_problems(est.counts, est.trials, c["exact"]))

    def time_to_ci(self, fastest: dict) -> float:
        """Seconds to pin every case's p_s_e2e to a Wilson 95% half-width of 0.005.

        Each case needs trials * (hw / 0.005)^2 trials, hw being the
        half-width of its merged estimate, at the per-trial cost of its
        fastest call.
        """
        total = 0.0
        for i, est in enumerate(self.merged):
            hw = oracles.wilson_half_width(est.counts["s_e2e"], est.trials)
            total += fastest[i] / self.trials * est.trials * (hw / 0.005) ** 2
        return total


class ToleranceWorkload(Workload):
    """One `relaysec tolerance` query per pass, each with its own seed."""

    N, GAMMA_R, GAMMA_E, EPS_S, TAU = 101, 1.0, 0.05, 0.8, 1.78
    M_CAP, TRIALS, WORKERS = 64, 500, 2
    pooled = True

    def __init__(self, seed: int):
        self.name, self.seed = "tolerance", seed
        s = Scenario(n=self.N, tau=self.TAU, gamma_r=self.GAMMA_R, gamma_e=self.GAMMA_E,
                     interference_limited=True)
        self.exact = [0.0] + [oracles.p_s_e2e_independent(s, m) for m in range(1, self.M_CAP + 1)]
        self.exact_m = oracles.exact_tolerance(s, self.EPS_S, self.M_CAP)
        self.m_lo, self.m_hi = oracles.tolerance_window(self.exact, self.EPS_S, self.TRIALS)
        self.tau_resolved = None

    def argv(self, k: int) -> list[str]:
        return ["tolerance", "--n", str(self.N), "--gamma-r", str(self.GAMMA_R),
                "--gamma-e", str(self.GAMMA_E), "--eps-s", str(self.EPS_S),
                "--noise-mode", "interference-limited", "--protocol", "random",
                "--tau", str(self.TAU), "--legs", "independent", "--m-cap", str(self.M_CAP),
                "--trials", str(self.TRIALS), "--workers", str(self.WORKERS),
                "--seed", str(self.seed * 1000 + k)]

    def stamp(self) -> dict:
        return {"n": self.N, "m": f"1..{self.M_CAP} (searched)", "rule": "random-uniform",
                "legs": "independent", "noise_mode": "interference-limited",
                "tau_resolved": self.tau_resolved, "trials": self.TRIALS,
                "workers": self.WORKERS, "eps_s": self.EPS_S, "exact_tolerance": self.exact_m,
                "accepted_answers": [self.m_lo, self.m_hi], "argv": self.argv(0)}

    def run_pass(self, k: int, ledger: Ledger, timed) -> int:
        trials = 0

        def check():
            nonlocal trials
            with timed("query"):
                code, out = run_cli(self.argv(k))
            if code != 0:
                return [f"exit code {code}"]
            doc = json.loads(out)
            self.tau_resolved = doc["protocol"]["tau_resolved"]
            result = doc["result"]
            trials = len(result["probes"]) * self.TRIALS
            problems = [] if self.tau_resolved == self.TAU else [f"tau_resolved {self.tau_resolved}"]
            for m, upper in result["probes"]:
                lo, hi = oracles.wilson_upper_band(self.exact[m], self.TRIALS)
                if not lo <= upper <= hi:
                    problems.append(f"probe m={m} upper={upper} outside [{lo:.4f}, {hi:.4f}]")
            if not self.m_lo <= result["m_max"] <= self.m_hi:
                problems.append(f"m_max={result['m_max']} outside [{self.m_lo}, {self.m_hi}]"
                                f" (exact {self.exact_m})")
            return problems

        ledger.run(f"tolerance query {k}", check)
        return trials


class SweepWorkload(Workload):
    """Two `relaysec sweep --param n` calls per pass, one per selection rule.

    Bound columns are checked against an independent implementation of the
    theorems. Relay selection is uniform under both rules, so each row's
    Jain index J gives a Pearson statistic D (1/J - 1) over D independent
    draws (D = epochs for max-min, which reselects the same relay all epoch,
    and D = slots for random selection); their pooled mean is gated at the end.
    """

    NS = (21, 41, 61, 81, 101)
    M, GAMMA_R, GAMMA_E, EPS_S, EPS_T = 4, 1.0, 2.0, 0.5, 0.5
    SLOTS, COHERENCE = 2000, 100
    RULES = ("optimal", "random")

    def __init__(self, seed: int):
        from relaysec import ProtocolChoice, ScenarioConfig
        from relaysec.protocols import resolve_tau
        self.name, self.seed = "sweep-lb", seed
        self.expected = {}
        self.taus = {}
        for n in self.NS:
            tau_min, tau_max = oracles.theorem2_window(n, self.M, self.GAMMA_R, self.GAMMA_E,
                                                       self.EPS_S, self.EPS_T)
            self.expected[n] = {
                "m_max_t1": oracles.theorem1_m_max(n, self.GAMMA_R, self.GAMMA_E, self.EPS_S),
                "m_max_t3": oracles.theorem3_m_max(n, self.GAMMA_R, self.GAMMA_E,
                                                   self.EPS_S, self.EPS_T),
                "tau_min": tau_min, "tau_max": tau_max}
            config = ScenarioConfig(n=n, m=self.M, gamma_r=self.GAMMA_R, gamma_e=self.GAMMA_E,
                                    coherence_len=self.COHERENCE)
            self.taus[n] = resolve_tau(ProtocolChoice(kind="optimal-maxmin"), config)
        self.chi2 = {(rule, n): [] for rule in self.RULES for n in self.NS}

    def argv(self, rule: str, k: int) -> list[str]:
        return ["sweep", "--param", "n", "--values", ",".join(map(str, self.NS)),
                "--outputs", "bounds", "--load-balance-slots", str(self.SLOTS),
                "--coherence-len", str(self.COHERENCE), "--m", str(self.M),
                "--gamma-r", str(self.GAMMA_R), "--gamma-e", str(self.GAMMA_E),
                "--eps-s", str(self.EPS_S), "--eps-t", str(self.EPS_T),
                "--protocol", rule, "--seed", str(self.seed * 1000 + k), "--format", "csv"]

    def stamp(self) -> dict:
        return {"rows": [{"n": n, "m": self.M, "rule": rule, "legs": None, "noise_mode": "exact",
                          "tau_resolved": self.taus[n] if rule == "optimal" else None,
                          "trials": None, "slots": self.SLOTS, "coherence_len": self.COHERENCE,
                          "workers": 1} for rule in self.RULES for n in self.NS],
                "argv": self.argv(self.RULES[0], 0)}

    def _row_problems(self, row: dict, n: int, rule: str) -> list[str]:
        problems = []
        if row["status"] != "ok" or row["feasible"] != "true":
            problems.append(f"status={row['status']} feasible={row['feasible']}")
        for key, want in self.expected[n].items():
            got = float(row[key])
            if not math.isclose(got, want, rel_tol=1e-12):
                problems.append(f"{key}={got!r} expected {want!r}")
        jain = float(row["jain_index"])
        if not 1.0 / n - 1e-12 <= jain <= 1.0 + 1e-12:
            problems.append(f"jain_index {jain} outside [1/n, 1]")
        draws = self.SLOTS // self.COHERENCE if rule == "optimal" else self.SLOTS
        self.chi2[(rule, n)].append(draws * (1.0 / jain - 1.0))
        return problems

    def run_pass(self, k: int, ledger: Ledger, timed) -> int:
        for rule in self.RULES:
            try:
                with timed(rule):
                    code, out = run_cli(self.argv(rule, k))
                rows = list(csv.DictReader(io.StringIO(out))) if code == 0 else []
            except Exception:  # every row of a sweep that raised counts as failed
                code, rows = -1, []
                print(traceback.format_exc(), file=sys.stderr)
            for j, n in enumerate(self.NS):
                def check(j=j, n=n):
                    if code != 0 or len(rows) != len(self.NS):
                        return [f"exit code {code}, {len(rows)} rows"]
                    row = rows[j]
                    if int(row["swept_value"]) != n:
                        return [f"swept_value {row['swept_value']} != {n}"]
                    return self._row_problems(row, n, rule)
                ledger.run(f"sweep {rule} pass {k} n={n}", check)
        return len(self.RULES) * len(self.NS) * self.SLOTS

    def finish(self, ledger: Ledger) -> None:
        for (rule, n), stats in self.chi2.items():
            draws = self.SLOTS // self.COHERENCE if rule == "optimal" else self.SLOTS
            if stats:
                ledger.run(f"sweep {rule} n={n} selection uniformity",
                           lambda stats=stats, n=n, draws=draws:
                           [] if oracles.chi2_mean_gate(stats, n, draws)
                           else [f"mean Pearson statistic {sum(stats) / len(stats):.2f}, "
                                 f"expected {n - 1} over {len(stats)} rows"])


MC_SMALL = dict(n=11, ms=(1, 8), rules=("optimal-maxmin", "random-uniform"),
                legs=("shared", "independent"), noise_modes=("exact", "interference-limited"),
                trials=200, determinism_trials=120,
                scenario=dict(gamma_r=0.5, gamma_e=4.0, es=5.0, eps_s=0.6, eps_t=0.5))
MC_LARGE = dict(n=1001, ms=(8,), rules=("optimal-maxmin", "random-uniform"),
                legs=("shared",), noise_modes=("exact",), trials=10, determinism_trials=6,
                scenario=dict(gamma_r=0.5, gamma_e=0.15, es=5.0, eps_s=0.8, eps_t=0.5))

WORKLOADS = ("mc-small", "mc-large", "tolerance", "sweep-lb")


def build(name: str, seed: int):
    if name == "mc-small":
        return McWorkload(name, seed, **MC_SMALL)
    if name == "mc-large":
        return McWorkload(name, seed, **MC_LARGE)
    if name == "tolerance":
        return ToleranceWorkload(seed)
    if name == "sweep-lb":
        return SweepWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
