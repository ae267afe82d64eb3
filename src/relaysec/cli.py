"""Command-line harness: bounds, simulate, sweep, tolerance, validate.

Every setting is declared once, in `_SETTINGS`: its flag, the keywords of
its `add_argument` call and its default. A subcommand takes the flags of the
settings it reads (`bounds` the scenario, budgets and --tau; `validate`
--trials and --seed; `simulate`, `sweep` and `tolerance` every setting), plus
--config, --out and --format. A usage error found by a subcommand's parser
or handler prints that subcommand's usage line; argparse reports an unknown
flag on the top-level parser.

Settings resolve in a fixed precedence: the table's defaults, then a
--config JSON file (flat object with ScenarioConfig / ProtocolChoice field
names in snake_case), then explicit flags. A config file may hold any
setting of any subcommand, since one file describes a scenario that several
commands share. A bare --tau forces the manual threshold policy. Every run
echoes its fully-resolved configuration so results are self-describing, and
every randomized command has a fixed default seed; nothing is ever derived
from the clock.

Exit codes: 0 success (a reader closing stdout early included), 2 usage
error (an unwritable --out path included), 3 infeasible configuration,
4 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .bounds import InfeasibleConfigError, build_bound_report, check_at_least
from .channel import NOISE_MODES, ScenarioConfig
from .montecarlo import (CI_SUFFIXES, LEG_MODES, PROPORTIONS, estimate_outage, load_balance,
                         tolerance_search)
from .protocols import PROTOCOL_KINDS, TAU_POLICIES, ProtocolChoice
from .serialize import csv_line, dumps, write_csv
from .validation import run_oracle_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

DEFAULT_SEED = 12345
DEFAULT_TRIALS = 100_000

_KIND_ALIASES = {"optimal": "optimal-maxmin", "random": "random-uniform"}
_POLICY_ALIASES = {"protocol1": "protocol1-formula"}

# setting -> (flag, add_argument keywords, default). The flags, the keys a
# config file may hold, the types their values must have (the flag's `type`,
# str for a flag with choices) and the defaults all come from this table.
_SETTINGS = {
    "n": ("--n", {"type": int, "help": "number of candidate relays"}, None),
    "m": ("--m", {"type": int, "help": "number of eavesdroppers"}, None),
    "gamma_r": ("--gamma-r", {"type": float, "help": "legitimate SINR threshold"}, None),
    "gamma_e": ("--gamma-e", {"type": float, "help": "eavesdropper SINR threshold"}, None),
    "eps_s": ("--eps-s", {"type": float, "help": "secrecy outage budget"}, None),
    "eps_t": ("--eps-t", {"type": float, "help": "transmission outage budget"}, None),
    "es": ("--es", {"type": float, "help": "per-node transmit power (default 1)"}, 1.0),
    "n0": ("--n0", {"type": float, "help": "noise spectral level (default 1)"}, 1.0),
    "noise_mode": ("--noise-mode", {"choices": NOISE_MODES}, "exact"),
    "kind": ("--protocol", {"choices": sorted({*_KIND_ALIASES, *PROTOCOL_KINDS}),
                            "help": "relay selection rule"}, "random-uniform"),
    "tau_policy": ("--tau-policy", {"choices": sorted({*_POLICY_ALIASES, *TAU_POLICIES})},
                   "protocol1-formula"),
    "tau": ("--tau", {"type": float, "help": "manual jamming threshold"}, None),
    "trials": ("--trials", {"type": int}, DEFAULT_TRIALS),
    "seed": ("--seed", {"type": int}, DEFAULT_SEED),
    "coherence_len": ("--coherence-len", {"type": int, "help": "slots per channel epoch"}, 1),
    "legs": ("--legs", {"choices": LEG_MODES, "help": "hop channel coupling (default shared)"},
             "shared"),
    "workers": ("--workers", {"type": int, "help": "parallel worker processes"}, 1),
}

_SCENARIO_KEYS = ("n", "m", "gamma_r", "gamma_e", "es", "n0", "noise_mode",
                  "coherence_len", "eps_s", "eps_t")

SWEEP_PARAMS = ("n", "m", "gamma_r", "gamma_e", "eps_s", "eps_t", "tau")

SWEEP_COLUMNS = [
    "swept_value",
    "m_max_t1", "m_max_t3", "tau_min", "tau_max", "feasible",
    *(name + end for name in PROPORTIONS for end in CI_SUFFIXES),
    "jain_index", "status",
]


def _resolve_settings(parser: argparse.ArgumentParser, args: argparse.Namespace,
                      required: tuple[str, ...]) -> dict:
    """Merge defaults, config-file values and explicit flags (flags win)."""
    merged = {key: default for key, (_, _, default) in _SETTINGS.items()}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_vals = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_vals, dict):
            parser.error(f"config file {args.config} must hold a flat JSON object")
        if "protocol" in file_vals:  # accepted alias for the 'kind' field
            file_vals.setdefault("kind", file_vals.pop("protocol"))
        unknown = set(file_vals) - set(_SETTINGS)
        if unknown:
            parser.error(f"unknown config file keys: {sorted(unknown)}")
        wrong = sorted(k for k, v in file_vals.items() if not _type_ok(k, v))
        if wrong:
            parser.error(f"config file values of the wrong type: "
                         f"{', '.join(f'{k}={file_vals[k]!r}' for k in wrong)}")
        merged.update(file_vals)
    for key in _SETTINGS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    merged["kind"] = _KIND_ALIASES.get(merged["kind"], merged["kind"])
    merged["tau_policy"] = _POLICY_ALIASES.get(merged["tau_policy"], merged["tau_policy"])
    if merged["tau"] is not None:
        merged["tau_policy"] = "manual"
    missing = [k for k in required if merged.get(k) is None]
    if missing:
        flags = ", ".join(_SETTINGS[k][0] for k in missing)
        parser.error(f"missing required settings: {flags}")
    return merged


def _type_ok(key: str, value) -> bool:
    """Whether a config-file value has the type the matching flag would parse."""
    if value is None:
        return True
    if isinstance(value, bool):
        return False
    parse = _SETTINGS[key][1].get("type", str)
    return isinstance(value, (int, float) if parse is float else parse)


def _objects(local: dict) -> tuple[ScenarioConfig, ProtocolChoice]:
    """The scenario and protocol of resolved settings; ValueError if either is invalid."""
    config = ScenarioConfig(**{k: local[k] for k in _SCENARIO_KEYS if local.get(k) is not None})
    return config, ProtocolChoice(kind=local["kind"], tau_policy=local["tau_policy"],
                                  tau=local.get("tau"))


def _config_echo(merged: dict) -> dict:
    return {k: merged.get(k) for k in _SCENARIO_KEYS}


def _protocol_echo(protocol: ProtocolChoice, tau_resolved: float | None) -> dict:
    return {"kind": protocol.kind, "tau_policy": protocol.tau_policy,
            "tau": protocol.tau, "tau_resolved": tau_resolved}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_table(header, rows, out_path: str | None, append: bool = False) -> None:
    """A CSV table: header line, then one line per row, to `out_path` or stdout."""
    if out_path:
        write_csv(out_path, header, rows, append=append)
    else:
        print("\n".join([csv_line(header), *map(csv_line, rows)]))


def _emit_record(args, record: dict, doc: dict) -> None:
    """One result: `record` as a CSV header and row, or `doc` as JSON (the default)."""
    if (args.fmt or "json") == "csv":
        _emit_table(record, [record.values()], args.out)
    else:
        _emit(dumps(doc, indent=2), args.out)


def _cmd_bounds(parser, args) -> int:
    merged = _resolve_settings(parser, args,
                               required=("n", "m", "gamma_r", "gamma_e", "eps_s", "eps_t"))
    report = build_bound_report(merged["n"], merged["m"], merged["gamma_r"],
                                merged["gamma_e"], merged["eps_s"], merged["eps_t"],
                                tau=merged.get("tau"))
    rd = report.as_dict()
    _emit_record(args, rd, {"command": "bounds", "report": rd})
    return EXIT_OK if report.tau_interval.feasible else EXIT_INFEASIBLE


def _cmd_simulate(parser, args) -> int:
    merged = _resolve_settings(parser, args, required=("n", "m", "gamma_r", "gamma_e"))
    config, protocol = _objects(merged)
    est = estimate_outage(config, protocol, merged["trials"], merged["seed"],
                          legs=merged["legs"], workers=merged["workers"])
    res = est.as_dict()
    _emit_record(args, res, {"command": "simulate", "config": _config_echo(merged),
                             "protocol": _protocol_echo(protocol, est.tau),
                             "result": res})
    return EXIT_OK


def _sweep_values(parser, args) -> list[float]:
    """The swept values, an integral n or m as an int; ScenarioConfig checks them."""
    if args.values:
        try:
            vals = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            parser.error(f"--values must be comma-separated numbers, got {args.values!r}")
    elif None not in (args.sweep_from, args.sweep_to, args.sweep_step):
        grid = (args.sweep_from, args.sweep_to, args.sweep_step)
        if not all(math.isfinite(x) for x in grid) or args.sweep_step <= 0:
            parser.error("--from/--to/--step must be finite, with --step > 0")
        # exact decimal steps from the flags' shortest repr: no float drift,
        # so 0 to 0.3 by 0.1 ends at 0.3 itself (decimal is imported here
        # because only this grid needs it)
        from decimal import Decimal
        start, stop, step = (Decimal(repr(x)) for x in grid)
        vals = [float(start + i * step) for i in range(math.floor((stop - start) / step) + 1)]
    else:
        parser.error("sweep needs --values or --from/--to/--step")
    if not vals:
        parser.error("sweep value list is empty")
    if args.param in ("n", "m"):
        vals = [int(v) if v.is_integer() else v for v in vals]
    return vals


def _sweep_row(args, local: dict, config: ScenarioConfig, protocol: ProtocolChoice) -> dict:
    """One sweep row: status `error` if a bound is undefined at its value,
    `infeasible` if its theorem-2 window is empty; any other failure ends the sweep."""
    row = dict.fromkeys(SWEEP_COLUMNS)
    row["swept_value"] = local[args.param]
    row["status"] = "ok"
    if args.outputs in ("bounds", "both"):
        try:
            report = build_bound_report(config.n, config.m, config.gamma_r,
                                        config.gamma_e, config.eps_s, config.eps_t,
                                        tau=local.get("tau"))
            rd = report.as_dict()
            for k in ("m_max_t1", "m_max_t3", "tau_min", "tau_max", "feasible"):
                row[k] = rd[k]
            if not report.tau_interval.feasible:
                row["status"] = "infeasible"
        except ValueError:
            row["status"] = "error"
    if args.outputs in ("simulation", "both"):
        try:
            est = estimate_outage(config, protocol, local["trials"], local["seed"],
                                  legs=local["legs"], workers=local["workers"])
            for k, val in est.as_dict().items():
                if k in row:
                    row[k] = val
        except InfeasibleConfigError:
            row["status"] = "infeasible"
    if args.lb_slots is not None and row["status"] in ("ok", "infeasible"):
        row["jain_index"] = load_balance(config, protocol, args.lb_slots,
                                         local["seed"]).jain_index
    return row


def _cmd_sweep(parser, args) -> int:
    if args.append and (args.fmt == "json" or not args.out):  # it extends a CSV file
        parser.error("--append needs --out and CSV output")
    if args.lb_slots is not None:
        check_at_least("--load-balance-slots", args.lb_slots, 1)
    need = ("n", "m", "gamma_r", "gamma_e") if args.outputs == "simulation" \
        else ("n", "m", "gamma_r", "gamma_e", "eps_s", "eps_t")
    merged = _resolve_settings(parser, args,
                               required=tuple(k for k in need if k != args.param))
    if args.param == "tau":  # every row runs at its own manual threshold
        merged["tau_policy"] = "manual"
    settings = [{**merged, args.param: v} for v in _sweep_values(parser, args)]
    # every row's inputs are checked before any row runs: a bad value, swept
    # or shared, is a usage error
    objects = [_objects(local) for local in settings]
    rows = [_sweep_row(args, local, *objs) for local, objs in zip(settings, objects)]

    echo = {"command": "sweep", "param": args.param, "outputs": args.outputs,
            "config": _config_echo(merged),
            "protocol": {"kind": merged["kind"], "tau_policy": merged["tau_policy"],
                         "tau": merged.get("tau")},
            "trials": merged["trials"], "seed": merged["seed"]}
    if (args.fmt or "csv") == "json":
        _emit(dumps({**echo, "rows": rows}, indent=2), args.out)
    else:
        print(dumps(echo), file=sys.stderr)
        _emit_table(SWEEP_COLUMNS, [[row[c] for c in SWEEP_COLUMNS] for row in rows], args.out,
                    append=args.append)
    return EXIT_OK


def _cmd_tolerance(parser, args) -> int:
    merged = _resolve_settings(parser, args, required=("n", "gamma_r", "gamma_e", "eps_s"))
    if merged.get("m") is None:
        merged["m"] = 1  # base m only seeds tau resolution; the search replaces it
    config, protocol = _objects(merged)
    result = tolerance_search(config, protocol, merged["eps_s"], merged["trials"],
                              args.m_cap, merged["seed"], legs=merged["legs"],
                              workers=merged["workers"])
    doc = {"command": "tolerance", "config": _config_echo(merged),
           "protocol": _protocol_echo(protocol, result.tau),
           "eps_s": merged["eps_s"], "m_cap": args.m_cap,
           "trials": merged["trials"], "seed": merged["seed"],
           "result": {"m_max": result.m_max, "violated_at_m1": result.violated_at_m1,
                      "probes": [list(p) for p in result.probes]}}
    _emit(dumps(doc, indent=2), args.out)
    return EXIT_OK


def _cmd_validate(parser, args) -> int:
    merged = _resolve_settings(parser, args, required=())
    trials = 20_000 if args.quick and args.trials is None else merged["trials"]
    mgf_samples = 100_000 if args.quick else 1_000_000
    results = run_oracle_suite(trials=trials, mgf_samples=mgf_samples,
                               seed=merged["seed"])
    if args.fmt == "csv":
        _emit_table(vars(results[0]), [vars(r).values() for r in results], args.out)
    elif args.fmt == "json":
        _emit(dumps({"command": "validate", "seed": merged["seed"],
                     "rows": [vars(r) for r in results]}, indent=2), args.out)
    else:
        _emit("\n".join(r.line() for r in results), args.out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


# built on the first `main` call, not at import, and kept: parsing never
# changes the parser, and each add_argument costs a HelpFormatter
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysec",
        description="Two-hop relay security: closed-form bounds and Monte Carlo estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, keys, formats=("json", "csv")):
        """A subcommand with the flags of the settings `keys`; it carries its handler
        and itself, so a usage error in the handler prints this subcommand's usage."""
        p = sub.add_parser(name, help=summary)
        for key in keys:
            flag, kwargs, _ = _SETTINGS[key]
            p.add_argument(flag, dest=key, **kwargs)
        p.add_argument("--config", help="JSON file with any of the above settings")
        p.add_argument("--out", help="write the result to this file instead of stdout")
        p.add_argument("--format", choices=formats, dest="fmt")
        p.set_defaults(handler=handler, parser=p)
        return p

    command("bounds", _cmd_bounds, "evaluate every closed-form bound",
            ("n", "m", "gamma_r", "gamma_e", "eps_s", "eps_t", "tau"))
    command("simulate", _cmd_simulate, "Monte Carlo outage estimation", _SETTINGS)

    p_sweep = command("sweep", _cmd_sweep, "sweep one parameter, emit a results table",
                      _SETTINGS)
    p_sweep.add_argument("--param", choices=SWEEP_PARAMS, required=True)
    p_sweep.add_argument("--values", help="comma-separated values for the swept parameter")
    p_sweep.add_argument("--from", type=float, dest="sweep_from")
    p_sweep.add_argument("--to", type=float, dest="sweep_to")
    p_sweep.add_argument("--step", type=float, dest="sweep_step")
    p_sweep.add_argument("--outputs", choices=("bounds", "simulation", "both"),
                         default="both")
    p_sweep.add_argument("--load-balance-slots", type=int, dest="lb_slots",
                         help="also run this many slots per row and report the Jain index")
    p_sweep.add_argument("--append", action="store_true",
                         help="append rows to an existing CSV with the same header")

    p_tol = command("tolerance", _cmd_tolerance, "search the empirical eavesdropper tolerance",
                    _SETTINGS, formats=("json",))
    p_tol.add_argument("--m-cap", type=int, dest="m_cap", default=1024)

    p_val = command("validate", _cmd_validate, "run the oracle identity suite",
                    ("trials", "seed"))
    p_val.add_argument("--quick", action="store_true",
                       help="fewer trials (tolerances widen automatically)")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args.parser, args)
    except InfeasibleConfigError as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        args.parser.error(str(exc))
    except BrokenPipeError:
        # the reader closed stdout early, a normal end; point stdout at devnull
        # so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:
        if args.out is None or exc.filename != args.out:
            raise
        print(f"relaysec: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
