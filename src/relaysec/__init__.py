"""Secure two-hop relay transmission under cooperative jamming.

A numpy library for studying a source-relay-destination network where idle
relays jam unknown passive eavesdroppers: Rayleigh channel sampling, the
max-min and random relay-selection protocols, Monte Carlo outage estimation
with deterministic parallelism, and the closed-form eavesdropper-tolerance
bounds those simulations are validated against.
"""

from .bounds import (BoundReport, InfeasibleConfigError, MBound, TauInterval,
                     build_bound_report, combine_legs, eve_intercept_exact,
                     expected_jammers, per_leg_budget, reliability_leg_bound,
                     secrecy_leg_bound, theorem1_m_max, theorem2_tau_range,
                     theorem3_m_max)
from .channel import ScenarioConfig
from .montecarlo import (LoadBalanceStats, OutageEstimate, Proportion,
                         ToleranceResult, estimate_outage, jain_index,
                         load_balance, merge_estimates, selection_entropy,
                         tolerance_search, wilson_interval)
from .protocols import ProtocolChoice, resolve_tau, tau_protocol1
from .validation import CheckResult, run_oracle_suite

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CheckResult", "InfeasibleConfigError", "LoadBalanceStats", "MBound",
    "OutageEstimate", "Proportion", "ProtocolChoice", "ScenarioConfig", "TauInterval",
    "ToleranceResult", "build_bound_report", "combine_legs", "estimate_outage",
    "eve_intercept_exact", "expected_jammers", "jain_index", "load_balance", "merge_estimates",
    "per_leg_budget", "reliability_leg_bound", "resolve_tau", "run_oracle_suite",
    "secrecy_leg_bound", "selection_entropy", "tau_protocol1", "theorem1_m_max",
    "theorem2_tau_range", "theorem3_m_max", "tolerance_search", "wilson_interval",
]
