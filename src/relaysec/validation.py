"""Row checks tying the simulator to exact identities.

Each row compares a simulated quantity with an exact closed form (no Jensen
or Taylor step), so a FAIL means a bug, not an approximation artifact.
`mgf_check` reads the gains (`channel.gain`) of one row of uniforms, the
sampler every channel gain comes from; the other checks read an estimate and
raise ValueError when it does not meet their precondition. `run_oracle_suite`
runs two estimates: a shared-legs one feeds the jammer and intercept rows,
an independent-legs one both leg rows. Tolerances are standard-error based,
so fewer trials widen them without changing the pass criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bounds import combine_legs, eve_intercept_exact, expected_jammers
from .channel import ScenarioConfig, SeedStream, gain
from .montecarlo import OutageEstimate, estimate_outage
from .protocols import ProtocolChoice, resolve_tau

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    observed: float
    expected: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: observed={self.observed:.6g} "
                f"expected={self.expected:.6g} tol={self.tolerance:.3g} {self.detail}")


def mgf_check(gamma: float, samples: int, seed: int) -> CheckResult:
    """mean(e^{-gamma X}) over the gains of seed's row 0 against the exact 1/(1+gamma)."""
    vals = np.exp(-gamma * gain(SeedStream(seed).uniforms(0, 1, samples)[0]))
    mean, expected = float(vals.mean()), 1.0 / (1.0 + gamma)
    tol = 3.0 * float(vals.std(ddof=1)) / math.sqrt(samples)
    return CheckResult(f"mgf_identity(gamma={gamma})", abs(mean - expected) <= tol,
                       mean, expected, tol, f"samples={samples}")


def jammer_check(est: OutageEstimate) -> CheckResult:
    """Mean hop-1 jammer set size against the binomial mean (n-1)(1-e^{-tau}); any estimate."""
    n, tau = est.config.n, resolve_tau(est.protocol, est.config)
    expected, tol = expected_jammers(n, tau), 3.0 * est.se_jammers_hop1
    return CheckResult(f"jammer_count(n={n}, tau={tau})",
                       abs(est.mean_jammers_hop1 - expected) <= tol,
                       est.mean_jammers_hop1, expected, tol, f"trials={est.trials}")


def intercept_check(est: OutageEstimate) -> CheckResult:
    """Per-eavesdropper hop-1 intercept rate: its Wilson interval must hold the exact value.

    Exact in interference-limited mode only; needs m >= 1.
    """
    config = est.config
    if config.noise_mode != "interference-limited" or config.m < 1:
        raise ValueError("intercept_check needs interference-limited noise and m >= 1")
    tau = resolve_tau(est.protocol, config)
    prop = est.proportion("eve_hits_hop1")
    expected = eve_intercept_exact(config.n, config.gamma_e, tau)
    return CheckResult(f"eve_intercept_exact(n={config.n}, tau={tau})",
                       prop.lo <= expected <= prop.hi,
                       prop.p, expected, prop.hi - prop.lo,
                       f"wilson=[{prop.lo:.5f}, {prop.hi:.5f}] trials={est.trials}")


def leg_checks(est: OutageEstimate) -> list[CheckResult]:
    """p_e2e against combine_legs(p_hop1, p_hop2) for t then s; needs independent legs.

    The gap must stay within a pooled 95% band of the per-leg and end-to-end
    standard errors (delta method for the combined estimate).
    """
    if est.legs != "independent":
        raise ValueError(f"leg_checks needs independent legs, got {est.legs!r}")
    rows = []
    for outage in ("t", "s"):
        p1, p2, pe = (est.counts[f"{outage}_{k}"] / est.trials for k in ("hop1", "hop2", "e2e"))
        combined = combine_legs(p1, p2)
        se1, se2, se_e = (math.sqrt(p * (1 - p) / est.trials) for p in (p1, p2, pe))
        se_comb = math.sqrt(((1 - p2) * se1) ** 2 + ((1 - p1) * se2) ** 2)
        tol = 1.96 * math.sqrt(se_e ** 2 + se_comb ** 2)
        rows.append(CheckResult(f"leg_combining({outage}, independent legs)",
                                abs(pe - combined) <= tol, pe, combined, tol,
                                f"trials={est.trials}"))
    return rows


def run_oracle_suite(trials: int = 100_000, mgf_samples: int = 1_000_000,
                     seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every row check and return the rows in a fixed order."""
    rows = [mgf_check(g, mgf_samples, seed + i) for i, g in enumerate((0.5, 1.0, 2.0))]
    config = ScenarioConfig(n=11, m=1, gamma_r=1.0, gamma_e=1.0,
                            noise_mode="interference-limited")
    protocol = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.1)
    shared = estimate_outage(config, protocol, trials, seed)
    independent = estimate_outage(config, replace(protocol, tau=0.3), trials, seed,
                                  legs="independent")
    return rows + [jammer_check(shared), intercept_check(shared), *leg_checks(independent)]
