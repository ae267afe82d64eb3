"""Self-contained oracle checks tying the simulator to exact identities.

Each check compares a simulated quantity against a closed-form value that is
exact (no Jensen or Taylor step involved), so a failure means a bug, not an
approximation artifact:

* the unit-mean exponential MGF E[e^{-g X}] = 1/(1+g),
* the Binomial(n-1, 1-e^{-tau}) jammer-count mean,
* the exact per-eavesdropper intercept probability in interference-limited
  mode, and
* the two-leg combining identity under independent leg sampling.

Tolerances are standard-error based, so fewer trials widen them
automatically without changing the pass criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import combine_legs, eve_intercept_exact, expected_jammers
from .channel import ScenarioConfig, trial_rng
from .montecarlo import estimate_outage
from .protocols import ProtocolChoice

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


def check_mgf_identity(gamma: float, samples: int, seed: int) -> CheckResult:
    """mean(e^{-gamma X}) over Exp(1) draws against the exact 1/(1+gamma)."""
    rng = trial_rng(seed, 0)
    vals = np.exp(-gamma * rng.exponential(1.0, size=samples))
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / math.sqrt(samples)
    expected = 1.0 / (1.0 + gamma)
    tol = 3.0 * se
    return CheckResult(f"mgf_identity(gamma={gamma})", abs(mean - expected) <= tol,
                       mean, expected, tol, f"samples={samples}")


def check_jammer_count(trials: int, seed: int, n: int = 11, tau: float = 0.1) -> CheckResult:
    """Mean hop-1 jammer set size against the binomial mean (n-1)(1-e^{-tau})."""
    config = ScenarioConfig(n=n, m=0, gamma_r=1.0, gamma_e=1.0,
                            noise_mode="interference-limited")
    protocol = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=tau)
    est = estimate_outage(config, protocol, trials, seed)
    expected = expected_jammers(n, tau)
    tol = 3.0 * est.se_jammers_hop1
    return CheckResult(f"jammer_count(n={n}, tau={tau})",
                       abs(est.mean_jammers_hop1 - expected) <= tol,
                       est.mean_jammers_hop1, expected, tol, f"trials={trials}")


def check_eve_intercept(trials: int, seed: int, n: int = 11, tau: float = 0.1,
                        gamma_e: float = 1.0) -> CheckResult:
    """Empirical per-eavesdropper intercept rate against the exact binomial MGF value.

    The Wilson interval of the estimate must contain the exact value.
    """
    config = ScenarioConfig(n=n, m=1, gamma_r=1.0, gamma_e=gamma_e,
                            noise_mode="interference-limited")
    protocol = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=tau)
    est = estimate_outage(config, protocol, trials, seed)
    prop = est.eve_single_hop1
    expected = eve_intercept_exact(n, gamma_e, tau)
    return CheckResult(f"eve_intercept_exact(n={n}, tau={tau})",
                       prop.lo <= expected <= prop.hi,
                       prop.p, expected, prop.hi - prop.lo,
                       f"wilson=[{prop.lo:.5f}, {prop.hi:.5f}] trials={trials}")


def check_leg_combining(trials: int, seed: int, outage: str,
                        n: int = 11, tau: float = 0.3) -> CheckResult:
    """p_e2e against combine_legs(p_hop1, p_hop2) in independent-legs mode.

    The gap must stay within a pooled 95% band built from the per-leg and
    end-to-end standard errors (delta method for the combined estimate).
    """
    config = ScenarioConfig(n=n, m=1, gamma_r=1.0, gamma_e=1.0,
                            noise_mode="interference-limited")
    protocol = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=tau)
    est = estimate_outage(config, protocol, trials, seed, legs="independent")
    p1 = getattr(est, f"{outage}_hop1")
    p2 = getattr(est, f"{outage}_hop2")
    pe = getattr(est, f"{outage}_e2e")
    combined = combine_legs(p1.p, p2.p)
    se1 = math.sqrt(p1.p * (1 - p1.p) / trials)
    se2 = math.sqrt(p2.p * (1 - p2.p) / trials)
    se_e = math.sqrt(pe.p * (1 - pe.p) / trials)
    se_comb = math.sqrt(((1 - p2.p) * se1) ** 2 + ((1 - p1.p) * se2) ** 2)
    tol = 1.96 * math.sqrt(se_e ** 2 + se_comb ** 2)
    return CheckResult(f"leg_combining({outage}, independent legs)",
                       abs(pe.p - combined) <= tol, pe.p, combined, tol,
                       f"trials={trials}")


def run_oracle_suite(trials: int = 100_000, mgf_samples: int = 1_000_000,
                     seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every oracle check and return the results in a fixed order."""
    results = [check_mgf_identity(g, mgf_samples, seed + i)
               for i, g in enumerate((0.5, 1.0, 2.0))]
    results.append(check_jammer_count(trials, seed))
    results.append(check_eve_intercept(trials, seed))
    results.append(check_leg_combining(trials, seed, "t"))
    results.append(check_leg_combining(trials, seed, "s"))
    return results
