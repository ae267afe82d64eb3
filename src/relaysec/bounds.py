"""Closed-form outage bounds and eavesdropper-tolerance limits.

Every function here evaluates an exact expression; nothing is simulated.
All logarithms are natural (the underlying derivations manipulate e^{-x}).
Two caveats worth keeping in mind when comparing against simulation:

* the secrecy expressions substitute the expected jammer count into an
  exponent (a Jensen step that is optimistic for the convex map a^x), and
* the reliability ceiling replaces 1 - e^{-tau} by tau (a Taylor step),

so the theorem-2/3 numbers are design guidance, not rigorous envelopes.
eve_intercept_exact is the exact binomial-MGF counterpart kept here as the
oracle those approximations are measured against.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple


class InfeasibleConfigError(ValueError):
    """A tau policy or configuration demands an infeasible theorem-2 interval."""


class MBound(NamedTuple):
    """An eavesdropper-tolerance bound: the real value and the usable integer
    (both math.inf past the largest float)."""

    value: float
    floor: int | float


@dataclass(frozen=True)
class TauInterval:
    """Feasible jamming-threshold range [tau_min, tau_max], or why there is none."""

    tau_min: float
    tau_max: float
    feasible: bool
    reason: str | None = None


# The input rules of the whole package, one definition each. Every check is
# written `if not <holds>`, so a NaN fails it.

def check_positive(name: str, value) -> None:
    """ValueError unless value > 0."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def check_at_least(name: str, value, low, integer: bool = False) -> None:
    """ValueError unless value >= low and, with `integer`, an int or numpy integer (not a bool)."""
    # an int passes before the Integral check, which costs about 0.6 us
    if integer and type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_unit(name: str, value, open_top: bool = False) -> None:
    """ValueError unless value is in [0, 1], or in [0, 1) with `open_top`."""
    if not (0.0 <= value < 1.0 if open_top else 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1{')' if open_top else ']'}, got {value}")


def per_leg_budget(eps: float) -> float:
    """Per-hop outage allowance 1 - sqrt(1 - eps) implied by two-hop combining."""
    check_unit("eps", eps)
    return 1.0 - math.sqrt(1.0 - eps)


def combine_legs(p1: float, p2: float) -> float:
    """End-to-end outage of two independent legs: p1 + p2 - p1*p2."""
    check_unit("p1", p1)
    check_unit("p2", p2)
    return p1 + p2 - p1 * p2


def expected_jammers(n: int, tau: float) -> float:
    """Expected noise-generator count (n-1)(1 - e^{-tau}) among the non-selected relays."""
    check_at_least("n", n, 1)
    check_at_least("tau", tau, 0)
    return (n - 1) * (1.0 - math.exp(-tau))


def reliability_leg_bound(n: int, gamma_r: float, tau: float) -> float:
    """Per-hop transmission-outage ceiling 1 - e^{-gamma_r (n-1)(1-e^{-tau}) tau}."""
    check_at_least("n", n, 1)
    check_at_least("tau", tau, 0)
    check_positive("gamma_r", gamma_r)
    if n == 1 or tau == 0.0:
        return 0.0
    return 1.0 - math.exp(-gamma_r * (n - 1) * (1.0 - math.exp(-tau)) * tau)


def secrecy_leg_bound(n: int, m: int, gamma_e: float, tau: float) -> float:
    """Per-hop secrecy-outage value m * (1/(1+gamma_e))^{(n-1)(1-e^{-tau})}.

    The exponent is the expected jammer count, not the random one, so the
    result can exceed 1; callers flag such values as vacuous rather than
    clamping them.
    """
    check_at_least("m", m, 0)
    check_positive("gamma_e", gamma_e)
    return m * (1.0 / (1.0 + gamma_e)) ** expected_jammers(n, tau)


def eve_intercept_exact(n: int, gamma_e: float, tau: float) -> float:
    """Exact per-eavesdropper intercept probability in interference-limited mode.

    With the jammer count Binomial(n-1, 1-e^{-tau}) and each jammer gain
    contributing an independent MGF factor 1/(1+gamma_e), the intercept
    probability is (e^{-tau} + (1-e^{-tau})/(1+gamma_e))^{n-1}. This is the
    oracle the expectation-substituted secrecy bound is compared against.
    """
    check_at_least("n", n, 1)
    check_at_least("tau", tau, 0)
    check_positive("gamma_e", gamma_e)
    p = 1.0 - math.exp(-tau)
    return ((1.0 - p) + p / (1.0 + gamma_e)) ** (n - 1)


def theorem1_m_max(n: int, gamma_r: float, gamma_e: float, eps_s: float) -> MBound:
    """Eavesdroppers tolerable under max-min relay selection and a secrecy budget.

    (1 - sqrt(1 - eps_s)) * (1 + gamma_e)^sqrt(n ln n / (32 gamma_r)).
    """
    check_at_least("n", n, 1)
    check_positive("gamma_r", gamma_r)
    check_positive("gamma_e", gamma_e)
    return _m_bound(per_leg_budget(eps_s), gamma_e, math.sqrt(n * math.log(n) / (32.0 * gamma_r)))


def theorem2_tau_range(n: int, m: int, gamma_r: float, gamma_e: float,
                       eps_s: float, eps_t: float) -> TauInterval:
    """Jamming-threshold window that meets both outage budgets under random selection.

    tau_min is the smallest threshold generating enough expected jamming to
    hold every eavesdropper below its per-leg secrecy budget; tau_max is the
    largest threshold whose self-interference still meets the per-leg
    reliability budget. Infeasibility is a first-class result, not an error.
    """
    check_at_least("n", n, 1)
    check_at_least("m", m, 0)
    check_positive("gamma_r", gamma_r)
    check_positive("gamma_e", gamma_e)
    check_unit("eps_t", eps_t, open_top=True)
    budget_s = per_leg_budget(eps_s)
    if n == 1:
        if m == 0:
            return TauInterval(0.0, math.inf, True)
        return TauInterval(math.inf, math.inf, False,
                           "no candidate jammers exist (n = 1)")
    tau_max = math.sqrt(-math.log1p(-eps_t) / (2.0 * gamma_r * (n - 1)))
    if m == 0:
        return TauInterval(0.0, tau_max, True)
    if budget_s == 0.0:
        return TauInterval(math.inf, tau_max, False,
                           "secrecy budget 0 cannot be met with finite jamming")
    bracket = 1.0 + math.log(budget_s / m) / ((n - 1) * math.log(1.0 + gamma_e))
    if bracket <= 0.0:
        return TauInterval(math.inf, tau_max, False,
                           "m exceeds what any threshold can suppress")
    tau_min = 0.0 - math.log(bracket)  # +0.0, not -0.0, when bracket is 1
    if tau_min > tau_max:
        return TauInterval(tau_min, tau_max, False,
                           "secrecy floor exceeds reliability ceiling")
    return TauInterval(tau_min, tau_max, True)


def theorem3_m_max(n: int, gamma_r: float, gamma_e: float,
                   eps_s: float, eps_t: float) -> MBound:
    """Eavesdroppers tolerable under random relay selection and both budgets.

    (1 - sqrt(1 - eps_s)) * (1 + gamma_e)^sqrt(-(n-1) ln(1 - eps_t) / (2 gamma_r)).
    """
    check_at_least("n", n, 1)
    check_positive("gamma_r", gamma_r)
    check_positive("gamma_e", gamma_e)
    check_unit("eps_t", eps_t, open_top=True)
    return _m_bound(per_leg_budget(eps_s), gamma_e,
                    math.sqrt(-(n - 1) * math.log1p(-eps_t) / (2.0 * gamma_r)))


def _m_bound(budget: float, gamma_e: float, exponent: float) -> MBound:
    """budget * (1 + gamma_e)^exponent; math.inf past the largest float, 0 on a 0 budget."""
    if budget == 0.0:
        return MBound(0.0, 0)
    try:
        value = budget * (1.0 + gamma_e) ** exponent
    except OverflowError:
        value = math.inf
    return MBound(value, math.inf if value == math.inf else max(0, math.floor(value)))


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form quantity for one scenario, plus the inputs that produced it."""

    n: int
    m: int
    gamma_r: float
    gamma_e: float
    eps_s: float
    eps_t: float
    m_max_theorem1: MBound
    m_max_theorem3: MBound
    tau_interval: TauInterval
    per_leg_budget_t: float
    per_leg_budget_s: float
    tau_used: float
    expected_jammers: float
    reliability_leg: float
    secrecy_leg: float
    secrecy_leg_vacuous: bool

    def as_dict(self) -> dict:
        iv = self.tau_interval
        return {
            "n": self.n, "m": self.m,
            "gamma_r": self.gamma_r, "gamma_e": self.gamma_e,
            "eps_s": self.eps_s, "eps_t": self.eps_t,
            "m_max_t1": self.m_max_theorem1.value,
            "m_max_t1_floor": self.m_max_theorem1.floor,
            "m_max_t3": self.m_max_theorem3.value,
            "m_max_t3_floor": self.m_max_theorem3.floor,
            "tau_min": iv.tau_min, "tau_max": iv.tau_max,
            "feasible": iv.feasible, "infeasible_reason": iv.reason,
            "per_leg_budget_t": self.per_leg_budget_t,
            "per_leg_budget_s": self.per_leg_budget_s,
            "tau_used": self.tau_used,
            "expected_jammers": self.expected_jammers,
            "reliability_leg": self.reliability_leg,
            "secrecy_leg": self.secrecy_leg,
            "secrecy_leg_vacuous": self.secrecy_leg_vacuous,
        }


def build_bound_report(n: int, m: int, gamma_r: float, gamma_e: float,
                       eps_s: float, eps_t: float,
                       tau: float | None = None) -> BoundReport:
    """Evaluate every bound for one scenario.

    The per-leg intermediates are reported at `tau` when given, otherwise at
    the theorem-2 reliability ceiling tau_max (the operating point theorem 3
    assumes).
    """
    interval = theorem2_tau_range(n, m, gamma_r, gamma_e, eps_s, eps_t)
    tau_used = interval.tau_max if tau is None else tau
    sec_leg = secrecy_leg_bound(n, m, gamma_e, tau_used)
    return BoundReport(
        n=n, m=m, gamma_r=gamma_r, gamma_e=gamma_e, eps_s=eps_s, eps_t=eps_t,
        m_max_theorem1=theorem1_m_max(n, gamma_r, gamma_e, eps_s),
        m_max_theorem3=theorem3_m_max(n, gamma_r, gamma_e, eps_s, eps_t),
        tau_interval=interval,
        per_leg_budget_t=per_leg_budget(eps_t),
        per_leg_budget_s=per_leg_budget(eps_s),
        tau_used=tau_used,
        expected_jammers=expected_jammers(n, tau_used),
        reliability_leg=reliability_leg_bound(n, gamma_r, tau_used),
        secrecy_leg=sec_leg,
        secrecy_leg_vacuous=sec_leg > 1.0,
    )

