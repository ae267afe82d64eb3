"""Exact reference values the benchmark gates relaysec's outputs against.

Random-uniform selection picks its relay independently of every gain, so
its outages have closed forms. With p = 1 - e^{-tau}, each hop's jammer
count is K ~ Bin(n-1, p), and a receiver with threshold g sees the noise
factor e^{-c} with c = g * N0 / (2 * Es) (c = 0 in interference-limited
mode):

* transmission, per hop:  P_t = 1 - e^{-c} (e^{-tau} + (1 - e^{-(1+g_r) tau}) / (1+g_r))^{n-1}
  (a jammer's gain to the receiver is the very gain that was thresholded);
* secrecy, per hop, m eavesdroppers sharing one jammer set:
  P_s = 1 - E_K[(1 - e^{-c} (1+g_e)^{-K})^m];
* end to end, transmission in both leg modes (the hops read disjoint
  gains) and secrecy in independent-legs mode: p1 + p2 - p1 p2.

The max-min rule has no closed form here; its rows get structural checks.
The theorem formulas are written out again from the paper, independently of
relaysec.bounds, so a sweep's bound columns are checked against a second
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Two-sided tail of a 6-sigma normal gate is ~2e-9, so a correct program
# fails one gate in ~10^8 even over the thousands of gates a run evaluates.
GATE_Z = 6.0
Z95 = 1.959963984540054  # two-sided 95% normal quantile, as in relaysec's Wilson intervals


@dataclass(frozen=True)
class Scenario:
    """The inputs the closed forms depend on."""

    n: int
    tau: float
    gamma_r: float
    gamma_e: float
    es: float = 1.0
    n0: float = 1.0
    interference_limited: bool = False

    def noise_c(self, gamma: float) -> float:
        return 0.0 if self.interference_limited else gamma * self.n0 / (2.0 * self.es)


def binom_pmf(trials: int, p: float) -> list[float]:
    """Bin(trials, p) probabilities for k = 0..trials, computed in log space."""
    if p <= 0.0:
        return [1.0] + [0.0] * trials
    if p >= 1.0:
        return [0.0] * trials + [1.0]
    lp, lq = math.log(p), math.log1p(-p)
    lg = math.lgamma(trials + 1)
    return [math.exp(lg - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                     + k * lp + (trials - k) * lq) for k in range(trials + 1)]


def combine(p1: float, p2: float) -> float:
    return p1 + p2 - p1 * p2


def p_t_hop(s: Scenario) -> float:
    """Exact per-hop transmission outage under random-uniform selection."""
    g = s.gamma_r
    per_relay = math.exp(-s.tau) + -math.expm1(-(1.0 + g) * s.tau) / (1.0 + g)
    return 1.0 - math.exp(-s.noise_c(g)) * per_relay ** (s.n - 1)


def p_s_hop(s: Scenario, m: int) -> float:
    """Exact per-hop secrecy outage with m eavesdroppers under random-uniform selection."""
    if m == 0:
        return 0.0
    noise = math.exp(-s.noise_c(s.gamma_e))
    pmf = binom_pmf(s.n - 1, -math.expm1(-s.tau))
    inv = 1.0 / (1.0 + s.gamma_e)
    return 1.0 - math.fsum(w * (1.0 - noise * inv ** k) ** m for k, w in enumerate(pmf))


def p_t_e2e(s: Scenario) -> float:
    """Exact end-to-end transmission outage, both leg modes."""
    p = p_t_hop(s)
    return combine(p, p)


def p_s_e2e_independent(s: Scenario, m: int) -> float:
    """Exact end-to-end secrecy outage in independent-legs mode."""
    p = p_s_hop(s, m)
    return combine(p, p)


def exact_tolerance(s: Scenario, eps_s: float, m_cap: int) -> int:
    """Largest m <= m_cap whose independent-legs secrecy outage is at most eps_s (0 if none)."""
    best = 0
    for m in range(1, m_cap + 1):
        if p_s_e2e_independent(s, m) > eps_s:
            break
        best = m
    return best


def binomial_sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def within_gate(successes: int, trials: int, exact: float, z: float = GATE_Z) -> bool:
    """Whether an observed count is consistent with an exact probability.

    The band is z binomial standard deviations plus z/trials of slack, which
    keeps the normal approximation safe when the exact value sits near 0 or 1.
    """
    return abs(successes / trials - exact) <= z * binomial_sigma(exact, trials) + z / trials



def wilson(p_hat: float, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval at an observed proportion p_hat (clamped to [0, 1])."""
    p = min(1.0, max(0.0, p_hat))
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return center - half, center + half


def wilson_half_width(successes: int, trials: int) -> float:
    lo, hi = wilson(successes / trials, trials)
    return (hi - lo) / 2.0


def wilson_upper_band(exact: float, trials: int, z: float = GATE_Z) -> tuple[float, float]:
    """Range the Wilson upper bound of an estimate of `exact` falls in, with z-sigma confidence."""
    slack = z * binomial_sigma(exact, trials) + z / trials
    return wilson(exact - slack, trials)[1], wilson(exact + slack, trials)[1]


def tolerance_window(p_s_e2e: list[float], eps_s: float, trials: int) -> tuple[int, int]:
    """Answers a correct Wilson-upper-bound tolerance search can return.

    `p_s_e2e[m]` is the exact secrecy outage with m eavesdroppers. A probe
    passes when its Wilson upper bound is at most eps_s. Every m up to m_lo
    passes with near certainty, so the search's first failing probe lies
    above it and its answer is at least m_lo; no m above m_hi can pass, so
    the answer is at most m_hi.
    """
    m_lo = 0
    for m in range(1, len(p_s_e2e)):
        if wilson_upper_band(p_s_e2e[m], trials)[1] > eps_s:
            break
        m_lo = m
    m_hi = max((m for m in range(1, len(p_s_e2e))
                if wilson_upper_band(p_s_e2e[m], trials)[0] <= eps_s), default=0)
    return m_lo, m_hi


def theorem1_m_max(n: int, gamma_r: float, gamma_e: float, eps_s: float) -> float:
    """Max-min tolerance (1 - sqrt(1-eps_s)) (1+g_e)^sqrt(n ln n / (32 g_r))."""
    return (1.0 - math.sqrt(1.0 - eps_s)) * (1.0 + gamma_e) ** math.sqrt(
        n * math.log(n) / (32.0 * gamma_r))


def theorem3_m_max(n: int, gamma_r: float, gamma_e: float, eps_s: float, eps_t: float) -> float:
    """Random-selection tolerance (1 - sqrt(1-eps_s)) (1+g_e)^sqrt(-(n-1) ln(1-eps_t) / (2 g_r))."""
    return (1.0 - math.sqrt(1.0 - eps_s)) * (1.0 + gamma_e) ** math.sqrt(
        -(n - 1) * math.log(1.0 - eps_t) / (2.0 * gamma_r))


def theorem2_window(n: int, m: int, gamma_r: float, gamma_e: float,
                    eps_s: float, eps_t: float) -> tuple[float, float]:
    """(tau_min, tau_max) of theorem 2 for n >= 2, m >= 1 and a positive bracket."""
    budget = 1.0 - math.sqrt(1.0 - eps_s)
    tau_max = math.sqrt(-math.log(1.0 - eps_t) / (2.0 * gamma_r * (n - 1)))
    bracket = 1.0 + math.log(budget / m) / ((n - 1) * math.log(1.0 + gamma_e))
    return -math.log(bracket), tau_max


def chi2_mean_gate(stats: list[float], cells: int, draws: int, z: float = 8.0) -> bool:
    """Whether Pearson statistics of uniform draws over `cells` cells have the right mean.

    Each statistic comes from `draws` uniform draws; its exact mean is
    cells - 1 and its exact variance 2 (cells - 1)(1 - 1/draws). The gate is
    on the mean of the pooled statistics; z = 8 leaves room for the skew of
    the statistic when draws are few per cell.
    """
    k = len(stats)
    var = 2.0 * (cells - 1) * (1.0 - 1.0 / draws)
    return abs(math.fsum(stats) / k - (cells - 1)) <= z * math.sqrt(var / k)
