"""The jamming-threshold trade-off: reliability worsens as secrecy improves.

Raising tau recruits more jammers: eavesdroppers get buried in interference
(secrecy outage falls) but the legitimate receiver suffers the same noise
(transmission outage rises). This script walks a tau grid and prints the
simulated per-hop outage rates next to their analytic counterparts, plus the
theorem-2 window [tau_min, tau_max] that balances both budgets.

Run: python demos/tau_tradeoff.py       (under a second: 0.3-0.6 s on a 2-vCPU Xeon VM)
"""

import numpy as np

from relaysec import (ProtocolChoice, ScenarioConfig, estimate_outage,
                      eve_intercept_exact, reliability_leg_bound,
                      secrecy_leg_bound, theorem2_tau_range)

N, M = 21, 1
GAMMA_R = GAMMA_E = 1.0
EPS_S = EPS_T = 0.5
TRIALS = 10_000
SEED = 11


def main():
    config = ScenarioConfig(n=N, m=M, gamma_r=GAMMA_R, gamma_e=GAMMA_E,
                            noise_mode="interference-limited")
    window = theorem2_tau_range(N, M, GAMMA_R, GAMMA_E, EPS_S, EPS_T)
    print(f"n={N}, m={M}, interference-limited, {TRIALS} trials per point")
    print(f"theorem-2 window for eps_s=eps_t={EPS_S}: "
          f"[{window.tau_min:.4f}, {window.tau_max:.4f}]"
          if window.feasible else "theorem-2 window: infeasible")
    print(f"{'tau':>6} {'p_t_hop1':>9} {'t_bound':>8} {'p_s_hop1':>9} "
          f"{'eve_exact':>10} {'s_bound':>9}")
    for i, tau in enumerate(np.linspace(0.02, 0.6, 10)):
        protocol = ProtocolChoice(kind="random-uniform", tau_policy="manual",
                                  tau=float(tau))
        est = estimate_outage(config, protocol, TRIALS, SEED + i)
        p_t, p_s = est.proportion("t_hop1").p, est.proportion("s_hop1").p
        print(f"{tau:>6.3f} {p_t:>9.4f} "
              f"{reliability_leg_bound(N, GAMMA_R, float(tau)):>8.4f} "
              f"{p_s:>9.4f} {eve_intercept_exact(N, GAMMA_E, float(tau)):>10.4f} "
              f"{secrecy_leg_bound(N, M, GAMMA_E, float(tau)):>9.4f}")
    print()
    print("p_t rises and p_s falls with tau. eve_exact (the exact per-eavesdropper")
    print("intercept law) tracks p_s_hop1 for m=1; s_bound sits below it because the")
    print("expectation-substituted exponent is optimistic. t_bound is an approximate")
    print("ceiling (Taylor-linearized), loose at small tau.")


if __name__ == "__main__":
    main()
