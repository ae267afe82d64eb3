"""How tight are the closed-form eavesdropper-tolerance bounds?

For a few network sizes this script evaluates every closed-form quantity,
then simulates the random-selection protocol at the reliability-limited
jamming threshold and reads, from one run, the eavesdropper count the
network can actually tolerate. The closed-form tolerance uses an
expectation-substituted (Jensen) secrecy step and a Taylor-linearized
reliability step, so it is systematically optimistic; the table makes that
gap visible.

Run: python demos/bounds_vs_simulation.py       (under a second: 0.4-0.6 s on a 2-vCPU Xeon VM)
"""

from relaysec import (ProtocolChoice, ScenarioConfig, build_bound_report,
                      estimate_outage, tolerance_search)

EPS_S = EPS_T = 0.3
GAMMA_R = GAMMA_E = 1.0
TRIALS = 20_000
SEED = 7


def main():
    print(f"budgets: eps_s = eps_t = {EPS_S}; thresholds: gamma_r = gamma_e = 1")
    print(f"protocol: random selection, tau at the theorem-2 reliability ceiling")
    print(f"{'n':>5} {'tau_max':>9} {'m_max_t1':>9} {'m_max_t3':>9} "
          f"{'m_empirical':>12} {'p_s_e2e@m_t3':>13}")
    for n in (21, 51, 101):
        report = build_bound_report(n, 1, GAMMA_R, GAMMA_E, EPS_S, EPS_T)
        tau = report.tau_interval.tau_max
        config = ScenarioConfig(n=n, m=1, gamma_r=GAMMA_R, gamma_e=GAMMA_E,
                                noise_mode="interference-limited",
                                eps_s=EPS_S, eps_t=EPS_T)
        protocol = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=tau)

        found = tolerance_search(config, protocol, EPS_S, TRIALS,
                                 m_cap=64, seed=SEED)

        # what the secrecy outage actually is at the closed-form tolerance
        m_t3 = max(1, report.m_max_theorem3.floor)
        at_claim = estimate_outage(
            ScenarioConfig(n=n, m=m_t3, gamma_r=GAMMA_R, gamma_e=GAMMA_E,
                           noise_mode="interference-limited"),
            protocol, TRIALS, SEED)
        print(f"{n:>5} {tau:>9.5f} {report.m_max_theorem1.floor:>9} "
              f"{report.m_max_theorem3.floor:>9} {found.m_max:>12} "
              f"{at_claim.proportion('s_e2e').p:>13.4f}")
    print()
    print("m_max_t1/t3: closed-form tolerances (max-min / random selection)")
    print("m_empirical: largest m whose simulated secrecy outage stays within the")
    print("budget (Wilson upper bound). Where p_s_e2e at the closed-form tolerance")
    print("exceeds the 0.3 budget, the optimistic Jensen step is doing the damage.")


if __name__ == "__main__":
    main()
