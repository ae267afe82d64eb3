"""Row checks: each states what its estimate must be and refuses any other."""

import pytest

from relaysec import ProtocolChoice, ScenarioConfig, estimate_outage
from relaysec.validation import intercept_check, jammer_check, leg_checks

PROTOCOL = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.3)


def estimate(noise_mode="interference-limited", m=1, legs="shared"):
    config = ScenarioConfig(n=11, m=m, gamma_r=1.0, gamma_e=1.0, noise_mode=noise_mode)
    return estimate_outage(config, PROTOCOL, 2000, 5, legs=legs)


@pytest.mark.parametrize("setting", [{"noise_mode": "exact"}, {"m": 0}],
                         ids=["exact_noise", "no_eavesdropper"])
def test_intercept_check_needs_interference_limited_eavesdroppers(setting):
    with pytest.raises(ValueError, match="interference-limited"):
        intercept_check(estimate(**setting))


def test_leg_checks_need_independent_legs():
    with pytest.raises(ValueError, match="independent legs"):
        leg_checks(estimate())


def test_rows_read_tau_from_the_estimate():
    shared, independent = estimate(), estimate(legs="independent")
    assert jammer_check(shared).name == "jammer_count(n=11, tau=0.3)"
    assert intercept_check(shared).name == "eve_intercept_exact(n=11, tau=0.3)"
    assert [r.name for r in leg_checks(independent)] == [
        "leg_combining(t, independent legs)", "leg_combining(s, independent legs)"]
    # the jammer count holds in any noise mode and leg mode
    assert jammer_check(estimate(noise_mode="exact", legs="independent")).passed
