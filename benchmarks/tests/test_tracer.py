"""The tracer's behaviour when targets change, and its worker-side spans."""

import multiprocessing

import pytest

import relaysec
from relaysec import ProtocolChoice, ScenarioConfig, montecarlo
from tracer import NAMED_TARGETS, Tracer

CONFIG = ScenarioConfig(n=11, m=2, gamma_r=1.0, gamma_e=1.0)
PROTOCOL = ProtocolChoice(kind="random-uniform", tau_policy="manual", tau=0.2)


def traced(tmp_path, targets, work):
    tracer = Tracer(tmp_path / "spool", named_targets=targets)
    tracer.install()
    try:
        work()
    finally:
        tracer.uninstall()
    return tracer


def test_missing_target_is_reported_as_none(tmp_path):
    targets = dict(NAMED_TARGETS, **{"channel.gone": "channel:no_such_function",
                                     "protocols.gone": "protocols:NoSuchClass.method",
                                     "nolayer.gone": "no_such_module:f"})
    tracer = traced(tmp_path, targets,
                    lambda: relaysec.montecarlo.estimate_outage(CONFIG, PROTOCOL, 20, 1))
    metrics = tracer.layer_metrics(wall_s=1.0, passes=1)
    assert tracer.missing == {"channel.gone", "protocols.gone", "nolayer.gone"}
    for name in ("channel.gone", "protocols.gone", "nolayer.gone"):
        assert metrics[f"{name}.self_s"] is None and metrics[f"{name}.calls"] is None
    assert metrics["protocols.resolve_tau.calls"] == 21  # trials + 1


def test_counters_of_a_missing_target_are_none(tmp_path):
    targets = {k: v for k, v in NAMED_TARGETS.items() if k != "channel.sample_realization"}
    targets["channel.sample_realization"] = "channel:sample_realization_v2"
    tracer = traced(tmp_path, targets,
                    lambda: relaysec.montecarlo.estimate_outage(CONFIG, PROTOCOL, 5, 1))
    metrics = tracer.layer_metrics(wall_s=1.0, passes=1)
    assert metrics["channel.gains_drawn"] is None
    assert metrics["channel.sample_realization.self_s"] is None


def test_uninstall_restores_every_attribute(tmp_path):
    before = (montecarlo.sample_realization, relaysec.protocols.sinr,
              relaysec.channel.ChannelRealization.gains_to_relay, montecarlo.ProcessPoolExecutor)
    traced(tmp_path, NAMED_TARGETS, lambda: None)
    after = (montecarlo.sample_realization, relaysec.protocols.sinr,
             relaysec.channel.ChannelRealization.gains_to_relay, montecarlo.ProcessPoolExecutor)
    assert before == after


def test_counts_and_self_time(tmp_path):
    trials = 30
    tracer = traced(tmp_path, NAMED_TARGETS,
                    lambda: relaysec.montecarlo.estimate_outage(CONFIG, PROTOCOL, trials, 3))
    m = tracer.layer_metrics(wall_s=1.0, passes=1)
    assert m["channel.sample_realization.calls"] == trials
    n, k = CONFIG.n, CONFIG.m
    assert m["channel.gains_drawn"] == trials * (2 * n + n * (n - 1) // 2 + 1 + k + n * k)
    assert m["protocols.jammer_set.calls"] == 2 * trials
    assert m["montecarlo.pools_created"] == 0
    assert 0 < m["montecarlo.run_trials.self_s"] < m["trace.coverage"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="worker spans need forked workers")
def test_worker_spans_are_merged(tmp_path):
    trials = 40
    tracer = traced(tmp_path, NAMED_TARGETS, lambda: relaysec.montecarlo.estimate_outage(
        CONFIG, PROTOCOL, trials, 5, workers=2))
    m = tracer.layer_metrics(wall_s=1.0, passes=1)
    assert m["montecarlo.pools_created"] == 1
    assert m["montecarlo.run_trials.calls"] == 2
    assert m["channel.sample_realization.calls"] == trials
    assert m["montecarlo.worker_busy_s"] > 0
    assert m["montecarlo.pool_wait_s"] > 0
    assert len(list((tmp_path / "spool").glob("*.jsonl"))) >= 1
