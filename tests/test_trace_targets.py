"""Every function the benchmark tracer names still exists in the library.

The tracer reports a target it cannot resolve as None rather than failing,
so a deleted or renamed target shows up only as `null` per-layer metrics on
a traced benchmark run's last line. This test fails on it instead.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", sorted(tracer.NAMED_TARGETS))
def test_named_target_resolves(name):
    assert tracer._resolve(tracer.NAMED_TARGETS[name]) is not None
