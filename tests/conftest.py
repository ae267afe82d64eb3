"""Fixtures shared by the test modules."""

import functools
from concurrent.futures import ProcessPoolExecutor

import pytest

from relaysec import channel, montecarlo


def _set_cap_margin(sigmas, pad):
    channel._CAP_SIGMAS, channel._CAP_PAD = sigmas, pad


@pytest.fixture
def small_cap(monkeypatch):
    """cap = ceil((n - 1) p), no margin over the mean, so about half the counts pass it.

    Set here and in every worker of a pool that a run starts: each worker
    sets it in its initializer, so it holds whether the pool forks, spawns or
    uses a fork server.
    """
    monkeypatch.setattr(channel, "_CAP_SIGMAS", 0)
    monkeypatch.setattr(channel, "_CAP_PAD", 0)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor",
                        functools.partial(ProcessPoolExecutor, initializer=_set_cap_margin,
                                          initargs=(0, 0)))
