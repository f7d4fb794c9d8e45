"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.common.params import NoCParams
from repro.common.scheduler import Scheduler
from repro.noc.network import Network


def pytest_collection_modifyitems(items) -> None:
    """Tag every tier-1 test with the ``quick`` marker."""
    for item in items:
        item.add_marker(pytest.mark.quick)


@pytest.fixture(autouse=True, scope="session")
def _session_store(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a store private to this session, so
    no test reads or writes the checkout's ``.repro_cache/`` (and no
    golden test replays an entry other code wrote).  A test's own
    ``monkeypatch.setenv`` still wins for that test."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("store")))
        yield


@pytest.fixture
def many_cpus(monkeypatch) -> int:
    """Report 8 CPUs, so a sweep launches the multi-worker pool it asks
    for: the executor caps workers at the CPU count and would run
    in-process on a small machine."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    return 8


@pytest.fixture
def scheduler() -> Scheduler:
    return Scheduler()


@pytest.fixture
def small_net(scheduler: Scheduler) -> Network:
    """A 2x2 mesh network with filtering off."""
    return Network(NoCParams(rows=2, cols=2), scheduler)


@pytest.fixture
def mesh4_net(scheduler: Scheduler) -> Network:
    """A 4x4 mesh network with filtering on (push-multicast setup)."""
    return Network(NoCParams(rows=4, cols=4), scheduler,
                   filter_enabled=True, ordered_pushes=True)


def drain(network: Network, limit: int = 100_000) -> int:
    """Run the network until empty; returns the cycle it drained at."""
    scheduler = network.scheduler
    cycle = scheduler.now
    while network.active or scheduler.pending:
        cycle += 1
        if cycle > limit:
            raise AssertionError("network failed to drain")
        scheduler.run_due(cycle)
        network.tick(cycle)
    return cycle
