"""The cyclic collector is parked for a System's whole life.

A :class:`~repro.sim.system.System` is one big reference cycle.  If a
collection fires while it is alive it is promoted to an older
generation, and once dead it waits for a full collection, so dead
Systems pile up between points.  The runner entries park the collector
from construction to last use and free the System on the way out:
these tests count live Systems at every construction, and check that
the caller's collector setting survives every exit.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.sim import system as system_mod
from repro.sim.config import bench_kwargs
from repro.sim.runner import run_workload
from repro.sim.sampling import SamplingPolicy, run_sampled_grid
from repro.sim.sweep import SweepPoint, reset_worker_memo, run_sweep
from repro.sim.system import parked_gc

SIZES = dict(array_lines=256, iters=2, **bench_kwargs())

#: the interpreter's default young-generation threshold, and one a
#: tuned application might set: the free must not depend on either
THRESHOLDS = (700, 100_000)


@pytest.fixture
def live_counts(monkeypatch, tmp_path):
    """Record, at every System construction, how many Systems made
    before it are still alive (through weakrefs taken in
    ``System.__init__``).  Each test starts from an empty store and
    warm-image memo, so every warm image is built."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_worker_memo()
    gc.collect()
    made, counts = [], []
    init = system_mod.System.__init__

    def counting_init(self, *args, **kwargs) -> None:
        counts.append(sum(1 for ref in made if ref() is not None))
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(system_mod.System, "__init__", counting_init)
    return counts


@pytest.fixture(params=THRESHOLDS)
def gc_threshold(request):
    saved = gc.get_threshold()
    gc.set_threshold(request.param, *saved[1:])
    yield request.param
    gc.set_threshold(*saved)


def _cold(config: str, seed: int = 1) -> SweepPoint:
    return SweepPoint.make("cachebw", config, num_cores=4, seed=seed,
                           **SIZES)


class TestOneSystemAlive:
    """No System made earlier is alive when the next one is made."""

    def test_run_workload_calls(self, live_counts, gc_threshold) -> None:
        for config in ("baseline", "ordpush", "pushack", "baseline"):
            run_workload("cachebw", config, num_cores=4, **SIZES)
        assert live_counts == [0] * 4

    def test_sweep_cold_and_warm_restored(self, live_counts,
                                          gc_threshold) -> None:
        warm = [SweepPoint.make("cachebw", "ordpush", num_cores=4, seed=1,
                                topology=topology, warmup_barriers=1,
                                warmup_mode="functional", **SIZES)
                for topology in ("mesh", "torus", "cmesh")]
        run_sweep([_cold("baseline"), _cold("ordpush")] + warm, jobs=1,
                  cache=False)
        # two cold runs, one warm build, three restored regions
        assert live_counts == [0] * 6

    def test_sampled_grid_functional_warmup(self, live_counts,
                                            gc_threshold) -> None:
        points = [SweepPoint.make("cachebw", config, num_cores=4, seed=1,
                                  **dict(SIZES, iters=6))
                  for config in ("baseline", "ordpush")]
        policy = SamplingPolicy(samples=2, sample_cycles=500,
                                warmup_mode="functional")
        run_sampled_grid(points, policy, jobs=1, cache=False)
        # one chained warm build per scheme, then two regions each
        assert live_counts == [0] * 6


class TestCollectorStateRestored:
    """The caller's collector setting survives every exit."""

    def test_nested_parks_do_nothing(self) -> None:
        assert gc.isenabled()
        with parked_gc():
            assert not gc.isenabled()
            with parked_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_on_after_a_run_that_raises(self) -> None:
        assert gc.isenabled()
        with pytest.raises(SimulationError, match="max_cycles"):
            run_workload("cachebw", "ordpush", num_cores=4, max_cycles=50,
                         **SIZES)
        assert gc.isenabled()

    def test_on_after_a_warm_build_that_raises(self) -> None:
        assert gc.isenabled()
        with pytest.raises(ConfigError, match="before warmup barrier"):
            run_workload("cachebw", "ordpush", num_cores=4,
                         warmup_barriers=1000, warmup_mode="functional",
                         **SIZES)
        assert gc.isenabled()

    def test_caller_turned_off_stays_off(self) -> None:
        gc.disable()
        try:
            run_workload("cachebw", "ordpush", num_cores=4, **SIZES)
            with parked_gc():
                pass
            assert not gc.isenabled()
        finally:
            gc.enable()
