"""Coherence fast path: batched stepping must be invisible in the stats.

The :mod:`repro.cpu.fastpath` stepper retires clean private-cache hits
in bulk instead of one scheduler event per access.  It is an
*optimization*, not an approximation, so the whole ``StatGroup`` tree —
every counter in every ``core*``/``l2_*``/``llc_*``/network group,
including the LRU-dependent eviction counters and the per-core
``window_stalls`` that only move if issue timing is exact — must be
bit-identical with the fast path on and forced off (``set_fastpath``).
"""

from __future__ import annotations

import pytest

from repro.cpu.fastpath import fastpath_enabled, set_fastpath
from repro.sim.config import bench_kwargs, make_params
from repro.sim.system import System
from repro.workloads.registry import build_trace_buffers

#: every named scheme from the paper's comparison matrix (§IV); baseline
#: carries the stride prefetcher, which makes the system decline the
#: fast path entirely — included to pin down that self-disable too
SCHEMES = ("baseline", "noprefetch", "coalesce", "msp", "pushack",
           "ordpush")

#: 16-core L2-resident shape: second iteration is all private hits, so
#: the batched walk actually retires the bulk of the accesses
POINT = dict(workload="cachebw", num_cores=16, seed=1,
             array_lines=256, iters=3)

#: a 128-core array-engine point: the walk must stay exact on the
#: largest fabrics too, where many cores step in the same bucket
POINT_128C = dict(workload="cachebw", num_cores=128, seed=1,
                  array_lines=256, iters=2, engine="array")


@pytest.fixture(autouse=True)
def _restore_fastpath():
    """Leave the process-wide fast-path switch as we found it."""
    enabled = fastpath_enabled()
    yield
    set_fastpath(enabled)


def _stat_tree(config: str, point: dict = POINT) -> dict:
    """Full stats snapshot for one run: every counter + histogram."""
    params = make_params(config, num_cores=point["num_cores"],
                         engine=point.get("engine", "event"),
                         **bench_kwargs())
    traces = build_trace_buffers(point["workload"],
                                 num_cores=point["num_cores"],
                                 seed=point["seed"],
                                 array_lines=point["array_lines"],
                                 iters=point["iters"])
    system = System(params)
    system.attach_workload(traces)
    cycles = system.run(max_cycles=5_000_000)
    snapshot = {"cycles": cycles, "counters": system.stats.flatten(),
                "stepped": system._stepper is not None}
    _collect_histograms(system.stats, "", snapshot.setdefault("hists", {}))
    return snapshot


def _collect_histograms(group, prefix: str, out: dict) -> None:
    base = f"{prefix}{group.name}"
    for key, hist in group.histograms().items():
        out[f"{base}.{key}"] = (hist.count, hist.total, hist.overflow,
                                tuple(hist.buckets))
    for child in group.children():
        _collect_histograms(child, f"{base}.", out)


def _assert_identical(config: str, point: dict = POINT) -> dict:
    """Fast-on vs forced-off stat trees must match; returns the fast one."""
    set_fastpath(True)
    fast = _stat_tree(config, point)
    set_fastpath(False)
    scalar = _stat_tree(config, point)

    assert fast["cycles"] == scalar["cycles"]
    assert fast["hists"] == scalar["hists"]
    mismatched = {key: (fast["counters"][key], value)
                  for key, value in scalar["counters"].items()
                  if fast["counters"].get(key) != value}
    assert not mismatched, (
        f"{config}: fast path diverged on {sorted(mismatched)}: "
        f"{mismatched}")
    assert set(fast["counters"]) == set(scalar["counters"])
    return fast


@pytest.mark.parametrize("config", SCHEMES)
def test_stat_tree_bit_identical(config: str) -> None:
    _assert_identical(config)


def test_stat_tree_bit_identical_128c_array() -> None:
    fast = _assert_identical("ordpush", POINT_128C)
    assert fast["stepped"]  # not vacuous: the batched stepper ran


def test_window_stall_counter_moves_on_this_point() -> None:
    """The equality above must not be vacuous: the point has to exercise
    the timing-sensitive counters the fast path replays inline."""
    set_fastpath(True)
    counters = _stat_tree("noprefetch")["counters"]
    stalls = sum(value for key, value in counters.items()
                 if key.endswith(".window_stalls"))
    hits = sum(value for key, value in counters.items()
               if key.endswith(".l2_hits"))
    assert stalls > 0
    assert hits > 0


def test_set_fastpath_switch_round_trips() -> None:
    set_fastpath(False)
    assert not fastpath_enabled()
    set_fastpath(True)
    assert fastpath_enabled()
