"""High-level run harness: one call = one configured simulation.

``run_workload`` is the main public entry point::

    from repro.sim import run_workload
    result = run_workload("cachebw", "ordpush", num_cores=16)
    print(result.summary())

Workload names resolve through :mod:`repro.workloads.registry`; any
keyword accepted by :func:`repro.sim.config.make_params` can be passed
through, plus workload sizing keywords (forwarded to the generator).

``run_comparison`` is built on the sweep engine
(:mod:`repro.sim.sweep`): configurations can fan out over worker
processes (``jobs``) and reuse the on-disk result cache (``cache``).

:func:`ensure_warm_states` is the one warm-image builder; the sweep
planner schedules its builds.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.common.params import SystemParams
from repro.sim.config import make_params
from repro.sim.results import SimResult, collect_result
from repro.sim.system import System, parked_gc

_CONFIG_KEYWORDS = frozenset(
    inspect.signature(make_params).parameters) - {"config"}


def split_kwargs(workload: str, kwargs: Dict) -> Tuple[Dict, Dict]:
    """Split mixed keywords into (hardware, workload-sizing) dicts.

    Keywords understood by :func:`make_params` configure the hardware;
    the rest size the workload generator.  Dependence-limited workloads
    get their suggested outstanding-miss window unless the caller set
    one explicitly — the same rule :func:`run_workload` has always
    applied, factored out so the sweep cache hashes the exact
    configuration that will run.
    """
    from repro.workloads.registry import suggested_window

    hw_kwargs: Dict = {}
    wl_kwargs: Dict = {}
    for key, value in kwargs.items():
        if key in _CONFIG_KEYWORDS:
            hw_kwargs[key] = value
        else:
            wl_kwargs[key] = value
    if "max_outstanding" not in hw_kwargs:
        window = suggested_window(workload)
        if window is not None:
            hw_kwargs["max_outstanding"] = window
    return hw_kwargs, wl_kwargs


def resolve_point(workload: str, config: str, num_cores: int,
                  **kwargs) -> Tuple[SystemParams, Dict]:
    """Resolve a simulation point to (hardware params, workload sizes)."""
    hw_kwargs, wl_kwargs = split_kwargs(workload, kwargs)
    params = make_params(config, num_cores=num_cores, **hw_kwargs)
    return params, wl_kwargs


@parked_gc()
def run_system(params: SystemParams, traces: List, workload: str = "custom",
               config: str = "custom",
               max_cycles: int = 100_000_000) -> SimResult:
    """Run explicit traces on an explicit parameter set."""
    system = System(params)
    system.attach_workload(traces)
    cycles = system.run(max_cycles=max_cycles)
    return collect_result(system, workload, config, cycles)


#: how far below the first missing barrier ensure_warm_states probes
#: for a stored ancestor image to chain from (uncounted peek() reads
#: that stop at the first trusted snapshot)
_ANCESTOR_PROBE_LIMIT = 64


@parked_gc()
def ensure_warm_states(workload: str, config: str, params: SystemParams,
                       traces: List, num_cores: int, seed: int,
                       wl_kwargs: Dict, barrier_list: List[int],
                       warmup_mode: str = "detailed",
                       checkpoint=None,
                       max_cycles: int = 100_000_000,
                       force: Sequence[int] = (),
                       chained: bool = True) -> Dict[int, str]:
    """Build every missing warm image for ``barrier_list``; returns
    ``{barriers: checkpoint key}``.

    ``chained=True`` builds region anchors.  The naive way to warm K
    anchors (barriers ``b1 < b2 < ...``) costs ``O(b1 + b2 + ...)``
    simulated warm cycles — each anchor re-runs the shared prefix from
    cold.  This pays ``O(max b)`` once: a single warm system runs
    forward, holding and quiescing at **every** barrier on the way and
    capturing at the missing anchors.  When some prefix is already
    stored it restores the deepest stored ancestor instead of starting
    cold.  The every-barrier hold makes chained images *canonical*:
    each hold drains in-flight traffic, so the image at barrier ``b``
    is the same bytes whether it was captured en route to ``b+5`` or
    chained from a stored ancestor.

    ``chained=False`` builds the *direct* image for one barrier: one
    cold run, held and quiesced only there — the discipline whose
    measured region splices bit-exactly onto the cold run's timeline.
    The two disciplines differ from the third barrier on, which is why
    :func:`~repro.sim.checkpoint.checkpoint_key` keys them apart.

    ``force`` lists barriers to rebuild even when an entry exists — the
    caller saw the stored snapshot fail vetting, or just probed it
    missing.
    """
    from repro.sim.checkpoint import (CheckpointStore, capture_state,
                                      checkpoint_key, restore_system,
                                      warm_params)

    if warmup_mode not in ("detailed", "functional"):
        raise ValueError(f"unknown warmup_mode {warmup_mode!r}")
    params = warm_params(params)
    store = checkpoint if checkpoint is not None else CheckpointStore()

    def key_at(barriers: int) -> str:
        return checkpoint_key(params, workload, num_cores, seed,
                              wl_kwargs, barriers, warmup_mode,
                              chained=chained)

    wanted = sorted(set(barrier_list))
    if not wanted or wanted[0] < 1 or (not chained and len(wanted) > 1):
        raise ValueError(f"barrier list must be >= 1 (one barrier for "
                         f"a direct image): {barrier_list}")
    keys = {barriers: key_at(barriers) for barriers in wanted}
    forced = set(force)
    missing = [barriers for barriers in wanted
               if barriers in forced or not store.has(keys[barriers])]
    if not missing:
        return keys

    warm = System(params, functional_noc=warmup_mode == "functional")
    warm.attach_workload(traces)
    capture, holds = set(missing), missing
    if chained:
        # Chain from the deepest trusted ancestor below the first gap
        # (peek: probes are build internals, not counted lookups).
        start = 0
        floor = max(1, missing[0] - _ANCESTOR_PROBE_LIMIT)
        for barriers in range(missing[0] - 1, floor - 1, -1):
            state = store.peek(key_at(barriers))
            if state is not None:
                restore_system(warm, state)
                start = barriers
                break
        holds = range(start + 1, missing[-1] + 1)
    for barriers in holds:
        warm.run_to_quiesce(barriers, max_cycles=max_cycles)
        if barriers in capture:
            store.put(keys[barriers], capture_state(warm, workload, config))
    return keys


def ensure_warm_state(workload: str, config: str, params: SystemParams,
                      traces: List, num_cores: int, seed: int,
                      wl_kwargs: Dict, warmup_barriers: int,
                      warmup_mode: str = "detailed",
                      checkpoint=None,
                      max_cycles: int = 100_000_000,
                      chained: bool = False) -> Dict:
    """The warm-state snapshot for a point, building it on a store miss.

    Exactly one counted store lookup happens per call, so
    ``store.hits``/``store.misses`` read as one access per logical warm
    phase.  On a miss — including a stored entry that fails vetting
    (corrupt or version-mismatched payloads warn and fall through) —
    :func:`ensure_warm_states` rebuilds the image (``chained`` picks
    its discipline) and overwrites the entry.  Hit or miss, the caller
    restores the returned state into a fresh detailed system, so both
    paths execute identically.
    """
    from repro.sim.checkpoint import CheckpointStore, checkpoint_key

    store = checkpoint if checkpoint is not None else CheckpointStore()
    key = checkpoint_key(params, workload, num_cores, seed, wl_kwargs,
                         warmup_barriers, warmup_mode, chained=chained)
    state = store.get(key)
    if state is not None:
        return state
    ensure_warm_states(workload, config, params, traces, num_cores, seed,
                       wl_kwargs, [warmup_barriers], warmup_mode, store,
                       max_cycles, force=(warmup_barriers,),
                       chained=chained)
    state = store.peek(key)
    if state is None:
        raise SimulationError(
            "warm state vanished between build and restore (store "
            "cleared mid-run?)")
    return state


def run_workload(workload: str, config: str = "baseline",
                 num_cores: int = 16,
                 max_cycles: int = 100_000_000,
                 seed: int = 1,
                 warmup_barriers: int = 0,
                 warmup_mode: str = "detailed",
                 measure_cycles: int = 0,
                 detach_cycles: int = 0,
                 checkpoint=None,
                 **kwargs) -> SimResult:
    """Run a named workload under a named configuration.

    Keyword arguments are split automatically: those understood by
    :func:`make_params` configure the hardware; the rest size the
    workload generator.  Traces are compiled through the trace-buffer
    cache, so repeat runs of the same ``(workload, num_cores, seed,
    sizes)`` point — e.g. a configuration sweep — reuse one compiled
    trace.

    ``warmup_barriers`` > 0 switches to checkpointed execution: the
    warm phase up to that barrier crossing is built once (or loaded
    from the checkpoint store; see :mod:`repro.sim.checkpoint`),
    restored into a fresh detailed system, and only the measured
    region runs in this process.  The result then reports
    measured-region deltas — ``cycles`` is the region length, and every
    counter excludes the warm phase.  ``warmup_mode="functional"``
    builds the warm state on the fixed-latency NoC stand-in, which is
    much faster and shared across topology/link knobs.

    ``measure_cycles`` > 0 (requires ``warmup_barriers`` > 0) caps the
    measured region at that many post-restore cycles — the sampled-
    simulation short region (:mod:`repro.sim.sampling`).  The cut is
    deterministic, in-flight traffic is left undrained, and the result
    is tagged with ``extra["measured_cycles"]``.

    ``detach_cycles`` > 0 (requires ``measure_cycles`` > 0) runs that
    many detailed cycles after the restore *before* measurement starts
    (SMARTS-style detailed warming): the quiesced hold drained all
    in-flight traffic, so the first post-release cycles overshoot
    steady-state throughput, and the detach window lets the pipeline
    and NoC contention re-stagger.  The measured region then covers
    ``[anchor + detach, anchor + detach + measure_cycles]``.
    """
    from repro.workloads.registry import build_trace_buffers

    if measure_cycles < 0:
        raise ValueError(f"measure_cycles must be >= 0: {measure_cycles}")
    if measure_cycles and warmup_barriers <= 0:
        raise ValueError(
            "measure_cycles requires checkpointed execution "
            "(warmup_barriers > 0): a cold region has no anchor cycle")
    if detach_cycles < 0:
        raise ValueError(f"detach_cycles must be >= 0: {detach_cycles}")
    if detach_cycles and not measure_cycles:
        raise ValueError(
            "detach_cycles requires measure_cycles > 0: the detach "
            "window exists to position a bounded sampling region")
    params, wl_kwargs = resolve_point(workload, config, num_cores, **kwargs)
    traces = build_trace_buffers(workload, num_cores=num_cores, seed=seed,
                                 **wl_kwargs)
    if warmup_barriers <= 0:
        return run_system(params, traces, workload=workload, config=config,
                          max_cycles=max_cycles)

    from repro.sim.checkpoint import (measured_result, rebase_measurement,
                                      restore_system)

    state = ensure_warm_state(workload, config, params, traces,
                              num_cores, seed, wl_kwargs, warmup_barriers,
                              warmup_mode, checkpoint, max_cycles,
                              chained=measure_cycles > 0)
    # Parked apart from the warm build, which frees its own System
    # before this one is made.
    with parked_gc():
        system = System(params)
        system.attach_workload(traces)
        restore_at = restore_system(system, state)
        region_start = restore_at + detach_cycles
        if detach_cycles:
            reached = system.run(max_cycles=max_cycles,
                                 stop_at=region_start)
            if reached < region_start:
                raise SimulationError(
                    f"workload finished at cycle {reached}, inside the "
                    f"{detach_cycles}-cycle detach window from anchor "
                    f"{restore_at} — shrink detach_cycles or use an "
                    f"earlier anchor")
            state = rebase_measurement(state, system, workload, config)
        stop_at = region_start + measure_cycles if measure_cycles else None
        finish = system.run(max_cycles=max_cycles, stop_at=stop_at)
        result = measured_result(system, workload, config, finish, state,
                                 warmup_barriers, warmup_mode)
        del system  # dead before the park's closing collection
    if measure_cycles:
        result.extra["measured_cycles"] = measure_cycles
        if detach_cycles:
            result.extra["detach_cycles"] = detach_cycles
    return result


def run_comparison(workload: str, configs: List[str],
                   num_cores: int = 16, seed: int = 1,
                   jobs: int = 1, cache=False,
                   max_cycles: int = 100_000_000,
                   warmup_barriers: int = 0,
                   warmup_mode: str = "detailed",
                   progress=None,
                   **kwargs) -> Dict[str, SimResult]:
    """Run one workload under several configurations.

    ``jobs`` > 1 fans the configurations out over worker processes
    (``0`` = one per CPU); ``cache`` enables the on-disk result cache
    (pass ``True`` for the default location, or a
    :class:`~repro.sim.sweep.ResultCache`).  Results are identical to
    serial execution for the same seed.
    ``warmup_barriers``/``warmup_mode`` enable checkpointed warmup:
    each config's warm state is built once and the measured regions
    fork from it (see :func:`run_workload`).  ``progress`` is the
    per-point callback :func:`~repro.sim.sweep.run_sweep` documents.
    """
    from repro.sim.sweep import SweepPoint, run_sweep

    points = [SweepPoint.make(workload, config, num_cores=num_cores,
                              seed=seed, max_cycles=max_cycles,
                              warmup_barriers=warmup_barriers,
                              warmup_mode=warmup_mode, **kwargs)
              for config in configs]
    results = run_sweep(points, jobs=jobs, cache=cache, progress=progress)
    return dict(zip(configs, results))
