"""Parallel sweep execution with streaming commits.

Every figure in the paper is a sweep over independent
``(workload, config, num_cores, seed)`` simulation points, so the sweep
engine exploits the structure those grids share:

* points are embarrassingly parallel — :func:`run_sweep` fans uncached
  points out over a :class:`ProcessPoolExecutor` that the sweep opens
  and always closes before it returns or raises, so no worker outlives
  the sweep or serves one whose environment it never saw;
* many sweeps share points (every figure normalizes to the same
  baseline runs) — results are cached on disk, keyed by a stable hash
  of everything that determines the outcome, and duplicate submissions
  in one sweep are simulated once;
* points sharing a warm-state image are **affinity-batched**: one
  worker restores the image once and serves the whole batch from an
  in-process memo of parsed snapshots (and compiled trace buffers),
  instead of every worker re-gunzipping the same multi-megabyte
  checkpoint per point;
* the planner schedules every warm build — a missing image that a
  split warm group needs, and the missing anchors of each sampled
  chain, built in one pass — as its own task that unblocks only the
  chunks restoring its images, so independent points start
  immediately instead of barriering behind every warm build;
* chunks dispatch in submission order, and completed results
  **stream back and commit incrementally**, so an interrupted sweep
  resumes from the points already committed instead of losing
  everything.

Cache key
---------

A point's key is the SHA-256 of a canonical JSON document containing:

* the full resolved :class:`~repro.common.params.SystemParams`
  (``dataclasses.asdict``, sorted keys) — any hardware knob change,
  including defaults applied by ``make_params``, changes the key;
* the workload spec: name, core count, seed, and sizing keywords;
* ``max_cycles``; and
* :data:`~repro.store.RESULT_SCHEMA_VERSION` — bump it whenever
  simulator semantics change so stale results can never be replayed.

Results round-trip through :meth:`SimResult.to_dict` / ``from_dict``
as JSON payloads in the unified content-addressed store
(:mod:`repro.store`) under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable).  Corrupt or unreadable
entries are treated as misses.

Determinism
-----------

Workers receive the full point spec and rebuild params and traces from
the seed, so a sweep's results are bit-identical to serial execution
regardless of ``jobs``, scheduling order, or memo state;
:func:`run_sweep` returns results in submission order.  The in-process
memos only short-circuit *reads* of immutable content-addressed data
(parsed warm snapshots, compiled trace buffers), never simulation
state.

Worker-count policy: ``jobs=0`` (or None) means one worker per CPU,
and the executor never runs more workers than CPUs (or than pending
points) — oversubscribing a small machine costs real wall time.  A
single effective worker runs in-process with no pool at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.sim.results import SimResult
from repro.store import RESULT_SCHEMA_VERSION, Store, cache_root

#: Hard cap on points per scheduled chunk: keeps one straggling chunk
#: from serializing a large warm-affinity group.
_CHUNK_CAP = 16

#: Parsed warm snapshots kept per worker (each can be tens of MB).
_CKPT_MEMO_LIMIT = 4


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep.

    ``kwargs`` holds the mixed hardware/workload keywords exactly as a
    caller would pass them to ``run_workload``, as a sorted tuple of
    pairs so points are hashable and order-insensitive.
    """

    workload: str
    config: str = "baseline"
    num_cores: int = 16
    seed: int = 1
    max_cycles: int = 100_000_000
    kwargs: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    #: > 0 enables checkpointed warmup: warm to this barrier crossing,
    #: then measure (the result reports measured-region deltas)
    warmup_barriers: int = 0
    #: warm-phase fidelity: "detailed" or "functional"
    warmup_mode: str = "detailed"
    #: > 0 caps the measured region at this many post-restore cycles —
    #: a sampled-simulation short region (:mod:`repro.sim.sampling`)
    measure_cycles: int = 0
    #: > 0 runs this many detailed cycles between restore and
    #: measurement (SMARTS-style detailed warming / detach window)
    detach_cycles: int = 0

    @classmethod
    def make(cls, workload: str, config: str = "baseline",
             num_cores: int = 16, seed: int = 1,
             max_cycles: int = 100_000_000,
             warmup_barriers: int = 0,
             warmup_mode: str = "detailed",
             measure_cycles: int = 0,
             detach_cycles: int = 0, **kwargs) -> "SweepPoint":
        """Build a point from plain keyword arguments."""
        return cls(workload=workload, config=config, num_cores=num_cores,
                   seed=seed, max_cycles=max_cycles,
                   kwargs=tuple(sorted(kwargs.items())),
                   warmup_barriers=warmup_barriers,
                   warmup_mode=warmup_mode,
                   measure_cycles=measure_cycles,
                   detach_cycles=detach_cycles)

    def label(self) -> str:
        topology = dict(self.kwargs).get("topology", "mesh")
        suffix = "" if topology == "mesh" else f"/{topology}"
        return (f"{self.workload}/{self.config}/"
                f"{self.num_cores}c/s{self.seed}{suffix}")


def derive_seed(base_seed: int, index: int) -> int:
    """A deterministic, well-spread per-point seed for repetition sweeps.

    Uses an LCG-style mix so ``(base, 0), (base, 1), ...`` and
    ``(base+1, 0), ...`` never collide in practice; the same inputs
    always give the same seed on every platform and Python version.
    """
    return ((base_seed * 1_000_003 + index * 7_919 + 12_345)
            & 0x7FFF_FFFF) or 1


def expand_seeds(point: SweepPoint, num_seeds: int) -> List[SweepPoint]:
    """Replicate one point across ``num_seeds`` derived seeds."""
    return [SweepPoint(point.workload, point.config, point.num_cores,
                       derive_seed(point.seed, index), point.max_cycles,
                       point.kwargs, point.warmup_barriers,
                       point.warmup_mode, point.measure_cycles,
                       point.detach_cycles)
            for index in range(num_seeds)]


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def _point_spec(point: SweepPoint) -> Dict:
    """The canonical spec document a point's keys are hashed from."""
    from repro.sim.runner import resolve_point

    params, wl_kwargs = resolve_point(
        point.workload, point.config, point.num_cores,
        **dict(point.kwargs))
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "params": asdict(params),
        "workload": {
            "name": point.workload,
            "config": point.config,
            "num_cores": point.num_cores,
            "seed": point.seed,
            "sizes": wl_kwargs,
        },
        "max_cycles": point.max_cycles,
        # The measurement window is part of the result's identity: a
        # measured-region record must never alias a full-run record,
        # and (schema v6) a cycle-capped sampled region must never
        # alias the run-to-completion region from the same anchor;
        # (schema v7) a detached region never aliases an undetached one.
        "warmup": {
            "barriers": point.warmup_barriers,
            "mode": point.warmup_mode,
            "measure_cycles": point.measure_cycles,
            "detach_cycles": point.detach_cycles,
        },
    }


def point_key(point: SweepPoint) -> str:
    """Stable content hash of everything that determines the result."""
    canonical = json.dumps(_point_spec(point), sort_keys=True,
                           separators=(",", ":"), default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# the result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """:class:`SimResult` records as a typed view over the unified store.

    A thin wrapper around the store's ``results`` namespace: keys map to
    content-addressed objects holding the sorted-JSON record, and
    writes are atomic.  ``REPRO_CACHE_DIR`` is resolved per call, like
    the trace and checkpoint stores.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = root
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> Path:
        return cache_root(self._root)

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result for a key, or None (corrupt entries miss)."""
        data = Store(self._root).get("results", key)
        if data is not None:
            try:
                result = SimResult.from_dict(json.loads(data))
            except (ValueError, KeyError, TypeError):
                result = None
            if result is not None:
                self.hits += 1
                return result
        self.misses += 1
        return None

    def put(self, key: str, result: SimResult) -> None:
        """Persist a result (atomic object + index-entry writes)."""
        payload = json.dumps(result.to_dict(),
                             sort_keys=True).encode("utf-8")
        Store(self._root).set("results", key, payload)

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        return Store(self._root).clear("results")


def _resolve_cache(cache) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache


# ---------------------------------------------------------------------------
# worker-side execution
# ---------------------------------------------------------------------------

#: the process's memoizing checkpoint store (lazy; see _worker_ckpt_store)
_WORKER_CKPT = None


def _worker_ckpt_store():
    """This process's memoizing warm-state store.

    One per process — the pool's workers each build their own lazily,
    and the in-process execution path shares the parent's — so a warm
    image is read and parsed once per process, not once per point.
    Callers treat None as memo off (plain store reads); the memo-off
    A/B tests patch this function to return it.
    """
    global _WORKER_CKPT
    if _WORKER_CKPT is None:
        from repro.sim.checkpoint import MemoCheckpointStore
        _WORKER_CKPT = MemoCheckpointStore(memo_limit=_CKPT_MEMO_LIMIT)
    return _WORKER_CKPT


def reset_worker_memo() -> None:
    """Drop this process's warm-state memo (test isolation hook)."""
    global _WORKER_CKPT
    _WORKER_CKPT = None


def _simulate(point: SweepPoint) -> Dict:
    """Simulate one point, routing warm restores through the memo."""
    from repro.sim.runner import run_workload

    checkpoint = _worker_ckpt_store() if point.warmup_barriers > 0 else None
    result = run_workload(point.workload, point.config,
                          num_cores=point.num_cores,
                          max_cycles=point.max_cycles,
                          seed=point.seed,
                          warmup_barriers=point.warmup_barriers,
                          warmup_mode=point.warmup_mode,
                          measure_cycles=point.measure_cycles,
                          detach_cycles=point.detach_cycles,
                          checkpoint=checkpoint,
                          **dict(point.kwargs))
    return result.to_dict()


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts KB on Linux and bytes on macOS
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


def _execute_chunk(points: List[SweepPoint]
                   ) -> Tuple[List[Dict], List[float], int, float, float]:
    """Worker entry: simulate a chunk of points back to back.

    Returns the result dicts, per-point wall seconds, how many warm
    restores the chunk served from this worker's snapshot memo, the
    chunk's CPU seconds in this worker, and the worker's peak RSS (MB).
    """
    cpu_start = time.process_time()
    memo = _worker_ckpt_store()
    memo_before = memo.memo_hits if memo is not None else 0
    dicts: List[Dict] = []
    walls: List[float] = []
    for point in points:
        start = time.perf_counter()
        dicts.append(_simulate(point))
        walls.append(time.perf_counter() - start)
    memo_hits = (memo.memo_hits - memo_before) if memo is not None else 0
    return (dicts, walls, memo_hits, time.process_time() - cpu_start,
            _peak_rss_mb())


def _warm_checkpoint_key(point: SweepPoint,
                         barriers: Optional[int] = None) -> Optional[str]:
    """The point's warm-image key (at ``barriers``, default its own
    anchor), or None when it warms from cold."""
    if point.warmup_barriers <= 0:
        return None
    from repro.sim.checkpoint import checkpoint_key
    from repro.sim.runner import resolve_point

    params, wl_kwargs = resolve_point(
        point.workload, point.config, point.num_cores,
        **dict(point.kwargs))
    return checkpoint_key(
        params, point.workload, point.num_cores, point.seed, wl_kwargs,
        point.warmup_barriers if barriers is None else barriers,
        point.warmup_mode, chained=point.measure_cycles > 0)


def _build_images(point: SweepPoint, barriers: List[int]
                  ) -> Tuple[float, float, float]:
    """Worker entry: build the planned (just probed missing, so not
    re-probed) warm images at ``barriers``; returns the build's wall
    seconds (its ``timings["build"]`` contribution), CPU seconds and
    the worker's peak RSS (MB)."""
    from repro.sim.runner import ensure_warm_states, resolve_point
    from repro.workloads.registry import build_trace_buffers

    start = time.perf_counter()
    cpu_start = time.process_time()
    params, wl_kwargs = resolve_point(
        point.workload, point.config, point.num_cores,
        **dict(point.kwargs))
    traces = build_trace_buffers(point.workload,
                                 num_cores=point.num_cores,
                                 seed=point.seed, **wl_kwargs)
    ensure_warm_states(point.workload, point.config, params, traces,
                       point.num_cores, point.seed, wl_kwargs, barriers,
                       point.warmup_mode, _worker_ckpt_store(),
                       point.max_cycles, force=barriers,
                       chained=point.measure_cycles > 0)
    return (time.perf_counter() - start, time.process_time() - cpu_start,
            _peak_rss_mb())


def run_point(point: SweepPoint, cache=None) -> SimResult:
    """Run (or fetch) one point through the result cache."""
    return run_sweep([point], jobs=1, cache=cache)[0]


# ---------------------------------------------------------------------------
# worker count
# ---------------------------------------------------------------------------

def resolve_jobs(jobs: Optional[int]) -> int:
    """``0``/``None`` -> one worker per CPU (the ``--jobs auto``
    policy); anything positive passes through."""
    if not jobs or jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


def _effective_workers(jobs: Optional[int], tasks: int) -> int:
    """Workers actually launched for ``tasks`` pending points.

    Capped at the CPU count — oversubscribing a small machine is a
    pure loss for CPU-bound simulation — and at the task count.
    """
    jobs = min(resolve_jobs(jobs), os.cpu_count() or 1)
    return max(1, min(jobs, tasks))


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

#: (result key, point) pairs, submission order preserved
_Items = List[Tuple[str, SweepPoint]]

#: planned chunks: (id of the build task it waits on, or None; items)
_Planned = List[Tuple[Optional[str], _Items]]

#: planned build tasks: build id -> (a point to build for, barriers)
_Builds = Dict[str, Tuple[SweepPoint, List[int]]]


def _plan(pending: _Items, workers: int) -> Tuple[_Builds, _Planned]:
    """Carve pending points into warm-affinity chunks plus warm builds.

    Points sharing a ``_warm_checkpoint_key`` form a group: one worker
    restoring the image once serves the group from its memo.  Each
    group is cut into slices of one worker's share of the points
    (capped at :data:`_CHUNK_CAP`) so it cannot serialize the sweep.
    A missing *direct* image whose group spreads across chunks
    becomes a build task (an unsplit group's chunk builds on its first
    restore).  Missing *chained* images (region anchors) are collected
    per chain, filed under the key at barrier 0 (the anchor key with
    the barrier count left out), so a chain that several fabrics share
    is one task building all its missing anchors in one warm pass.
    Chunks are ``(build id, items)`` pairs in submission order; only
    chunks restoring a planned build's images carry its id (else None).
    """
    groups: "OrderedDict[object, _Items]" = OrderedDict()
    for key, point in pending:
        warm = _warm_checkpoint_key(point)
        groups.setdefault(warm if warm is not None else ("cold", key),
                          []).append((key, point))

    size = min(_CHUNK_CAP, max(1, len(pending) // workers))
    builds: _Builds = {}
    chunks: _Planned = []
    ckpt = None
    for group_id, items in groups.items():
        gate = None
        point = items[0][1]
        chained = point.measure_cycles > 0
        if isinstance(group_id, str) and (chained or len(items) > size):
            if ckpt is None:
                from repro.sim.checkpoint import CheckpointStore
                ckpt = CheckpointStore()
            if not ckpt.has(group_id):
                gate = (_warm_checkpoint_key(point, 0) if chained
                        else group_id)
                builds.setdefault(gate, (point, []))[1].append(
                    point.warmup_barriers)
        chunks.extend((gate, items[start:start + size])
                      for start in range(0, len(items), size))
    return builds, chunks


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------

#: telemetry from the most recent run_sweep in this process
_LAST_STATS: Dict[str, object] = {}


def last_sweep_stats() -> Dict[str, object]:
    """Executor telemetry from the most recent :func:`run_sweep`:
    point counts, cache hits, workers/chunks/builds scheduled, how
    many warm restores were served from worker snapshot memos, the
    CPU ledger — ``parent_cpu_s`` (this process, over the call) and
    ``worker_cpu_s`` (summed over pool tasks; 0.0 in-process) — with
    ``worker_peak_rss_mb`` (the largest peak RSS any pool task saw in
    its worker; 0.0 in-process), and a
    ``timings`` dict of per-phase seconds — ``probe`` (cache lookups),
    ``plan`` (chunk planning), ``build`` (the planned warm-image
    builds, direct images and sampled chains, summed across workers),
    ``dispatch`` (executor loop excluding build/commit), and
    ``commit`` (result persistence)."""
    return dict(_LAST_STATS)


def run_sweep(points: Sequence[Union[SweepPoint, dict]],
              jobs: Optional[int] = 1, cache=None,
              progress: Optional[Callable[[Dict], None]] = None
              ) -> List[SimResult]:
    """Run a batch of simulation points; results in submission order.

    ``jobs`` > 1 distributes uncached points over worker processes
    (``0``/``None`` = one per CPU; the executor also never
    oversubscribes the machine — see :func:`_effective_workers`).
    ``cache`` is ``None``/``False`` (off), ``True`` (default on-disk
    location), or a :class:`ResultCache`; completed points commit to
    it as they finish, so an interrupted sweep re-run picks up from
    the committed prefix.  Duplicate points are simulated once and the
    shared result is fanned back to every submission slot.

    ``progress`` is called once per unique point with a dict:
    ``done``/``total`` counters, the point's ``label``, ``status``
    (``"hit"`` or ``"run"``), ``wall`` seconds (None for hits), and
    ``eta`` — remaining wall seconds, estimated as the mean wall of
    the points run so far times the points left, over the workers.
    Cache hits are announced before anything runs, so their ``eta``
    is None while points are pending and 0.0 when none are.
    """
    cpu_start = time.process_time()
    normalized: List[SweepPoint] = [
        SweepPoint.make(**p) if isinstance(p, dict) else p for p in points]
    store = _resolve_cache(cache)

    keys = [point_key(point) for point in normalized]
    point_of: Dict[str, SweepPoint] = {}
    for key, point in zip(keys, normalized):
        point_of.setdefault(key, point)

    probe_start = time.perf_counter()
    results: Dict[str, SimResult] = {}
    if store is not None:
        for key in point_of:
            hit = store.get(key)
            if hit is not None:
                results[key] = hit
    timings: Dict[str, float] = {
        "probe": time.perf_counter() - probe_start,
        "plan": 0.0, "build": 0.0, "dispatch": 0.0, "commit": 0.0,
    }

    pending = [(key, point) for key, point in point_of.items()
               if key not in results]
    total_unique = len(point_of)

    stats: Dict[str, object] = {
        "points": len(normalized), "unique": total_unique,
        "cache_hits": len(results), "executed": len(pending),
        "workers": 0, "chunks": 0, "builds": 0,
        "ckpt_memo_hits": 0, "wall_seconds": 0.0,
        "worker_cpu_s": 0.0, "parent_cpu_s": 0.0,
        "worker_peak_rss_mb": 0.0,
        "timings": timings,
    }

    if progress is not None:
        hit_eta = None if pending else 0.0
        for done, key in enumerate(results, start=1):
            progress({"done": done, "total": total_unique,
                      "label": point_of[key].label(),
                      "status": "hit", "wall": None, "eta": hit_eta})

    if pending:
        plan_start = time.perf_counter()
        workers = _effective_workers(jobs, len(pending))
        builds, chunks = _plan(pending, workers)
        timings["plan"] = time.perf_counter() - plan_start
        stats.update(workers=workers, chunks=len(chunks),
                     builds=len(builds))
        dispatch_start = time.perf_counter()
        ran = 0

        def commit(key: str, point: SweepPoint, data: Dict,
                   wall: float) -> None:
            nonlocal ran
            commit_start = time.perf_counter()
            result = SimResult.from_dict(data)
            results[key] = result
            if store is not None:
                store.put(key, result)
            timings["commit"] += time.perf_counter() - commit_start
            stats["wall_seconds"] = float(stats["wall_seconds"]) + wall
            ran += 1
            if progress is not None:
                mean = float(stats["wall_seconds"]) / ran
                progress({"done": len(results), "total": total_unique,
                          "label": point.label(), "status": "run",
                          "wall": wall,
                          "eta": mean * (len(pending) - ran) / workers})

        if workers == 1:
            # One effective worker: run in-process — no pool, no fork,
            # no pickling — sharing the parent's memos directly.
            # A build runs just before the first chunk waiting on it,
            # so that chunk restores the images the build memoized.
            memo = _worker_ckpt_store()
            memo_before = memo.memo_hits if memo is not None else 0
            for gate, items in chunks:
                if gate in builds:
                    timings["build"] += _build_images(*builds.pop(gate))[0]
                for key, point in items:
                    start = time.perf_counter()
                    data = _simulate(point)
                    commit(key, point, data,
                           time.perf_counter() - start)
            if memo is not None:
                stats["ckpt_memo_hits"] = memo.memo_hits - memo_before
        else:
            _run_on_pool(builds, chunks, workers, commit, stats, timings)
        timings["dispatch"] = (time.perf_counter() - dispatch_start
                               - timings["commit"] - timings["build"])

    stats["parent_cpu_s"] = time.process_time() - cpu_start
    _LAST_STATS.clear()
    _LAST_STATS.update(stats)
    return [results[key] for key in keys]


def _run_on_pool(builds: _Builds, chunks: _Planned,
                 workers: int, commit: Callable, stats: Dict,
                 timings: Dict[str, float]) -> None:
    """Drive the planned tasks over a worker pool opened for this sweep.

    Warm builds go out first; chunks waiting on one stay parked until
    it lands, everything else dispatches immediately
    in submission order.  Completions commit as they arrive, each
    task's CPU seconds add to ``stats["worker_cpu_s"]``, and its
    worker's peak RSS raises ``stats["worker_peak_rss_mb"]``.  The pool
    closes however the loop ends: on a task failure the queued futures
    are cancelled and the workers joined before the error re-raises —
    results already committed stay committed, which is what
    crash-resume leans on.  ``timings["build"]`` accumulates
    worker-side warm-build seconds (summed across workers, so it can
    exceed the phase's wall clock).
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    gated: Dict[str, List[_Items]] = {}
    in_flight = {}

    def submit(items: _Items) -> None:
        in_flight[pool.submit(_execute_chunk,
                              [point for _, point in items])] = \
            ("chunk", items)

    try:
        for gate, (point, barriers) in builds.items():
            in_flight[pool.submit(_build_images, point, barriers)] = \
                ("build", gate)
        for gate, items in chunks:
            if gate in builds:
                gated.setdefault(gate, []).append(items)
            else:
                submit(items)

        while in_flight:
            done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
            for future in done:
                kind, payload = in_flight.pop(future)
                if kind == "build":
                    wall, cpu, rss = future.result()
                    timings["build"] += wall
                    for items in gated.pop(payload, []):
                        submit(items)
                else:
                    dicts, walls, memo_hits, cpu, rss = future.result()
                    stats["ckpt_memo_hits"] = \
                        int(stats["ckpt_memo_hits"]) + memo_hits
                    for (key, point), data, wall in zip(
                            payload, dicts, walls):
                        commit(key, point, data, wall)
                stats["worker_cpu_s"] = float(stats["worker_cpu_s"]) + cpu
                stats["worker_peak_rss_mb"] = max(
                    float(stats["worker_peak_rss_mb"]), rss)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
