"""Dependency-aware parallel sweep execution with streaming commits.

Every figure in the paper is a sweep over independent
``(workload, config, num_cores, seed)`` simulation points, so the sweep
engine exploits the structure those grids share:

* points are embarrassingly parallel — :func:`run_sweep` fans uncached
  points out over a **persistent** :class:`ProcessPoolExecutor`
  (reused across sweeps in one process, so repeated sweeps pay the
  fork-and-import cost once);
* many sweeps share points (every figure normalizes to the same
  baseline runs) — results are cached on disk, keyed by a stable hash
  of everything that determines the outcome, and duplicate submissions
  in one sweep are simulated once;
* points sharing a warm-state image are **affinity-batched**: one
  worker restores the image once and serves the whole batch from an
  in-process memo of parsed snapshots (and compiled trace buffers),
  instead of every worker re-gunzipping the same multi-megabyte
  checkpoint per point;
* a missing warm image becomes its own task that unblocks only the
  chunks depending on it — independent points start immediately
  instead of barriering behind every warm build;
* uncached points dispatch **longest-expected-first** using historical
  wall seconds from the result index (each committed result records
  its wall time in the entry's metadata), which keeps a straggler from
  landing last on an otherwise-drained pool;
* completed results **stream back and commit incrementally**, so an
  interrupted sweep resumes from the points already committed instead
  of losing everything.

Cache key
---------

A point's key is the SHA-256 of a canonical JSON document containing:

* the full resolved :class:`~repro.common.params.SystemParams`
  (``dataclasses.asdict``, sorted keys) — any hardware knob change,
  including defaults applied by ``make_params``, changes the key;
* the workload spec: name, core count, seed, and sizing keywords;
* ``max_cycles``; and
* :data:`CACHE_SCHEMA_VERSION` — bump it whenever simulator semantics
  change so stale results can never be replayed.

The **cost key** is the same document with the seed blanked: seeds
perturb a run without changing its scale, so all seed replicas of a
configuration share one historical-cost profile.

Results round-trip through :meth:`SimResult.to_dict` / ``from_dict``
as JSON payloads in the unified content-addressed store
(:mod:`repro.store`) under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable; ``REPRO_NO_CACHE`` disables
every layer — see :func:`repro.store.cache_disabled`).  Corrupt or
unreadable entries are treated as misses.

Determinism
-----------

Workers receive the full point spec and rebuild params and traces from
the seed, so a sweep's results are bit-identical to serial execution
regardless of ``jobs``, scheduling order, or memo state;
:func:`run_sweep` returns results in submission order.  The in-process
memos only short-circuit *reads* of immutable content-addressed data
(parsed warm snapshots, compiled trace buffers), never simulation
state; ``REPRO_NO_WORKER_MEMO=1`` disables them for A/B verification.

Worker-count policy: ``jobs=0`` (or None) means one worker per CPU,
and the executor never runs more workers than CPUs (or than pending
points) — oversubscribing a small machine costs real wall time.  A
single effective worker runs in-process with no pool at all.  Set
``REPRO_SWEEP_EXACT_JOBS=1`` to force the requested count (tests use
it to exercise real worker pools on single-CPU machines).
"""

from __future__ import annotations

import atexit
import gc
import hashlib
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import (Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.sim.results import SimResult
from repro.store import RESULT_SCHEMA_VERSION, Store, cache_disabled, cache_root

#: The result-record schema version (see :mod:`repro.store.index`,
#: which owns every namespace's version and the bump history);
#: re-exported under the name this module always used.
CACHE_SCHEMA_VERSION = RESULT_SCHEMA_VERSION

#: Hard cap on points per scheduled chunk: keeps one straggling chunk
#: from serializing a large warm-affinity group even when the cost
#: model undershoots.
_CHUNK_CAP = 16

#: Cap on result-index entries scanned when loading the cost model; a
#: long-lived store can hold far more history than scheduling needs.
_COST_SCAN_CAP = 4096

#: Parsed warm snapshots kept per worker (each can be tens of MB).
_CKPT_MEMO_LIMIT = 4

#: Compiled trace-buffer sets kept per worker.
_TRACE_MEMO_LIMIT = 16


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
        "schema": CACHE_SCHEMA_VERSION,
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


def _hash_spec(spec: Dict) -> str:
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def point_key(point: SweepPoint) -> str:
    """Stable content hash of everything that determines the result."""
    return _hash_spec(_point_spec(point))


def cost_key(point: SweepPoint, spec: Optional[Dict] = None) -> str:
    """The point's cost-profile key: the point key with the seed
    blanked, so seed replicas share one historical wall-time profile."""
    spec = _point_spec(point) if spec is None else spec
    return _hash_spec({**spec, "workload": {**spec["workload"], "seed": None}})


# ---------------------------------------------------------------------------
# the result cache
# ---------------------------------------------------------------------------

class ResultCache:
    """:class:`SimResult` records as a typed view over the unified store.

    A thin wrapper around the store's ``results`` index: keys map to
    content-addressed objects holding the sorted-JSON record, writes
    are atomic, and pre-unification root-level ``<key>.json`` files
    are migrated in place on first lookup.  ``REPRO_NO_CACHE`` is
    honored per call (see :func:`repro.store.cache_disabled`): a
    disabled cache reads as all-miss and swallows writes, exactly like
    the trace and checkpoint stores.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = root
        self.hits = 0
        self.misses = 0

    @property
    def root(self) -> Path:
        return cache_root(self._root)

    def _index(self):
        """The ``results`` index, or None while caching is disabled."""
        if cache_disabled():
            return None
        return Store(self._root).index("results")

    def path_for(self, key: str) -> Optional[Path]:
        """The index entry file for ``key`` (its existence == cached);
        None while caching is disabled."""
        index = self._index()
        return None if index is None else index.entry_path(key)

    def get(self, key: str) -> Optional[SimResult]:
        """The cached result for a key, or None (corrupt entries miss)."""
        index = self._index()
        data = index.get_bytes(key) if index is not None else None
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

    def put(self, key: str, result: SimResult,
            wall: Optional[float] = None,
            cost: Optional[str] = None) -> None:
        """Persist a result (atomic object + index-entry writes).

        ``wall`` (seconds the simulation took) and ``cost`` (the
        point's :func:`cost_key`) land in the index entry's metadata —
        the executor's scheduling history — never in the result
        payload, which stays bit-identical to the simulator's output.
        """
        index = self._index()
        if index is None:
            return
        payload = json.dumps(result.to_dict(),
                             sort_keys=True).encode("utf-8")
        meta = None
        if wall is not None:
            meta = {"wall": round(wall, 4)}
            if cost is not None:
                meta["cost"] = cost
        index.put_bytes(key, payload, meta=meta)

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        index = self._index()
        return 0 if index is None else index.clear()


def _resolve_cache(cache) -> Optional[ResultCache]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    return cache


# ---------------------------------------------------------------------------
# the cost model
# ---------------------------------------------------------------------------

class CostModel:
    """Expected wall seconds per cost profile, from committed history.

    Loaded by scanning the result index's entry metadata (``wall`` and
    ``cost`` fields stamped by :meth:`ResultCache.put`) — no result
    payloads are read.  Profiles with no history estimate as None and
    are dispatched first (an unknown point is the riskiest straggler);
    ETAs for them fall back to the mean over everything observed.
    """

    def __init__(self) -> None:
        self._sum: Dict[str, float] = {}
        self._count: Dict[str, int] = {}
        self._total = 0.0
        self._observations = 0

    @classmethod
    def load(cls, store: Optional[ResultCache]) -> "CostModel":
        model = cls()
        index = store._index() if store is not None else None
        if index is None:
            return model
        scanned = 0
        for _, entry in index.entries():
            wall, cost = entry.get("wall"), entry.get("cost")
            if isinstance(wall, (int, float)) and wall >= 0 \
                    and isinstance(cost, str):
                model.observe(cost, float(wall))
            scanned += 1
            if scanned >= _COST_SCAN_CAP:
                break
        return model

    def observe(self, cost: str, wall: float) -> None:
        self._sum[cost] = self._sum.get(cost, 0.0) + wall
        self._count[cost] = self._count.get(cost, 0) + 1
        self._total += wall
        self._observations += 1

    def estimate(self, cost: str) -> Optional[float]:
        """Mean observed wall seconds for a profile, or None."""
        count = self._count.get(cost)
        return self._sum[cost] / count if count else None

    def expected(self, cost: str) -> float:
        """Always-finite estimate: profile mean, else global mean,
        else one second."""
        known = self.estimate(cost)
        if known is not None:
            return known
        if self._observations:
            return self._total / self._observations
        return 1.0


# ---------------------------------------------------------------------------
# worker-side execution
# ---------------------------------------------------------------------------

#: set by the pool initializer; gates the worker-only GC check so the
#: in-process execution path never trips it in the parent
_IN_WORKER = False

#: the process's memoizing checkpoint store (lazy; see _worker_ckpt_store)
_WORKER_CKPT = None


def _init_worker() -> None:
    """Pool initializer: park the cyclic GC for the worker's lifetime.

    Simulation objects die by refcount (see ``System.run``, which parks
    the collector per run), so a worker that simulates many points
    would otherwise re-pay collection churn between runs.  Freezing the
    post-import heap also takes every long-lived object out of the
    collector's view entirely.  The global trace cache gets a bounded
    memo: a persistent worker touring a big grid must not accumulate
    every trace it ever compiled.
    """
    global _IN_WORKER
    _IN_WORKER = True
    gc.disable()
    gc.freeze()
    from repro.workloads import registry
    registry.TRACE_CACHE.memo_limit = _TRACE_MEMO_LIMIT


def _worker_ckpt_store():
    """This process's memoizing warm-state store (None = memo off).

    One per process — the pool's workers each build their own lazily,
    and the in-process execution path shares the parent's — so a warm
    image is read and parsed once per process, not once per point.
    """
    global _WORKER_CKPT
    if os.environ.get("REPRO_NO_WORKER_MEMO"):
        return None
    if _WORKER_CKPT is None:
        from repro.sim.checkpoint import MemoCheckpointStore
        _WORKER_CKPT = MemoCheckpointStore(memo_limit=_CKPT_MEMO_LIMIT)
    return _WORKER_CKPT


def reset_worker_memo() -> None:
    """Drop this process's warm-state memo (test isolation hook)."""
    global _WORKER_CKPT
    _WORKER_CKPT = None


def _assert_parked() -> None:
    """Fail the task if this worker's cyclic GC is not parked.

    A plain ``raise`` rather than ``assert``, so the check survives
    ``python -O``.
    """
    if _IN_WORKER and gc.isenabled():
        raise RuntimeError("sweep worker GC was not parked")


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


def _execute_point(point: SweepPoint) -> Dict:
    """Simulate one point, returning a picklable dict."""
    _assert_parked()
    return _simulate(point)


def _execute_chunk(points: List[SweepPoint]
                   ) -> Tuple[List[Dict], List[float], int]:
    """Worker entry: simulate a chunk of points back to back.

    Returns the result dicts, per-point wall seconds (the cost model's
    training data), and how many warm restores the chunk served from
    this worker's snapshot memo.
    """
    _assert_parked()
    memo = _worker_ckpt_store()
    memo_before = memo.memo_hits if memo is not None else 0
    dicts: List[Dict] = []
    walls: List[float] = []
    for point in points:
        start = time.perf_counter()
        dicts.append(_simulate(point))
        walls.append(time.perf_counter() - start)
    memo_hits = (memo.memo_hits - memo_before) if memo is not None else 0
    return dicts, walls, memo_hits


def _warm_checkpoint_key(point: SweepPoint) -> Optional[str]:
    """The point's warm-state key, or None when it warms from cold."""
    if point.warmup_barriers <= 0:
        return None
    from repro.sim.checkpoint import checkpoint_key
    from repro.sim.runner import resolve_point

    params, wl_kwargs = resolve_point(
        point.workload, point.config, point.num_cores,
        **dict(point.kwargs))
    return checkpoint_key(params, point.workload, point.num_cores,
                          point.seed, wl_kwargs, point.warmup_barriers,
                          point.warmup_mode,
                          chained=point.measure_cycles > 0)


def _prepare_checkpoint(point: SweepPoint) -> float:
    """Worker entry: make sure the point's warm state is available.

    Returns the build's wall seconds (0-ish on a store hit) — the
    ``timings["build"]`` contribution :func:`last_sweep_stats` reports.
    """
    from repro.sim.runner import ensure_warm_state, resolve_point
    from repro.workloads.registry import build_trace_buffers

    start = time.perf_counter()
    params, wl_kwargs = resolve_point(
        point.workload, point.config, point.num_cores,
        **dict(point.kwargs))
    traces = build_trace_buffers(point.workload,
                                 num_cores=point.num_cores,
                                 seed=point.seed, **wl_kwargs)
    ensure_warm_state(point.workload, point.config, params, traces,
                      point.num_cores, point.seed, wl_kwargs,
                      point.warmup_barriers, point.warmup_mode,
                      checkpoint=_worker_ckpt_store(),
                      max_cycles=point.max_cycles,
                      chained=point.measure_cycles > 0)
    return time.perf_counter() - start


def run_point(point: SweepPoint, cache=None) -> SimResult:
    """Run (or fetch) one point through the result cache."""
    store = _resolve_cache(cache)
    if store is None:
        return SimResult.from_dict(_execute_point(point))
    key = point_key(point)
    result = store.get(key)
    if result is None:
        start = time.perf_counter()
        result = SimResult.from_dict(_execute_point(point))
        store.put(key, result, wall=time.perf_counter() - start,
                  cost=cost_key(point))
    return result


# ---------------------------------------------------------------------------
# the persistent worker pool
# ---------------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_KEY: Optional[tuple] = None


def _pool_identity(workers: int) -> tuple:
    """What a live pool must agree with the parent on to be reusable.

    Workers snapshot ``REPRO_*`` configuration and the working
    directory (relative cache roots resolve against it) at fork time;
    a parent-side change to either silently diverges the workers, so
    it rotates the pool instead.
    """
    env = tuple(sorted((key, value) for key, value in os.environ.items()
                       if key.startswith("REPRO_")))
    return workers, os.getcwd(), env


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_KEY
    key = _pool_identity(workers)
    if _POOL is not None and _POOL_KEY != key:
        shutdown_pool()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(max_workers=workers,
                                    initializer=_init_worker)
        _POOL_KEY = key
    return _POOL


def shutdown_pool() -> None:
    """Shut down the persistent sweep worker pool, if one is live."""
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_KEY = None


atexit.register(shutdown_pool)


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
    ``REPRO_SWEEP_EXACT_JOBS=1`` lifts the CPU cap (tests use it to
    exercise real multi-worker pools on single-CPU machines).
    """
    jobs = resolve_jobs(jobs)
    if not os.environ.get("REPRO_SWEEP_EXACT_JOBS"):
        jobs = min(jobs, os.cpu_count() or 1)
    return max(1, min(jobs, tasks))


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

@dataclass
class _Chunk:
    """A schedulable batch of points bound to one worker task."""

    #: (result key, point) pairs, submission order preserved
    items: List[Tuple[str, SweepPoint]]
    #: warm-state image the chunk restores from (None = cold points)
    warm_key: Optional[str]
    #: summed expected wall seconds (the LPT priority)
    expected: float
    #: points with no historical cost profile (scheduled first)
    unknown: int


def _plan(pending: List[Tuple[str, SweepPoint]],
          cost_of: Dict[str, str], model: CostModel,
          workers: int) -> Tuple[Dict[str, SweepPoint], List[_Chunk]]:
    """Carve pending points into warm-affinity chunks plus warm builds.

    Points sharing a ``_warm_checkpoint_key`` form a group: one worker
    restoring the image once serves the group from its memo.  A group
    whose expected cost exceeds an even per-worker share is split into
    chunks so it cannot serialize the sweep; when that spreads one
    *missing* image across workers, the build becomes its own task
    (returned in ``builds``) and the group's chunks are scheduled only
    after it lands — everything else starts immediately.  Chunks come
    back longest-expected-first, unknown-cost profiles ahead of known
    ones.
    """
    groups: "OrderedDict[object, List[Tuple[str, SweepPoint]]]" = OrderedDict()
    for key, point in pending:
        warm = _warm_checkpoint_key(point)
        groups.setdefault(warm if warm is not None else ("cold", key),
                          []).append((key, point))

    expected = {key: model.expected(cost_of[key]) for key, _ in pending}
    total = sum(expected.values())
    share = max(total / max(workers, 1),
                max(expected.values(), default=1.0))

    builds: Dict[str, SweepPoint] = {}
    chunks: List[_Chunk] = []
    ckpt = None
    for group_id, items in groups.items():
        warm = group_id if isinstance(group_id, str) else None
        parts: List[List[Tuple[str, SweepPoint]]] = []
        current: List[Tuple[str, SweepPoint]] = []
        current_cost = 0.0
        for item in items:
            cost = expected[item[0]]
            if current and (current_cost + cost > share * 1.001
                            or len(current) >= _CHUNK_CAP):
                parts.append(current)
                current, current_cost = [], 0.0
            current.append(item)
            current_cost += cost
        if current:
            parts.append(current)
        if warm is not None and len(parts) > 1 and not cache_disabled():
            # The image is about to be needed by several workers at
            # once; unless it is already stored, build it exactly once
            # up front instead of racing every chunk into a rebuild.
            if ckpt is None:
                from repro.sim.checkpoint import CheckpointStore
                ckpt = CheckpointStore()
            if not ckpt.has(warm):
                builds[warm] = items[0][1]
        for part in parts:
            chunks.append(_Chunk(
                items=part,
                warm_key=warm,
                expected=sum(expected[key] for key, _ in part),
                unknown=sum(1 for key, _ in part
                            if model.estimate(cost_of[key]) is None)))

    chunks.sort(key=lambda chunk: (chunk.unknown, chunk.expected),
                reverse=True)
    return builds, chunks


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------

#: telemetry from the most recent run_sweep in this process
_LAST_STATS: Dict[str, object] = {}


def last_sweep_stats() -> Dict[str, object]:
    """Executor telemetry from the most recent :func:`run_sweep`:
    point counts, cache hits, workers/chunks/builds scheduled, how
    many warm restores were served from worker snapshot memos, and a
    ``timings`` dict of per-phase seconds — ``probe`` (cache lookups),
    ``plan`` (cost-model load + chunk planning), ``build`` (worker-side
    warm-image builds, summed across workers), ``dispatch`` (executor
    loop excluding build/commit), and ``commit`` (result persistence)."""
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
    ``eta`` — the cost model's estimate of remaining wall seconds.
    Cache hits carry the estimate for the *pending* work only (a warm
    sweep's hits no longer inflate the early ETA); once nothing is
    pending every event reports ``eta`` 0.0.
    """
    normalized: List[SweepPoint] = [
        SweepPoint.make(**p) if isinstance(p, dict) else p for p in points]
    store = _resolve_cache(cache)

    keys: List[str] = []
    cost_of: Dict[str, str] = {}
    point_of: Dict[str, SweepPoint] = {}
    for point in normalized:
        spec = _point_spec(point)
        key = _hash_spec(spec)
        keys.append(key)
        if key not in cost_of:
            cost_of[key] = cost_key(point, spec)
            point_of[key] = point

    probe_start = time.perf_counter()
    results: Dict[str, SimResult] = {}
    if store is not None:
        probed = set()
        for key in keys:
            if key not in probed:
                probed.add(key)
                hit = store.get(key)
                if hit is not None:
                    results[key] = hit
    timings: Dict[str, float] = {
        "probe": time.perf_counter() - probe_start,
        "plan": 0.0, "build": 0.0, "dispatch": 0.0, "commit": 0.0,
    }

    pending: List[Tuple[str, SweepPoint]] = []
    seen = set(results)
    for key, point in zip(keys, normalized):
        if key not in seen:
            seen.add(key)
            pending.append((key, point))

    total_unique = len(seen)
    done_count = len(results)

    stats: Dict[str, object] = {
        "points": len(normalized), "unique": total_unique,
        "cache_hits": len(results), "executed": len(pending),
        "workers": 0, "chunks": 0, "builds": 0,
        "ckpt_memo_hits": 0, "wall_seconds": 0.0,
        "timings": timings,
    }

    # Plan *before* announcing hits, so hit events can carry the real
    # remaining-work ETA (pending points only — cached points cost
    # nothing and must not inflate the estimate).
    model = workers = builds = chunks = None
    remaining = 0.0
    expected: Dict[str, float] = {}
    if pending:
        plan_start = time.perf_counter()
        model = CostModel.load(store)
        workers = _effective_workers(jobs, len(pending))
        builds, chunks = _plan(pending, cost_of, model, workers)
        timings["plan"] = time.perf_counter() - plan_start
        stats.update(workers=workers, chunks=len(chunks),
                     builds=len(builds))
        expected = {key: model.expected(cost_of[key])
                    for key, _ in pending}
        remaining = sum(expected.values())

    if progress is not None:
        hit_eta = remaining / workers if pending else 0.0
        emitted = set()
        for key in keys:
            if key in results and key not in emitted:
                emitted.add(key)
                progress({"done": len(emitted), "total": total_unique,
                          "label": point_of[key].label(),
                          "status": "hit", "wall": None, "eta": hit_eta})

    if pending:
        dispatch_start = time.perf_counter()

        def commit(key: str, point: SweepPoint, data: Dict,
                   wall: float) -> None:
            nonlocal done_count, remaining
            commit_start = time.perf_counter()
            result = SimResult.from_dict(data)
            results[key] = result
            if store is not None:
                store.put(key, result, wall=wall, cost=cost_of[key])
            timings["commit"] += time.perf_counter() - commit_start
            stats["wall_seconds"] = float(stats["wall_seconds"]) + wall
            remaining -= expected[key]
            done_count += 1
            if progress is not None:
                progress({"done": done_count, "total": total_unique,
                          "label": point.label(), "status": "run",
                          "wall": wall,
                          "eta": max(remaining, 0.0) / workers})

        if workers == 1:
            # One effective worker: run in-process — no pool, no fork,
            # no pickling — sharing the parent's memos directly.
            memo = _worker_ckpt_store()
            memo_before = memo.memo_hits if memo is not None else 0
            for warm in builds.values():
                timings["build"] += _prepare_checkpoint(warm)
            for chunk in chunks:
                for key, point in chunk.items:
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

    _LAST_STATS.clear()
    _LAST_STATS.update(stats)
    return [results[key] for key in keys]


def _run_on_pool(builds: Dict[str, SweepPoint], chunks: List[_Chunk],
                 workers: int, commit: Callable, stats: Dict,
                 timings: Dict[str, float]) -> None:
    """Drive the planned tasks over the persistent worker pool.

    Missing-warm-image builds go out first (they gate the most work);
    chunks depending on one stay parked until it lands, everything
    else dispatches immediately in LPT order.  Completions commit as
    they arrive.  On any task failure the remaining futures are
    cancelled and the pool is retired — results already committed
    stay committed, which is what crash-resume leans on.
    ``timings["build"]`` accumulates worker-side warm-build seconds
    (summed across workers, so it can exceed the phase's wall clock).
    """
    pool = _get_pool(workers)
    gated: Dict[str, List[_Chunk]] = {}
    for chunk in chunks:
        if chunk.warm_key in builds:
            gated.setdefault(chunk.warm_key, []).append(chunk)

    dependent_cost = {warm: sum(chunk.expected for chunk in parked)
                      for warm, parked in gated.items()}
    in_flight = {}
    for warm in sorted(builds, key=lambda w: dependent_cost.get(w, 0.0),
                       reverse=True):
        in_flight[pool.submit(_prepare_checkpoint, builds[warm])] = \
            ("build", warm)
    for chunk in chunks:
        if chunk.warm_key not in builds:
            in_flight[pool.submit(
                _execute_chunk, [point for _, point in chunk.items])] = \
                ("chunk", chunk)

    try:
        while in_flight:
            done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
            for future in done:
                kind, payload = in_flight.pop(future)
                if kind == "build":
                    timings["build"] += future.result()
                    for chunk in gated.pop(payload, []):
                        in_flight[pool.submit(
                            _execute_chunk,
                            [point for _, point in chunk.items])] = \
                            ("chunk", chunk)
                else:
                    dicts, walls, memo_hits = future.result()
                    stats["ckpt_memo_hits"] = \
                        int(stats["ckpt_memo_hits"]) + memo_hits
                    for (key, point), data, wall in zip(
                            payload.items, dicts, walls):
                        commit(key, point, data, wall)
    except BaseException:
        for future in in_flight:
            future.cancel()
        shutdown_pool()
        raise
