"""Simulator-throughput microbenchmarks (``BENCH_simperf.json``).

Seven measurements:

* **hot_path cycles/sec** — wall-clock throughput of a mid-size
  streaming run whose profile is dominated by the NoC (router ticks and
  link events), the number the event-driven-core optimizations move;
* **big_fabric cycles/sec** — a saturated 64-core run on the vectorized
  array NoC backend (``engine="array"``), the regime that engine
  exists for; it self-regresses against its own committed record, so
  slowdowns in the vectorized passes fail CI even though the event
  engine never executes them;
* **coherence_64c cycles/sec** — an L2-resident 64-core point on the
  array engine where, after the warm pass, almost every cycle belongs
  to the cores alone; the number the batched coherence fast path
  (``repro.cpu.fastpath``) moves, measured end to end through both
  vectorized backends;
* **cache_path cycles/sec** — the same measurement on an L2-resident
  shared-read point where the coherence/cache/CPU layer (protocol
  handlers, SRAM probes, the prefetch path, trace replay) dominates and
  router ticks are a minority — the number the coherence-layer
  optimizations (message/MSHR pooling, flat-array caches, precompiled
  trace buffers) move;
* **sweep wall-clock** — a 4-point x 2-config sweep executed twice (as
  the figure suite does: every figure re-reads the shared baseline
  cells), comparing the seed's serial no-cache path against
  ``run_sweep(jobs=4)`` with a cold on-disk cache;
* **warm_sweep wall-clock** — a 2-scheme x 3-topology grid where every
  point shares two thirds of its execution (the cache-warming phase),
  comparing cold-start full runs against checkpointed execution: one
  functional warm image per scheme, reused across the topology axis,
  with only the measured region simulated in detail per point;
* **sampled_sweep wall-clock** — a long 64-core point estimated by
  four short measured regions (with a detailed detach window each)
  across successive barrier phases versus simulating the whole tail,
  gated on the sampled CI actually covering the full-run IPC.

All results, plus the improvement ratios, are written to
``BENCH_simperf.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import time

from repro.sim.config import bench_kwargs
from repro.sim.runner import run_workload
from repro.sim.sweep import ResultCache, SweepPoint, run_sweep

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
OUTPUT = REPO_ROOT / "BENCH_simperf.json"

#: the 4-point x 2-config sweep grid (small 4-core points so the
#: serial leg stays measurable in seconds)
SWEEP_WORKLOADS = (
    ("pathfinder", dict(iters=6)),
    ("mv", dict(rows_per_core=8)),
    ("lud", dict(steps=6)),
    ("bfs", dict(visits_per_core=300)),
)
SWEEP_CONFIGS = ("baseline", "ordpush")
#: each pass models one figure script re-running the analysis
SWEEP_PASSES = 3
SWEEP_JOBS = 4


def _sweep_points():
    return [SweepPoint.make(workload, config, num_cores=4, seed=1,
                            **bench_kwargs(), **sizes)
            for config in SWEEP_CONFIGS
            for workload, sizes in SWEEP_WORKLOADS]


def _figure_pass_points():
    """One figure script's submission list: the full grid plus a
    re-read of the baseline column (every figure normalizes its scheme
    against the same baseline runs, so those cells are submitted again
    within the pass — the executor dedups them, the serial path pays
    for them)."""
    points = _sweep_points()
    baseline = [p for p in points if p.config == "baseline"]
    return points + baseline


def _write_record(record: dict) -> None:
    existing = {}
    if OUTPUT.exists():
        try:
            existing = json.loads(OUTPUT.read_text(encoding="utf-8"))
        except ValueError:
            existing = {}
    existing.update(record)
    OUTPUT.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


def test_simulated_cycles_per_second() -> None:
    """Hot-path throughput: simulated cycles per wall-clock second."""
    start = time.perf_counter()
    result = run_workload("cachebw", "ordpush", num_cores=16, seed=1,
                          array_lines=768, iters=2, **bench_kwargs())
    elapsed = time.perf_counter() - start
    cycles_per_sec = result.cycles / elapsed
    _write_record({"hot_path": {
        "workload": "cachebw/ordpush/16c",
        "simulated_cycles": result.cycles,
        "wall_seconds": round(elapsed, 4),
        "cycles_per_sec": round(cycles_per_sec, 1),
    }})
    print(f"\nhot path: {result.cycles} cycles in {elapsed:.2f}s "
          f"({cycles_per_sec:,.0f} cycles/s)")
    assert result.cycles > 0 and elapsed > 0


def test_big_fabric_cycles_per_second() -> None:
    """Array-engine throughput on a saturated 64-core fabric.

    The same workload shape as ``hot_path`` scaled to 64 cores, run on
    the vectorized array backend.  The committed record is the gate:
    CI fails if the vectorized passes regress >10%, independent of the
    event engine's numbers.
    """
    start = time.perf_counter()
    result = run_workload("cachebw", "ordpush", num_cores=64, seed=1,
                          engine="array", array_lines=768, iters=2,
                          **bench_kwargs())
    elapsed = time.perf_counter() - start
    cycles_per_sec = result.cycles / elapsed
    _write_record({"big_fabric": {
        "workload": "cachebw/ordpush/64c (array engine)",
        "engine": "array",
        "simulated_cycles": result.cycles,
        "wall_seconds": round(elapsed, 4),
        "cycles_per_sec": round(cycles_per_sec, 1),
    }})
    print(f"\nbig fabric: {result.cycles} cycles in {elapsed:.2f}s "
          f"({cycles_per_sec:,.0f} cycles/s)")
    assert result.extra.get("engine") == "array"
    assert result.cycles > 0 and elapsed > 0


def test_coherence_64c_cycles_per_second() -> None:
    """Fast-path throughput on a big-fabric L2-resident point.

    ``array_lines=384`` fits the bench-profile private L2 at 64 cores,
    so after the warm pass nearly every cycle is private-cache hits —
    the regime the batched coherence fast path (bucket-owned stepping,
    inline hit retirement) exists for.  Runs on the array engine so the
    measurement composes the two vectorized backends the way the
    large-fabric sweeps do.
    """
    start = time.perf_counter()
    result = run_workload("cachebw", "ordpush", num_cores=64, seed=1,
                          engine="array", array_lines=384, iters=4,
                          **bench_kwargs())
    elapsed = time.perf_counter() - start
    cycles_per_sec = result.cycles / elapsed
    _write_record({"coherence_64c": {
        "workload": "cachebw/ordpush/64c (array engine, L2-resident)",
        "engine": "array",
        "simulated_cycles": result.cycles,
        "wall_seconds": round(elapsed, 4),
        "cycles_per_sec": round(cycles_per_sec, 1),
    }})
    print(f"\ncoherence 64c: {result.cycles} cycles in {elapsed:.2f}s "
          f"({cycles_per_sec:,.0f} cycles/s)")
    assert result.extra.get("engine") == "array"
    assert result.cycles > 0 and elapsed > 0


def test_cache_dominated_cycles_per_second() -> None:
    """Coherence-layer throughput on an L2-resident shared-read point.

    ``array_lines=256`` fits the bench-profile 512-line private L2, so
    after the first pass the run is cache hits, protocol handlers, and
    prefetch traffic — router ticks are a minority of the profile.
    """
    start = time.perf_counter()
    result = run_workload("cachebw", "baseline", num_cores=16, seed=1,
                          array_lines=256, iters=6, **bench_kwargs())
    elapsed = time.perf_counter() - start
    cycles_per_sec = result.cycles / elapsed
    _write_record({"cache_path": {
        "workload": "cachebw/baseline/16c (L2-resident)",
        "simulated_cycles": result.cycles,
        "wall_seconds": round(elapsed, 4),
        "cycles_per_sec": round(cycles_per_sec, 1),
    }})
    print(f"\ncache path: {result.cycles} cycles in {elapsed:.2f}s "
          f"({cycles_per_sec:,.0f} cycles/s)")
    assert result.cycles > 0 and elapsed > 0


#: the warm-sweep grid: every (scheme, topology) point runs the same
#: 2-barrier warm phase; functional warming builds it once per scheme
WARM_SCHEMES = ("baseline", "ordpush")
WARM_TOPOLOGIES = ("mesh", "torus", "cmesh")
WARM_SIZES = dict(array_lines=512, iters=3)
WARM_BARRIERS = 2


def test_warm_sweep_amortizes_warmup() -> None:
    """Checkpointed warm sweep vs cold-start sweeping (>= 2x).

    The cold leg runs each of the six points end to end.  The warm leg
    builds one functional warm image per scheme (topology knobs are not
    part of a functional image's identity), restores it per point —
    the repeat restores served from the executor's in-process snapshot
    memo, not re-parsed from disk — and simulates only the
    post-checkpoint measured region in detail.
    """
    from repro.sim.sweep import (last_sweep_stats, reset_worker_memo,
                                 run_sweep as sweep)

    kw = dict(bench_kwargs(), **WARM_SIZES)
    warm_points = [SweepPoint.make("cachebw", scheme, num_cores=16, seed=1,
                                   topology=topology,
                                   warmup_barriers=WARM_BARRIERS,
                                   warmup_mode="functional", **kw)
                   for scheme in WARM_SCHEMES
                   for topology in WARM_TOPOLOGIES]

    start = time.perf_counter()
    cold = [run_workload("cachebw", scheme, num_cores=16, seed=1,
                         topology=topology, **kw)
            for scheme in WARM_SCHEMES for topology in WARM_TOPOLOGIES]
    cold_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-warm-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_worker_memo()
        try:
            start = time.perf_counter()
            warm = sweep(warm_points, jobs=1, cache=False)
            warm_s = time.perf_counter() - start
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)
    memo_hits = last_sweep_stats()["ckpt_memo_hits"]

    improvement = cold_s / warm_s
    _write_record({"warm_sweep": {
        "grid": f"{len(WARM_SCHEMES)} schemes x {len(WARM_TOPOLOGIES)} "
                f"topologies, warmup {WARM_BARRIERS}/{WARM_SIZES['iters']} "
                f"barriers (functional)",
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "improvement": round(improvement, 2),
        "ckpt_memo_hits": memo_hits,
    }})
    print(f"\nwarm sweep: cold {cold_s:.2f}s vs checkpointed "
          f"{warm_s:.2f}s -> {improvement:.2f}x")

    # Measured regions must be real simulations, not cache replays.
    assert all(r.cycles > 0 and r.instructions > 0 for r in warm)
    assert all(r.extra["warmup_mode"] == "functional" for r in warm)
    # The push shape survives warming: schemes keep their cold behavior.
    cold_pushes = {r.config: r.pushes_triggered for r in cold}
    warm_pushes = {r.config: r.pushes_triggered for r in warm}
    assert (warm_pushes["ordpush"] > 0) == (cold_pushes["ordpush"] > 0)
    assert warm_pushes["baseline"] == 0
    # 6 points over 2 images: 4 restores must come from the memo.
    assert memo_hits == 4
    assert improvement >= 2.0


def test_sweep_speedup_over_serial() -> None:
    """The sweep executor vs the naive serial path (>= 2.8x).

    Both legs run the figure-suite access pattern: three passes
    (figure scripts), each submitting the full grid plus a re-read of
    the baseline normalization column.  The serial leg simulates every
    submission; the executor dedups within a pass, streams commits to
    the result cache so later passes are pure hits, and spreads the
    one uncached pass over the worker budget in submission order
    (capped at the machine's cores — oversubscription is counted
    against it, not excused).

    Every pooled sweep worker checks that the initializer actually
    disabled its cyclic GC — a regression there fails this benchmark,
    not just the unit test.
    """
    from repro.sim.sweep import last_sweep_stats

    pass_points = _figure_pass_points()

    start = time.perf_counter()
    serial = []
    for _ in range(SWEEP_PASSES):
        serial = [run_workload(p.workload, p.config, num_cores=p.num_cores,
                               seed=p.seed, **dict(p.kwargs))
                  for p in pass_points]
    serial_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
        cache = ResultCache(tmp)
        start = time.perf_counter()
        swept, workers = [], 0
        for index in range(SWEEP_PASSES):
            swept = run_sweep(pass_points, jobs=SWEEP_JOBS, cache=cache)
            if index == 0:
                # the only executing pass; later ones are all hits
                workers = last_sweep_stats()["workers"]
        sweep_s = time.perf_counter() - start
        hits, misses = cache.hits, cache.misses

    improvement = serial_s / sweep_s
    _write_record({"sweep": {
        "grid": f"({len(SWEEP_WORKLOADS)} workloads x "
                f"{len(SWEEP_CONFIGS)} configs + "
                f"{len(SWEEP_WORKLOADS)} baseline re-reads) x "
                f"{SWEEP_PASSES} passes",
        "jobs": SWEEP_JOBS,
        "effective_workers": workers,
        "serial_seconds": round(serial_s, 3),
        "sweep_seconds": round(sweep_s, 3),
        "improvement": round(improvement, 2),
        "cache_hits": hits,
        "cache_misses": misses,
    }})
    print(f"\nsweep: serial {serial_s:.2f}s vs executor "
          f"{sweep_s:.2f}s -> {improvement:.2f}x "
          f"({hits} hits / {misses} misses)")

    # Results must be bit-identical to the serial path.
    assert [r.to_dict() for r in swept] == [r.to_dict() for r in serial]
    assert improvement >= 2.8


#: the sampled point: a saturated 64-core array-engine run whose tail
#: is ~185k cycles — long enough that four 6k-cycle regions are a
#: genuine subsample, heavy enough per cycle that the tail leg hurts
SAMPLED_SIZES = dict(iters=120, array_lines=64, l2_kb=2, l1_kb=1)
#: four regions at anchors 1-4; each runs a 3000-cycle detailed detach
#: window (the chained warm images quiesce at the hold, so the first
#: post-restore cycles are artificially fast) before 6000 measured
#: cycles — 36k detailed cycles total against the ~185k-cycle tail
SAMPLED_POLICY_KW = dict(samples=4, sample_cycles=6000,
                         detach_cycles=3000, warmup_mode="functional")


def test_sampled_sweep_beats_long_region() -> None:
    """Sampled estimation vs simulating the whole tail (>= 3x).

    The reference leg warms one barrier functionally and then simulates
    the entire remaining execution in detail.  The sampled leg forks
    four short measured regions from warm images at barriers 1-4 and
    pays only for their detach + measurement windows.  The gate is
    statistical *and* temporal: the sampled IPC's 95% confidence
    interval must cover the full-run IPC (the estimate is honest), and
    the sampled leg must be at least 3x faster end to end — warm-chain
    construction included.
    """
    from repro.sim.sampling import SamplingPolicy, run_sampled
    from repro.sim.sweep import reset_worker_memo

    policy = SamplingPolicy(**SAMPLED_POLICY_KW)
    kw = dict(num_cores=64, seed=1, engine="array", **SAMPLED_SIZES)

    with tempfile.TemporaryDirectory(prefix="repro-sampled-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_worker_memo()
        try:
            start = time.perf_counter()
            sampled = run_sampled("cachebw", "baseline", policy=policy,
                                  cache=False, **kw)
            sampled_s = time.perf_counter() - start
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)

    with tempfile.TemporaryDirectory(prefix="repro-sampled-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_worker_memo()
        try:
            start = time.perf_counter()
            reference = run_workload("cachebw", "baseline",
                                     warmup_barriers=1,
                                     warmup_mode="functional", **kw)
            long_s = time.perf_counter() - start
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)

    est = sampled.stats["ipc"]
    improvement = long_s / sampled_s
    _write_record({"sampled_sweep": {
        "workload": "cachebw/baseline/64c (array engine)",
        "policy": f"{policy.samples}x{policy.sample_cycles}cyc regions, "
                  f"{policy.detach_cycles}cyc detach, functional warm",
        "sampled_ipc_mean": round(est.mean, 3),
        "sampled_ipc_ci_half": round(est.ci_half, 3),
        "reference_ipc": round(reference.ipc, 3),
        "reference_cycles": reference.cycles,
        "covered": est.covers(reference.ipc),
        "long_seconds": round(long_s, 3),
        "sampled_seconds": round(sampled_s, 3),
        "improvement": round(improvement, 2),
    }})
    print(f"\nsampled sweep: long {long_s:.2f}s vs sampled "
          f"{sampled_s:.2f}s -> {improvement:.2f}x "
          f"(ipc {est.mean:.2f} +/- {est.ci_half:.2f}, "
          f"full run {reference.ipc:.2f})")

    # The estimate must be honest before it may be fast.
    assert est.count == policy.samples
    assert est.covers(reference.ipc), (
        f"sampled {est.mean:.3f} +/- {est.ci_half:.3f} does not cover "
        f"the full-run IPC {reference.ipc:.3f}")
    assert all(r.extra["measured_cycles"] == policy.sample_cycles
               for r in sampled.regions)
    assert all(r.extra["detach_cycles"] == policy.detach_cycles
               for r in sampled.regions)
    assert improvement >= 3.0
