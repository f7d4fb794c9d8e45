"""The economics of checkpointed and sampled execution.

Two in-process comparisons (``jobs=1``, no worker processes), each
timing both of its legs in this process's CPU seconds
(``time.process_time``), which other load on the host leaves nearly
untouched where it stretches wall time:

* **warm sweep** — a 2-scheme x 3-topology grid where every point
  shares two thirds of its execution (the cache-warming phase),
  comparing cold-start full runs against checkpointed execution: one
  functional warm image per scheme, reused across the topology axis,
  with only the measured region simulated in detail per point;
* **sampled sweep** — a long 64-core point estimated by four short
  measured regions (with a detailed detach window each) across
  successive barrier phases versus simulating the whole tail, gated
  on the sampled CI actually covering the full-run IPC.

Simulator speed itself is measured by ``simbench/run.py`` and gated by
``benchmarks/paired_gate.py``; these tests hold what a checkpoint or a
sample must buy back within one run.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.sim.config import bench_kwargs
from repro.sim.runner import run_workload
from repro.sim.sweep import SweepPoint

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

    start = time.process_time()
    cold = [run_workload("cachebw", scheme, num_cores=16, seed=1,
                         topology=topology, **kw)
            for scheme in WARM_SCHEMES for topology in WARM_TOPOLOGIES]
    cold_s = time.process_time() - start

    with tempfile.TemporaryDirectory(prefix="repro-warm-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_worker_memo()
        try:
            start = time.process_time()
            warm = sweep(warm_points, jobs=1, cache=False)
            warm_s = time.process_time() - start
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)
    memo_hits = last_sweep_stats()["ckpt_memo_hits"]

    improvement = cold_s / warm_s
    print(f"\nwarm sweep: cold {cold_s:.2f} CPU s vs checkpointed "
          f"{warm_s:.2f} CPU s -> {improvement:.2f}x "
          f"({memo_hits} memo hits)")

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
    the sampled leg must take at most a third of the CPU seconds —
    warm-chain construction included.
    """
    from repro.sim.sampling import SamplingPolicy, run_sampled
    from repro.sim.sweep import reset_worker_memo

    policy = SamplingPolicy(**SAMPLED_POLICY_KW)
    kw = dict(num_cores=64, seed=1, engine="array", **SAMPLED_SIZES)

    with tempfile.TemporaryDirectory(prefix="repro-sampled-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_worker_memo()
        try:
            start = time.process_time()
            sampled = run_sampled("cachebw", "baseline", policy=policy,
                                  cache=False, **kw)
            sampled_s = time.process_time() - start
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)

    with tempfile.TemporaryDirectory(prefix="repro-sampled-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp
        reset_worker_memo()
        try:
            start = time.process_time()
            reference = run_workload("cachebw", "baseline",
                                     warmup_barriers=1,
                                     warmup_mode="functional", **kw)
            long_s = time.process_time() - start
        finally:
            os.environ.pop("REPRO_CACHE_DIR", None)

    est = sampled.stats["ipc"]
    improvement = long_s / sampled_s
    print(f"\nsampled sweep: long {long_s:.2f} CPU s vs sampled "
          f"{sampled_s:.2f} CPU s -> {improvement:.2f}x "
          f"(ipc {est.mean:.3f} +/- {est.ci_half:.3f}, "
          f"full run {reference.ipc:.3f} over {reference.cycles} cycles)")

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
