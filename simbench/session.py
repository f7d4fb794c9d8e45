"""One benchmark process: set a workload up, run its grid in a closed
loop, and check every output.

``run.py`` starts this script with ``REPRO_CACHE_DIR`` naming a fresh,
empty directory and reads the JSON object it prints as its last line.
Modes:

* ``setup`` times set-up alone: imports (repro, numpy), a fresh store,
  and the trace buffers of every point;
* ``measure`` sets up, then repeats the grid for ``--seconds`` with
  tracing off; both are timed at reference host speed
  (``hostclock.py``);
* ``traced`` does the same with span wrappers (``spans.py``) installed
  before any simulator object is built, and without host probes;
* ``record`` runs one grid at the default seed and writes its digests
  to ``reference.json``.
"""

import time

#: set-up wall time is counted from the first statement of the process
_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_workloads as bw  # noqa: E402
from hostclock import HostClock, to_reference  # noqa: E402

MODES = ("setup", "measure", "traced", "record")

#: CPU seconds between host-speed probes during set-up and during grids
SETUP_PROBE_INTERVAL = 0.01
GRID_PROBE_INTERVAL = 0.05

#: executor phases that ``last_sweep_stats()["timings"]`` reports
PHASES = ("probe", "plan", "dispatch", "commit")


def set_up(workload: bw.Workload, seed: int):
    """Imports, a fresh store and compiled traces; the grid's points."""
    import numpy  # noqa: F401  (the array engine's; paid here, not per grid)

    import repro.noc.arrayengine  # noqa: F401
    import repro.sim.sampling  # noqa: F401
    from repro.workloads import registry

    registry.TRACE_CACHE.memo.clear()
    points = workload.points(seed)
    bw.compile_traces(points)
    return points


def run_loop(workload: bw.Workload, points, seconds: float, tracer=None,
             clock=None):
    """Repeat the grid, each time on a fresh store with the warm-image
    memo reset, until ``seconds`` have passed; one dict per grid.

    With a running ``clock``, each grid's times exclude the probes
    taken during it, and ``ref_cpu`` is its CPU time at reference
    speed."""
    from repro.sim import sweep
    from repro.store import Store

    scratch = Path(os.environ["REPRO_CACHE_DIR"]).parent
    grids = []
    deadline = time.perf_counter() + seconds
    while True:
        store = Path(tempfile.mkdtemp(prefix="grid-", dir=scratch))
        os.environ["REPRO_CACHE_DIR"] = str(store)
        sweep.reset_worker_memo()
        gc.collect()
        if clock is not None:
            clock.take()
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            outcome = bw.run_grid(workload, points)
        except Exception:  # the grid's operations count as failed
            traceback.print_exc()
            outcome = None
        grid = {"wall": time.perf_counter() - start,
                "cpu": time.process_time() - start_cpu, "outcome": outcome}
        if clock is not None:
            samples = clock.take()
            grid["ref_cpu"] = to_reference(grid["cpu"], samples)
            grid["probes"] = samples
            grid["wall"] -= sum(samples)
            grid["cpu"] -= sum(samples)
        if tracer is not None:
            grid["layers"], grid["spanned"] = tracer.take()
        if outcome is not None:
            grid["sweep"] = sweep.last_sweep_stats()
            grid["ckpt_bytes"] = Store(store).stats()["checkpoints"]["bytes"]
        shutil.rmtree(store)
        grids.append(grid)
        if time.perf_counter() >= deadline:
            return grids


def evaluate(workload: bw.Workload, points, grids, seed: int):
    """Attempted and failed operations, the first good grid's digests,
    and whether they were checked against ``reference.json``."""
    reference = (bw.load_reference(workload.name)
                 if seed == bw.DEFAULT_SEED else None)
    attempted = failed = 0
    first = invariant_bad = None
    for grid in grids:
        attempted += workload.ops_per_grid
        outcome = grid["outcome"]
        if outcome is None or grid["sweep"]["cache_hits"]:
            # raised, or replayed stored results instead of simulating
            failed += workload.ops_per_grid
            continue
        table = bw.digests(outcome)
        if first is None:
            first = table
        bad = {label for label, digest in table.items()
               if first.get(label) != digest}
        if reference is not None:
            bad |= {label for label, digest in table.items()
                    if reference.get(label) != digest}
        else:
            if invariant_bad is None:
                invariant_bad = bw.invariant_failures(workload, points,
                                                      outcome)
            bad |= invariant_bad
        failed += bw.failed_ops(outcome, bad)
    return attempted, failed, first or {}, reference is not None


def sim_counts(outcome: bw.Outcome) -> dict:
    """Exact simulated totals of one grid (denominators and the
    identity proof of the per-layer report)."""
    results = [result for _, result in outcome.ops]
    received = sum(sum(r.push_usage.values()) for r in results)
    useful = sum(r.push_usage["push_miss_to_hit"]
                 + r.push_usage["push_early_resp"] for r in results)
    return {
        "cycles": sum(r.cycles for r in results),
        "instructions": sum(r.instructions for r in results),
        "flits": sum(r.total_flits for r in results),
        "l2_accesses": sum(r.l2_demand_accesses for r in results),
        "pushes": sum(r.pushes_triggered for r in results),
        "push_accuracy": useful / received if received else 0.0,
    }


def sweep_summary(good) -> dict:
    """Medians over grids of the executor's phase timings and of the
    share of executed points whose warm restore hit the memo."""
    stats = [grid["sweep"] for grid in good]
    summary = {f"{phase}_s": statistics.median(
        s["timings"][phase] for s in stats) for phase in PHASES}
    summary["ckpt_memo_hit_ratio"] = statistics.median(
        s["ckpt_memo_hits"] / s["executed"] if s["executed"] else 0.0
        for s in stats)
    return summary


def emit(report: dict) -> int:
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--workload", choices=sorted(bw.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=bw.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    workload = bw.WORKLOADS[args.workload]

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    seed = bw.DEFAULT_SEED if args.mode == "record" else args.seed
    # spans would count the probes as simulator time
    clock = HostClock() if tracer is None else None
    if clock is not None:
        clock.start(SETUP_PROBE_INTERVAL)
    points = set_up(workload, seed)
    # CPU seconds since the process started (time the host lends other
    # tenants does not count) and wall seconds since the first
    # statement, both less the probes
    report = {"setup_cpu_s": time.process_time(),
              "setup_wall_s": time.perf_counter() - _START}
    if clock is not None:
        samples = clock.take()
        report["setup_s"] = to_reference(report["setup_cpu_s"], samples)
        report["setup_cpu_s"] -= sum(samples)
        report["setup_wall_s"] -= sum(samples)
        report["setup_probe_s"] = (statistics.median(samples)
                                   if samples else None)
        clock.stop()
    if args.mode == "setup":
        return emit(report)
    if tracer is not None:
        report["setup_layers"], _ = tracer.take()

    if args.mode == "record":
        outcome = run_loop(workload, points, 0.0)[0]["outcome"]
        if outcome is None:
            return 1
        bw.save_reference(workload.name, bw.digests(outcome))
        return emit({"recorded": len(bw.digests(outcome))})

    if clock is not None:
        clock.start(GRID_PROBE_INTERVAL)
    grids = run_loop(workload, points, args.seconds, tracer, clock)
    if clock is not None:
        clock.stop()
    attempted, failed, first, referenced = evaluate(workload, points,
                                                    grids, seed)
    good = [grid for grid in grids if grid["outcome"] is not None]
    sims = [sim_counts(grid["outcome"]) for grid in good]
    report.update(
        grids=len(grids),
        walls=[grid["wall"] for grid in grids],
        cpus=[grid["cpu"] for grid in grids],
        attempted=attempted, failed=failed, referenced=referenced,
        digests=first,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        sim=sims[0] if sims else None,
        sweep=sweep_summary(good) if good else None,
        ckpt_bytes=(statistics.median(grid["ckpt_bytes"] for grid in good)
                    if good else 0),
    )
    if tracer is not None:
        count = len(grids)
        report["layers"] = {
            layer: [sum(grid["layers"][layer][0] for grid in grids) / count,
                    round(sum(grid["layers"][layer][1] for grid in grids)
                          / count)]
            for layer in grids[0]["layers"]}
        report["spanned_s"] = sum(grid["spanned"] for grid in grids) / count
    else:
        probes = [s for grid in grids for s in grid["probes"]]
        report.update(
            ref_cpus=[grid["ref_cpu"] for grid in grids],
            # per reference-speed CPU second: neither the time the host
            # gives other tenants nor its drifting speed moves it
            kips=[sim["instructions"] / grid["ref_cpu"] / 1e3
                  for sim, grid in zip(sims, good)],
            probe_s=statistics.median(probes), probes=len(probes))
    return emit(report)


if __name__ == "__main__":
    sys.exit(main())
