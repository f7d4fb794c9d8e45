"""The simulator's benchmark: measure one workload and check its outputs.

    python3 simbench/run.py --workload figure_grid --seed 7 --seconds 30 --trace 0

Prints a ``{"record": ...}`` line describing the run and, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs an untraced and a traced process and reports the per-layer
metrics.  ``--record-reference`` rewrites a workload's default-seed
digests in ``reference.json``.  README.md beside this file describes
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_workloads import DEFAULT_SEED, WORKLOADS
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: every store a run creates lives here, inside the checkout
SCRATCH = ROOT / ".simbench_tmp"

#: escape hatches that each make the simulator a different program
REFUSED_ENV = ("REPRO_NO_CACHE", "REPRO_NO_FASTPATH", "REPRO_NO_POOL",
               "REPRO_NO_WORKER_MEMO")

#: set-up-only processes per untraced run; with the measuring process
#: they give the nine set-up samples whose median is ``setup_s``
SETUP_PROBES = 8

#: seconds after which a run's remaining processes are killed
RUN_LIMIT_S = 170


class BenchError(Exception):
    """A benchmark process could not produce its report."""


def session(mode: str, args, tmp: str, started: float,
            seconds: float = 0.0) -> dict:
    """Run one ``session.py`` process to completion; its report."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix=f"{mode}-", dir=tmp)
    # the same string hashes, and one BLAS thread, in every process
    env.update(PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    command = [sys.executable, str(HERE / "session.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds)]
    remaining = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=ROOT, check=False,
                              timeout=max(remaining, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process passed the {RUN_LIMIT_S} s "
                         "run limit and was killed") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with status "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(args, tmp: str, started: float):
    """Set-up-only processes, then one untraced measuring process."""
    setups = [session("setup", args, tmp, started)
              for _ in range(SETUP_PROBES)]
    run = session("measure", args, tmp, started, args.seconds)
    setups.append(run)
    attempted, failed = run["attempted"], run["failed"]
    metrics = {
        "cpu_s": (statistics.median(run["ref_cpus"]), "s"),
        "sim_kips": (statistics.median(run["kips"]) if run["kips"] else 0.0,
                     "kinst/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    record = {"grids": run["grids"], "wall_s": statistics.median(run["walls"]),
              "walls_s": run["walls"], "cpus_s": run["cpus"],
              "ref_cpus_s": run["ref_cpus"],
              "setup_ref_s": [p["setup_s"] for p in setups],
              "setup_cpu_s": [p["setup_cpu_s"] for p in setups],
              "setup_wall_s": [p["setup_wall_s"] for p in setups],
              "host_calibration_s": run["probe_s"],
              "host_probes": run["probes"],
              "referenced": run["referenced"]}
    return attempted, failed, metrics, record, []


def _per_unit_ns(seconds: float, count: int) -> float:
    return seconds * 1e9 / count if count else 0.0


def per_layer(args, tmp: str, started: float):
    """An untraced and a traced measuring process, half the time each."""
    half = args.seconds / 2
    plain = session("measure", args, tmp, started, half)
    traced = session("traced", args, tmp, started, half)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    problems = []
    if traced["digests"] != plain["digests"]:
        problems.append("traced outputs differ from untraced outputs")
        failed = plain["failed"] + traced["attempted"]
    layers = traced["layers"]
    if args.workload == "fabric_64c" and not layers["cpu.fastpath"][1]:
        problems.append("traced fabric_64c never entered the fast path")

    metrics = {}
    for layer in LAYERS:
        self_s, calls = layers[layer]
        if layer == "workloads.registry":
            # trace compilation happens in set-up, which it moves
            self_s += traced["setup_layers"][layer][0]
            calls += traced["setup_layers"][layer][1]
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    sim = plain["sim"] or dict.fromkeys(
        ("cycles", "instructions", "flits", "l2_accesses", "pushes",
         "push_accuracy"), 0)
    stepped = layers["cpu.fastpath"][1] + layers["common.scheduler"][1]
    metrics["cpu.fastpath.cycle_share"] = (
        layers["cpu.fastpath"][1] / stepped if stepped else 0.0, "frac")
    for layer in ("noc.network", "noc.arrayengine"):
        metrics[f"{layer}.ns_per_flit"] = (
            _per_unit_ns(layers[layer][0], sim["flits"]), "ns")
    metrics["cache.private_cache.ns_per_access"] = (
        _per_unit_ns(layers["cache.private_cache"][0], sim["l2_accesses"]),
        "ns")
    metrics["store.ckpt.bytes"] = (plain["ckpt_bytes"], "bytes")
    sweep = plain["sweep"] or {}
    metrics["sim.sweep.ckpt_memo_hit_ratio"] = (
        sweep.get("ckpt_memo_hit_ratio", 0.0), "frac")
    for phase in ("probe", "plan", "dispatch", "commit"):
        metrics[f"sim.sweep.{phase}_s"] = (sweep.get(f"{phase}_s", 0.0), "s")
    traced_wall = statistics.mean(traced["walls"])
    metrics["unattributed.self_s"] = (traced_wall - traced["spanned_s"], "s")
    metrics["sim.cycles"] = (sim["cycles"], "count")
    metrics["sim.instructions"] = (sim["instructions"], "count")
    metrics["noc.flits"] = (sim["flits"], "count")
    metrics["push.pushes_triggered"] = (sim["pushes"], "count")
    metrics["push.accuracy"] = (sim["push_accuracy"], "frac")
    metrics["grid.wall_s"] = (statistics.median(plain["walls"]), "s")
    metrics["trace.wall_s"] = (statistics.median(traced["walls"]), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced["walls"])
        / statistics.median(plain["walls"]), "ratio")
    metrics["trace.attributed_frac"] = (
        traced["spanned_s"] / traced_wall, "frac")
    metrics["host.calibration_s"] = (plain["probe_s"], "s")
    record = {"grids": [plain["grids"], traced["grids"]],
              "walls_s": plain["walls"], "traced_walls_s": traced["walls"],
              "host_calibration_s": plain["probe_s"],
              "referenced": plain["referenced"]}
    return attempted, failed, metrics, record, problems


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Measure one workload of the simulator's benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="trace seed of every point (default: %(default)s, "
                             "the seed reference.json pins)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the workload's default-seed digests "
                             "in reference.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"simbench: refusing to run with {', '.join(refused)} set: "
              "each makes the benchmark measure a different program",
              file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    SCRATCH.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        if args.record_reference:
            report = session("record", args, tmp, started)
            print(f"simbench: recorded {report['recorded']} digests for "
                  f"{args.workload}", file=sys.stderr)
            return 0
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics, record, problems = measure(
            args, tmp, started)
    except BenchError as exc:
        print(f"simbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # fails while another run still uses it

    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  problems=problems)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
