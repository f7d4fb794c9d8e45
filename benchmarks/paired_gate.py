"""Paired base/head gate on the simulator's benchmark.

    python benchmarks/paired_gate.py --base TREE --head TREE \
        --workload W [--pairs N]

Each pair runs ``simbench/run.py`` once in each tree, base first on
even pairs and head first on odd ones, so drift in host load falls on
both sides alike.  Every run is its own process started in its own
tree, and ``simbench/run.py`` puts that tree's ``src/`` first on
``PYTHONPATH``, so each side measures its own code.  A tree is any
checkout: ``git worktree add DIR REV``, or ``git archive REV | tar -x
-C DIR``.

Gates every metric in ``GATED`` on its median per-pair head/base
ratio: ``cpu_s`` against ``THRESHOLD``, every other metric against 1
plus the bound ``BENCHMARK.json`` gives it.  Prints one JSON line with
each metric's per-pair ratios, their median and interquartile range,
and the verdict.  Exits non-zero when any median ratio is above its
threshold, or when a run fails or reports a wrong output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict

#: measured seconds per run
SECONDS = 10
#: the gated end-to-end metrics; each is better when lower
GATED = ("cpu_s", "setup_s", "peak_rss_mb")
#: the largest median head/base ``cpu_s`` ratio that passes (tighter
#: than the benchmark's own ``cpu_s`` bound)
THRESHOLD = 1.10
#: the benchmark declaration beside this script's tree
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def thresholds() -> Dict[str, float]:
    """The largest median head/base ratio that passes, per metric."""
    bounds = {metric["name"]: metric["bound"] for metric
              in json.loads(BENCHMARK.read_text())["end_to_end"]}
    return {name: THRESHOLD if name == "cpu_s" else 1 + bounds[name]
            for name in GATED}


def measure(tree: Path, workload: str) -> Dict[str, float]:
    """Run the benchmark once in ``tree``; its gated metrics."""
    command = [sys.executable, "simbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree}: output check failed")
    return {name: result["metrics"][name]["value"] for name in GATED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=4,
                        help="base/head pairs (>= 2; a claimed gain "
                             "needs >= 10)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2")

    limits = thresholds()
    runs = {"base": [], "head": []}
    report = {"workload": args.workload}
    try:
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(measure(getattr(args, side),
                                          args.workload))
    except RuntimeError as exc:
        report.update(runs, verdict="error", error=str(exc))
        print(json.dumps(report))
        return 1
    passed = True
    for name, limit in limits.items():
        ratios = [head[name] / base[name]
                  for base, head in zip(runs["base"], runs["head"])]
        median = statistics.median(ratios)
        q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
        passed &= median <= limit
        report[name] = {
            "threshold": round(limit, 4),
            "base": [run[name] for run in runs["base"]],
            "head": [run[name] for run in runs["head"]],
            "ratios": [round(r, 4) for r in ratios],
            "median": round(median, 4), "iqr": [round(q1, 4), round(q3, 4)],
            "verdict": "pass" if median <= limit else "fail"}
    report["verdict"] = "pass" if passed else "fail"
    print(json.dumps(report))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
