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

Prints one JSON line: the per-pair ``cpu_s`` ratios (head / base),
their median and interquartile range, and the verdict.  Exits non-zero
when the median ratio is above ``THRESHOLD``, or when a run fails or
reports a wrong output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: measured seconds per run
SECONDS = 10
#: the largest median head/base ``cpu_s`` ratio that passes
THRESHOLD = 1.10


def cpu_s(tree: Path, workload: str) -> float:
    """Run the benchmark once in ``tree``; its ``cpu_s``."""
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
    return result["metrics"]["cpu_s"]["value"]


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

    report = {"workload": args.workload, "threshold": THRESHOLD,
              "base_cpu_s": [], "head_cpu_s": []}
    try:
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                report[f"{side}_cpu_s"].append(
                    cpu_s(getattr(args, side), args.workload))
    except RuntimeError as exc:
        report.update(verdict="error", error=str(exc))
        print(json.dumps(report))
        return 1
    ratios = [head / base for base, head
              in zip(report["base_cpu_s"], report["head_cpu_s"])]
    median = statistics.median(ratios)
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    passed = median <= THRESHOLD
    report.update(ratios=[round(r, 4) for r in ratios],
                  median=round(median, 4), iqr=[round(q1, 4), round(q3, 4)],
                  verdict="pass" if passed else "fail")
    print(json.dumps(report))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
