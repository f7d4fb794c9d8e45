"""Pinned trace bytes: every catalogued workload and benchmark trace.

``tests/data/trace_digests.json`` holds the SHA-256 of
``dump_buffers(...)`` for each of the 15 catalogued workloads at 16
cores (default sizes, seeds 1 and 7) and for every trace point of the
``simbench`` workloads at their default seed.  Stored ``traces``
entries are keyed by the point (``trace_key``), not by their bytes, so
a compile that made different bytes would let stored and freshly
built buffers disagree and shift simulated results: trace generation
and compilation may get faster, never different.

Re-record (only when a trace change is intended, together with a
``TRACE_SCHEMA_VERSION`` bump)::

    PYTHONPATH=src python tests/test_trace_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from typing import Dict, List

import pytest

from repro.cpu.tracebuf import TraceBuffer, dump_buffers
from repro.workloads.registry import build_traces, workload_names

DATA = pathlib.Path(__file__).parent / "data" / "trace_digests.json"

#: empty only while ``_record`` writes the file for the first time (the
#: coverage test then fails)
_POINTS: List[Dict] = (json.loads(DATA.read_text(encoding="utf-8"))
                       if DATA.is_file() else [])


def trace_digest(workload: str, num_cores: int, seed: int,
                 sizes: Dict) -> str:
    buffers = [TraceBuffer.compile(trace)
               for trace in build_traces(workload, num_cores, seed=seed,
                                         **sizes)]
    return hashlib.sha256(dump_buffers(buffers)).hexdigest()


def _point_id(point: Dict) -> str:
    sizes = ",".join(f"{k}={v}" for k, v in sorted(point["sizes"].items()))
    return (f"{point['workload']}-{point['num_cores']}c-s{point['seed']}"
            + (f"-{sizes}" if sizes else ""))


def test_covers_every_catalogued_workload() -> None:
    pinned = {(p["workload"], p["seed"]) for p in _POINTS
              if p["num_cores"] == 16 and not p["sizes"]}
    assert pinned == {(name, seed) for name in workload_names()
                      for seed in (1, 7)}


@pytest.mark.parametrize("point", _POINTS, ids=_point_id)
def test_trace_bytes_unchanged(point: Dict) -> None:
    assert trace_digest(point["workload"], point["num_cores"],
                        point["seed"], point["sizes"]) == point["sha256"]


def _record() -> None:
    """Rewrite the data file from the source tree on ``PYTHONPATH``."""
    repo = pathlib.Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(repo / "simbench"))
    from bench_workloads import DEFAULT_SEED, WORKLOADS, trace_args

    points = [(name, 16, seed, ()) for name in workload_names()
              for seed in (1, 7)]
    for workload in WORKLOADS.values():
        points.extend(map(trace_args, workload.points(DEFAULT_SEED)))
    records = [dict(workload=name, num_cores=cores, seed=seed,
                    sizes=dict(sizes),
                    sha256=trace_digest(name, cores, seed, dict(sizes)))
               for name, cores, seed, sizes in dict.fromkeys(points)]
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} digests to {DATA}")


if __name__ == "__main__":
    _record()
