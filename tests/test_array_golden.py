"""Bit-identical golden records for the array NoC engine.

``tests/test_arrayengine.py`` holds the array engine to *statistical*
bounds against the event reference.  This suite pins its own exact
output: ``tests/data/array_golden.json`` holds full ``SimResult``
records of 16-core ``engine="array"`` runs across the four fabrics and
the baseline/push schemes (plus one 64-core point and three
push-triggering sizes that drive multicast replication and the
in-network filter).  A change to the engine's internal bookkeeping —
credit counting, slot search, batching — must reproduce every record
exactly; a change that is meant to alter array-engine timing must
re-capture the file and say why.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.sim.config import bench_kwargs
from repro.sim.runner import run_workload

GOLDEN = pathlib.Path(__file__).parent / "data" / "array_golden.json"
RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def _record_id(rec: dict) -> str:
    sizes = "-".join(f"{k}{v}" for k, v in sorted(rec["sizes"].items()))
    return (f"{rec['topology']}-{rec['workload']}-{rec['config']}-"
            f"{rec['num_cores']}c-{sizes}")


@pytest.mark.parametrize("record", RECORDS,
                         ids=[_record_id(rec) for rec in RECORDS])
def test_array_engine_bit_identical(record: dict) -> None:
    result = run_workload(record["workload"], record["config"],
                          num_cores=record["num_cores"], seed=1,
                          engine="array", topology=record["topology"],
                          **bench_kwargs(), **record["sizes"])
    got = result.to_dict()
    want = record["result"]
    assert set(got) == set(want)
    mismatched = {key: (got[key], want[key])
                  for key in want if got[key] != want[key]}
    assert not mismatched, (
        f"array-engine SimResult diverged from the golden record on "
        f"{sorted(mismatched)}: {mismatched}")


def test_array_golden_covers_fabrics_and_push_paths() -> None:
    """Every fabric and scheme appears, and the scalar sidecars run."""
    assert {rec["topology"] for rec in RECORDS} == {
        "mesh", "torus", "cmesh", "ring"}
    assert {"baseline", "push_mc_filter", "pushack",
            "ordpush"} <= {rec["config"] for rec in RECORDS}
    assert any(rec["num_cores"] == 64 for rec in RECORDS)
    results = [rec["result"] for rec in RECORDS]
    assert all(res["extra"].get("engine") == "array" for res in results)
    # multicast replication and the filter's request drops are covered
    assert any(res["pushes_triggered"] > 0 for res in results)
    assert any(res["requests_filtered"] > 0 for res in results)
