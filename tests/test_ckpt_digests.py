"""Pinned checkpoint bytes: warm images across modes, fabrics and builds.

``tests/data/ckpt_digests.json`` holds the SHA-256 of the stored
``ckpt`` payload (the canonical JSON text ``CheckpointStore.put``
writes) for a small matrix of warm images: functional and detailed
warming; mesh, torus, ring and cmesh fabrics; a prefetcher-on
``baseline`` and a push-on ``ordpush`` point; 4 and 16 cores; direct
images and chained ones, built by restoring a stored anchor-1 ancestor
and running on to anchor 3.  Stored images are keyed by the point, not
by their bytes, so a capture or restore that wrote different bytes
would silently fork every warm store: the checkpoint layout may be
produced by other code, never differ.

Re-record (only when a layout change is intended, together with a
``CKPT_SCHEMA_VERSION`` bump)::

    PYTHONPATH=src python tests/test_ckpt_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import tempfile
from typing import Dict, List

import pytest

from repro.sim.checkpoint import CheckpointStore, checkpoint_key
from repro.sim.config import bench_kwargs
from repro.sim.runner import (ensure_warm_state, ensure_warm_states,
                              resolve_point)
from repro.store import Store
from repro.workloads.registry import build_trace_buffers

DATA = pathlib.Path(__file__).parent / "data" / "ckpt_digests.json"

#: the workload sizes per core count (16 cores on the scaled caches)
SIZES = {4: dict(iters=4), 16: dict(bench_kwargs(), array_lines=256,
                                    iters=4)}

#: (mode, topology, config, cores, chained); functional images ignore
#: the fabric, so they are pinned once per (config, cores, build)
MATRIX = [
    *(("detailed", topology, config, 4, False)
      for topology in ("mesh", "torus", "ring", "cmesh")
      for config in ("baseline", "ordpush")),
    ("detailed", "mesh", "ordpush", 16, True),
    ("detailed", "torus", "baseline", 16, True),
    ("detailed", "ring", "ordpush", 16, False),
    ("detailed", "cmesh", "baseline", 16, False),
    ("functional", "mesh", "baseline", 4, False),
    ("functional", "mesh", "ordpush", 4, True),
    ("functional", "mesh", "ordpush", 16, False),
    ("functional", "mesh", "baseline", 16, True),
]

#: empty only while ``_record`` writes the file for the first time (the
#: coverage test then fails)
_POINTS: List[Dict] = (json.loads(DATA.read_text(encoding="utf-8"))
                       if DATA.is_file() else [])


def ckpt_digest(mode: str, topology: str, config: str, cores: int,
                chained: bool, root: pathlib.Path) -> str:
    """Build one image into an empty store at ``root``; hash its text.

    A direct image holds at barrier 2.  A chained image is anchor 3,
    built after anchor 1 is stored, so the chain builder restores that
    ancestor before it runs on.
    """
    sizes = dict(SIZES[cores], topology=topology)
    params, wl_kwargs = resolve_point("cachebw", config, cores, **sizes)
    traces = build_trace_buffers("cachebw", num_cores=cores, seed=1,
                                 **wl_kwargs)
    store = CheckpointStore(root)
    barriers = 3 if chained else 2
    if chained:
        for anchors in ([1], [barriers]):
            ensure_warm_states("cachebw", config, params, traces, cores, 1,
                               wl_kwargs, anchors, mode, store)
    else:
        ensure_warm_state("cachebw", config, params, traces, cores, 1,
                          wl_kwargs, barriers, mode, store)
    key = checkpoint_key(params, "cachebw", cores, 1, wl_kwargs, barriers,
                         mode, chained=chained)
    return hashlib.sha256(Store(root).get("ckpt", key)).hexdigest()


def _point_id(point: Dict) -> str:
    return (f"{point['mode']}-{point['topology']}-{point['config']}-"
            f"{point['cores']}c-{'chained' if point['chained'] else 'direct'}")


def test_covers_the_matrix() -> None:
    pinned = [(p["mode"], p["topology"], p["config"], p["cores"],
               p["chained"]) for p in _POINTS]
    assert pinned == MATRIX


@pytest.mark.parametrize("point", _POINTS, ids=_point_id)
def test_ckpt_bytes_unchanged(point: Dict, tmp_path) -> None:
    assert ckpt_digest(point["mode"], point["topology"], point["config"],
                       point["cores"], point["chained"],
                       tmp_path) == point["sha256"]


def _record() -> None:
    """Rewrite the data file from the source tree on ``PYTHONPATH``."""
    records = []
    for mode, topology, config, cores, chained in MATRIX:
        with tempfile.TemporaryDirectory() as root:
            records.append(dict(
                mode=mode, topology=topology, config=config, cores=cores,
                chained=chained,
                sha256=ckpt_digest(mode, topology, config, cores, chained,
                                   pathlib.Path(root))))
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} digests to {DATA}")


if __name__ == "__main__":
    _record()
