"""Pinned fabric tables: every topology's port graph and routing.

``tests/data/topology_digests.json`` holds one SHA-256 per fabric over
the canonical JSON of everything the network layer reads from a
topology: its sizes and VC classes, ``port_tables()``, the
``RoutingTables`` XY/YX next hops, the port names (keyed by port id),
the memory-controller tiles and the tile-to-tile hop distances.  The
fabrics cover mesh and torus at 1xN, Nx1, 2x8 and every shape from 4x4
to 8x8, cmesh at concentrations 1, 2, 4 and 8 at 16 and 64 tiles, ring
at 1-16 and 64 tiles, and one 256-tile fabric of each kind.  A
topology may be restructured freely; the tables it yields may not
change.

Re-record (only when a fabric change is intended, together with a
``RESULT_SCHEMA_VERSION`` bump)::

    PYTHONPATH=src python tests/test_topology_digests.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterator, List

import pytest

from repro.common.params import NoCParams
from repro.noc.routing import RoutingTables
from repro.noc.topology import build_topology, squarest_shape

DATA = pathlib.Path(__file__).parent / "data" / "topology_digests.json"

#: empty only while ``_record`` writes the file for the first time (the
#: coverage test then fails)
_FABRICS: List[Dict] = (json.loads(DATA.read_text(encoding="utf-8"))
                        if DATA.is_file() else [])


def _fabric_params() -> Iterator[Dict]:
    """NoCParams keywords of every pinned fabric."""
    shapes = ([(1, n) for n in range(1, 9)] + [(n, 1) for n in range(2, 9)]
              + [(2, 8)]
              + [(r, c) for r in range(4, 9) for c in range(4, 9)]
              + [(16, 16)])
    for kind in ("mesh", "torus"):
        for rows, cols in shapes:
            yield dict(topology=kind, rows=rows, cols=cols)
    for tiles in (16, 64):
        rows, cols = squarest_shape(tiles)
        for concentration in (1, 2, 4, 8):
            yield dict(topology="cmesh", rows=rows, cols=cols,
                       concentration=concentration)
    yield dict(topology="cmesh", rows=16, cols=16, concentration=4)
    for tiles in [*range(1, 17), 64, 256]:
        rows, cols = squarest_shape(tiles)
        yield dict(topology="ring", rows=rows, cols=cols)


def fabric_digest(params: Dict) -> str:
    topology = build_topology(NoCParams(**params))
    tables = RoutingTables(topology)
    tiles = range(topology.num_tiles)
    record = dict(
        num_tiles=topology.num_tiles,
        num_routers=topology.num_routers,
        radix=topology.radix,
        num_vc_classes=topology.num_vc_classes,
        ports_are_directions=topology.ports_are_directions,
        port_tables=topology.port_tables(),
        xy=tables.xy,
        yx=tables.yx,
        port_names={str(port): topology.port_name(port)
                    for port in range(topology.radix)},
        memory_controller_tiles=list(topology.memory_controller_tiles()),
        hop_distance=[[topology.hop_distance(a, b) for b in tiles]
                      for a in tiles])
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fabric_id(params: Dict) -> str:
    suffix = (f"-c{params['concentration']}"
              if "concentration" in params else "")
    return f"{params['topology']}-{params['rows']}x{params['cols']}{suffix}"


def test_covers_every_pinned_fabric() -> None:
    assert [f["params"] for f in _FABRICS] == list(_fabric_params())


@pytest.mark.parametrize("fabric", _FABRICS,
                         ids=lambda f: _fabric_id(f["params"]))
def test_fabric_tables_unchanged(fabric: Dict) -> None:
    assert fabric_digest(fabric["params"]) == fabric["sha256"]


def _record() -> None:
    """Rewrite the data file from the source tree on ``PYTHONPATH``."""
    records = [dict(params=params, sha256=fabric_digest(params))
               for params in _fabric_params()]
    DATA.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} digests to {DATA}")


if __name__ == "__main__":
    _record()
