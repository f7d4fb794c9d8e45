"""Topology tests: the grid fabrics (mesh, torus, cmesh) and the ring."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError
from repro.common.params import NoCParams
from repro.noc.routing import Direction, OPPOSITE
from repro.noc.topology import Grid, Ring, build_topology, squarest_shape


def mesh(rows: int, cols: int) -> Grid:
    return Grid("mesh", rows, cols)


def torus(rows: int, cols: int) -> Grid:
    return Grid("torus", rows, cols, wrap=True)


def cmesh(tiles: int, concentration: int = 4) -> Grid:
    return Grid("cmesh", *squarest_shape(tiles // concentration),
                concentration)


def _link_ports(topology, router: int):
    return [port for port in topology.router_ports(router)
            if topology.link(router, port) is not None]


def _route_to(topology, src_tile: int, dest_tile: int,
              discipline: str):
    """Follow routing decisions from src's router; returns the list of
    routers visited (excluding the final ejection)."""
    cur, _ = topology.attach(src_tile)
    visited = [cur]
    while True:
        port = topology.route(discipline, cur, dest_tile)
        link = topology.link(cur, port)
        if link is None:
            assert topology.eject_tile(cur, port) == dest_tile
            return visited
        cur = link[0]
        visited.append(cur)
        assert len(visited) <= 4 * (topology.num_tiles + 4), "routing loop"


class TestMeshBasics:
    def test_coords_roundtrip(self) -> None:
        # tiles are numbered row-major: tile r * cols + c sits at (r, c)
        grid = mesh(4, 4)
        for row in range(4):
            for col in range(4):
                assert grid.hop_distance(0, row * 4 + col) == row + col

    def test_corner_has_two_neighbors(self) -> None:
        assert len(_link_ports(mesh(4, 4), 0)) == 2

    def test_center_has_four_neighbors(self) -> None:
        assert len(_link_ports(mesh(4, 4), 5)) == 4

    def test_edge_rejects_out_of_range(self) -> None:
        grid = mesh(4, 4)
        assert int(Direction.EAST) not in grid.router_ports(3)
        assert grid.link(3, int(Direction.EAST)) is None
        assert grid.link(12, int(Direction.SOUTH)) is None

    def test_rejects_empty_mesh(self) -> None:
        with pytest.raises(ConfigError):
            mesh(0, 4)


class TestNeighborSymmetry:
    @given(st.integers(min_value=0, max_value=63))
    def test_neighbor_relation_is_symmetric(self, tile: int) -> None:
        grid = mesh(8, 8)
        for port in _link_ports(grid, tile):
            neighbor, facing = grid.link(tile, port)
            assert facing == OPPOSITE[port]
            assert grid.link(neighbor, facing) == (tile, port)


class TestDistances:
    def test_hop_distance_is_manhattan(self) -> None:
        grid = mesh(4, 4)
        assert grid.hop_distance(0, 15) == 6
        assert grid.hop_distance(0, 0) == 0
        assert grid.hop_distance(0, 3) == 3

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15))
    def test_hop_distance_symmetric(self, a: int, b: int) -> None:
        grid = mesh(4, 4)
        assert grid.hop_distance(a, b) == grid.hop_distance(b, a)


class TestMemoryControllers:
    def test_4x4_has_four_corner_controllers(self) -> None:
        assert mesh(4, 4).memory_controller_tiles() == (0, 3, 12, 15)

    def test_8x8_corners(self) -> None:
        assert mesh(8, 8).memory_controller_tiles() == (0, 7, 56, 63)

    def test_1x1_has_one(self) -> None:
        assert mesh(1, 1).memory_controller_tiles() == (0,)

    def test_degenerate_line_meshes_deduplicate_corners(self) -> None:
        # Regression: on a 1xN (or Nx1) mesh two "corners" coincide per
        # end; the controller list must not contain duplicates.
        assert mesh(1, 4).memory_controller_tiles() == (0, 3)
        assert mesh(4, 1).memory_controller_tiles() == (0, 3)
        assert mesh(1, 2).memory_controller_tiles() == (0, 1)

    def test_torus_line_also_deduplicates(self) -> None:
        assert torus(1, 4).memory_controller_tiles() == (0, 3)

    def test_ring_spaces_four_around(self) -> None:
        assert Ring(16).memory_controller_tiles() == (0, 4, 8, 12)
        assert Ring(2).memory_controller_tiles() == (0, 1)

    def test_cmesh_corner_routers(self) -> None:
        # 16 tiles / c=4 -> 2x2 routers; first tile of each corner.
        assert cmesh(16).memory_controller_tiles() == (0, 4, 8, 12)


ALL_FABRICS = [
    pytest.param(mesh(4, 4), id="Mesh(4x4)"),
    pytest.param(mesh(1, 5), id="Mesh(1x5)"),
    pytest.param(torus(4, 4), id="Torus(4x4)"),
    pytest.param(torus(2, 8), id="Torus(2x8)"),
    pytest.param(Ring(16), id="Ring(16)"),
    pytest.param(Ring(5), id="Ring(5)"),
    pytest.param(cmesh(16), id="ConcentratedMesh(2x2x4)"),
    pytest.param(cmesh(16, concentration=2), id="ConcentratedMesh(2x4x2)"),
]


@pytest.mark.parametrize("topology", ALL_FABRICS)
class TestPortGraphInvariants:
    def test_links_are_symmetric_pairs(self, topology) -> None:
        for router, port, neighbor, facing in topology.links():
            assert topology.link(neighbor, facing) == (router, port)
            assert topology.eject_tile(router, port) is None

    def test_every_port_is_link_xor_ejection(self, topology) -> None:
        for router in range(topology.num_routers):
            for port in topology.router_ports(router):
                assert 0 <= port < topology.radix
                link = topology.link(router, port)
                tile = topology.eject_tile(router, port)
                assert (link is None) != (tile is None)

    def test_attach_eject_roundtrip(self, topology) -> None:
        seen = set()
        for tile in range(topology.num_tiles):
            router, port = topology.attach(tile)
            assert topology.eject_tile(router, port) == tile
            seen.add((router, port))
        assert len(seen) == topology.num_tiles  # no two tiles share a port

    def test_routes_reach_destination(self, topology) -> None:
        for discipline in ("xy", "yx"):
            for src in range(topology.num_tiles):
                for dst in range(topology.num_tiles):
                    path = _route_to(topology, src, dst, discipline)
                    hops = len(path) - 1
                    assert hops == topology.hop_distance(src, dst)

    def test_datelines_only_on_wraparound_fabrics(self, topology) -> None:
        has_datelines = any(topology.dateline_mask(r)
                            for r in range(topology.num_routers))
        assert has_datelines == (topology.num_vc_classes == 2)

    def test_port_names_are_unique(self, topology) -> None:
        for router in range(topology.num_routers):
            ports = topology.router_ports(router)
            names = [topology.port_name(p) for p in ports]
            assert len(set(names)) == len(names)


class TestTorus:
    def test_wraparound_links_exist(self) -> None:
        grid = torus(4, 4)
        # west edge wraps to east edge of the same row
        assert grid.link(0, int(Direction.WEST)) == (3, int(Direction.EAST))
        # top edge wraps to bottom of the same column
        assert grid.link(0, int(Direction.NORTH)) == (12, int(Direction.SOUTH))

    def test_hop_distance_uses_short_way_around(self) -> None:
        grid = torus(4, 4)
        assert grid.hop_distance(0, 3) == 1    # wrap west
        assert grid.hop_distance(0, 12) == 1   # wrap north
        assert grid.hop_distance(0, 15) == 2
        assert mesh(4, 4).hop_distance(0, 15) == 6

    def test_each_unidirectional_ring_has_one_dateline(self) -> None:
        grid = torus(4, 4)
        for direction in (Direction.EAST, Direction.WEST,
                          Direction.NORTH, Direction.SOUTH):
            count = sum(1 for r in range(16)
                        if grid.dateline_mask(r) & (1 << direction))
            assert count == 4  # one per row-ring / column-ring

    def test_route_prefers_wraparound(self) -> None:
        grid = torus(4, 4)
        # 0 -> 3 is one hop west around the ring, not three hops east.
        assert grid.route("xy", 0, 3) == int(Direction.WEST)

    def test_equal_distance_tie_break_is_antisymmetric(self) -> None:
        grid = torus(4, 4)
        fwd = grid.route("xy", 0, 2)   # distance 2 either way
        rev = grid.route("xy", 2, 0)
        assert {fwd, rev} == {int(Direction.EAST), int(Direction.WEST)}

    def test_degenerate_1xn_has_no_vertical_ports(self) -> None:
        grid = torus(1, 4)
        assert int(Direction.NORTH) not in grid.router_ports(0)
        assert grid.link(0, int(Direction.NORTH)) is None


class TestRing:
    def test_shortest_direction(self) -> None:
        ring = Ring(8)
        assert ring.route("xy", 0, 1) == Ring.RIGHT
        assert ring.route("xy", 0, 7) == Ring.LEFT
        assert ring.route("xy", 0, 0) == Ring.LOCAL

    def test_disciplines_coincide(self) -> None:
        ring = Ring(8)
        for src in range(8):
            for dst in range(8):
                assert (ring.route("xy", src, dst)
                        == ring.route("yx", src, dst))

    def test_two_datelines_total(self) -> None:
        ring = Ring(8)
        masks = [(r, ring.dateline_mask(r)) for r in range(8)]
        nonzero = [(r, m) for r, m in masks if m]
        assert nonzero == [(0, 1 << Ring.LEFT), (7, 1 << Ring.RIGHT)]


class TestConcentratedMesh:
    def test_tiles_share_routers(self) -> None:
        grid = cmesh(16)
        assert grid.num_routers == 4
        assert grid.attach(0) == (0, 0)
        assert grid.attach(3) == (0, 3)
        assert grid.attach(4) == (1, 0)

    def test_same_router_tiles_route_straight_to_ejection(self) -> None:
        grid = cmesh(16)
        router, _ = grid.attach(1)
        port = grid.route("xy", router, 2)
        assert grid.eject_tile(router, port) == 2
        assert grid.hop_distance(1, 2) == 0

    def test_concentration_halves_average_hops(self) -> None:
        assert (cmesh(16).average_hop_distance()
                < mesh(4, 4).average_hop_distance() / 2)

    def test_rejects_uneven_split(self) -> None:
        with pytest.raises(ConfigError):
            NoCParams(rows=2, cols=5, topology="cmesh", concentration=4)


class TestBuildTopology:
    def test_factory_dispatch(self) -> None:
        fabrics = {kind: build_topology(NoCParams(rows=4, cols=8,
                                                  topology=kind))
                   for kind in ("mesh", "torus", "ring", "cmesh")}
        assert type(fabrics["ring"]) is Ring
        assert fabrics["ring"].num_tiles == 32
        shapes = {kind: (type(grid), grid.kind, grid.rows, grid.cols,
                         grid.concentration, grid.wrap)
                  for kind, grid in fabrics.items() if kind != "ring"}
        assert shapes == {"mesh": (Grid, "mesh", 4, 8, 1, False),
                          "torus": (Grid, "torus", 4, 8, 1, True),
                          "cmesh": (Grid, "cmesh", 2, 4, 4, False)}

    def test_unknown_kind_rejected_by_params(self) -> None:
        with pytest.raises(ConfigError):
            NoCParams(rows=4, cols=4, topology="hypercube")

    def test_dateline_fabrics_require_even_vcs(self) -> None:
        with pytest.raises(ConfigError):
            NoCParams(rows=4, cols=4, topology="torus", vcs_per_vnet=3)

    def test_squarest_shape(self) -> None:
        assert squarest_shape(16) == (4, 4)
        assert squarest_shape(12) == (3, 4)
        assert squarest_shape(7) == (1, 7)
