"""Routing tests: XY/YX disciplines, tables, multicast splits."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.noc.routing import (
    Direction,
    RoutingTables,
    multicast_output_ports,
    route_compute,
)
from repro.noc.topology import Grid


def _xy_reference(cur_row: int, cur_col: int, dst_row: int,
                  dst_col: int) -> Direction:
    """Closed-form next hop under XY routing (X dimension first)."""
    if dst_col != cur_col:
        return Direction.EAST if dst_col > cur_col else Direction.WEST
    if dst_row != cur_row:
        return Direction.SOUTH if dst_row > cur_row else Direction.NORTH
    return Direction.LOCAL


def _yx_reference(cur_row: int, cur_col: int, dst_row: int,
                  dst_col: int) -> Direction:
    """Closed-form next hop under YX routing (Y dimension first)."""
    if dst_row != cur_row:
        return Direction.SOUTH if dst_row > cur_row else Direction.NORTH
    if dst_col != cur_col:
        return Direction.EAST if dst_col > cur_col else Direction.WEST
    return Direction.LOCAL


def _path(mesh: Grid, src: int, dest: int, vnet: int) -> list:
    """Follow the routing decisions from src; returns the routers
    visited, src and dest included."""
    path = [src]
    while True:
        step = route_compute(mesh, path[-1], dest, vnet)
        if step is Direction.LOCAL:
            assert path[-1] == dest
            return path
        link = mesh.link(path[-1], step)
        assert link is not None, "route left the mesh"
        path.append(link[0])
        assert len(path) <= mesh.rows + mesh.cols, "routing loop"


class TestDisciplines:
    def test_xy_goes_horizontal_first(self) -> None:
        assert route_compute(Grid("mesh", 4, 4), 0, 5, 0) is Direction.EAST

    def test_yx_goes_vertical_first(self) -> None:
        assert route_compute(Grid("mesh", 4, 4), 0, 5, 1) is Direction.SOUTH

    def test_local_at_destination(self) -> None:
        mesh = Grid("mesh", 4, 4)
        assert route_compute(mesh, 10, 10, 0) is Direction.LOCAL
        assert route_compute(mesh, 10, 10, 1) is Direction.LOCAL

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63),
           st.sampled_from([0, 1, 2]))
    def test_routes_always_reach_destination(self, src: int, dest: int,
                                             vnet: int) -> None:
        mesh = Grid("mesh", 8, 8)
        hops = len(_path(mesh, src, dest, vnet)) - 1
        assert hops == mesh.hop_distance(src, dest)

    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15))
    def test_yx_is_reverse_of_xy(self, src: int, dest: int) -> None:
        """A YX push retraces a XY request's path in reverse — the
        property the in-network filter placement relies on (§III-C)."""
        mesh = Grid("mesh", 4, 4)
        forward = _path(mesh, src, dest, vnet=0)  # XY
        backward = _path(mesh, dest, src, vnet=1)  # YX
        assert forward == list(reversed(backward))


class TestRoutingTables:
    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=15),
           st.sampled_from([0, 1, 2]))
    def test_tables_match_route_compute(self, cur: int, dest: int,
                                        vnet: int) -> None:
        mesh = Grid("mesh", 4, 4)
        tables = RoutingTables(mesh)
        assert tables.next_hop(vnet, cur, dest) is route_compute(
            mesh, cur, dest, vnet)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=1, max_value=8),
           st.data())
    def test_tables_match_closed_form_on_random_meshes(self, rows: int,
                                                       cols: int,
                                                       data) -> None:
        """The table-driven grid must reproduce the closed-form XY/YX
        answers on every mesh size, not just 4x4."""
        mesh = Grid("mesh", rows, cols)
        tables = RoutingTables(mesh)
        tile = st.integers(min_value=0, max_value=mesh.num_tiles - 1)
        cur = data.draw(tile, label="cur")
        dest = data.draw(tile, label="dest")
        cr, cc = divmod(cur, cols)
        dr, dc = divmod(dest, cols)
        assert tables.next_hop(0, cur, dest) is _xy_reference(cr, cc,
                                                              dr, dc)
        for vnet in (1, 2):
            assert tables.next_hop(vnet, cur, dest) is _yx_reference(
                cr, cc, dr, dc)


class TestMulticastSplit:
    def test_groups_partition_destinations(self) -> None:
        mesh = Grid("mesh", 4, 4)
        dests = (0, 3, 12, 15, 5)
        groups = multicast_output_ports(mesh, 5, dests, vnet=1)
        regrouped = sorted(d for group in groups.values() for d in group)
        assert regrouped == sorted(dests)

    def test_local_group_is_self_only(self) -> None:
        mesh = Grid("mesh", 4, 4)
        groups = multicast_output_ports(mesh, 5, (5, 6), vnet=1)
        assert groups[Direction.LOCAL] == (5,)

    @given(st.integers(min_value=0, max_value=15),
           st.sets(st.integers(min_value=0, max_value=15), min_size=1,
                   max_size=16))
    def test_tables_split_partitions(self, cur: int, dests) -> None:
        mesh = Grid("mesh", 4, 4)
        tables = RoutingTables(mesh)
        groups = tables.output_ports(1, cur, tuple(sorted(dests)))
        regrouped = sorted(d for group in groups.values() for d in group)
        assert regrouped == sorted(dests)
