"""Deterministic dimension-ordered routing (XY and YX) and multicast splits.

The paper routes requests XY and everything else (responses, pushes,
invalidations) YX, so that a push retraces the reverse path of the read
requests it may filter (§III-C) and so that OrdPush's push-before-
invalidation ordering holds on a common path (§III-F).

``RoutingTables`` precomputes the per-hop decision for every
(current router, destination tile) pair of a topology — the routers
index it directly, keeping route computation off the simulation's hot
path.  Each fabric supplies its closed form through
``Topology.route`` (:class:`~repro.noc.topology.Grid` for mesh, torus
and cmesh, :class:`~repro.noc.topology.Ring` for the ring), and every
fabric is tabulated the same way.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError


class Direction(IntEnum):
    """Router port directions.  LOCAL is the tile's network interface."""

    LOCAL = 0
    NORTH = 1
    SOUTH = 2
    EAST = 3
    WEST = 4


ALL_DIRECTIONS = (Direction.LOCAL, Direction.NORTH, Direction.SOUTH,
                  Direction.EAST, Direction.WEST)
NUM_PORTS = len(ALL_DIRECTIONS)

OPPOSITE = (Direction.LOCAL, Direction.SOUTH, Direction.NORTH,
            Direction.WEST, Direction.EAST)

#: vnet -> routing discipline.  Requests (vnet 0) go XY; data/pushes
#: (vnet 1) and control/invalidations (vnet 2) go YX.
VNET_ROUTING = {0: "xy", 1: "yx", 2: "yx"}


class RoutingTables:
    """Precomputed next-hop tables for one topology.

    ``next_hop(vnet, cur, dest)`` is a pair of list indexings; the
    tables are shared by every router of a network instance.  Entries
    are stored as plain ints (port ids; ``Direction`` values on
    mesh-like fabrics) so the hot path never pays the enum member's
    Python-level ``__hash__``/``__index__`` — :meth:`next_hop` rewraps
    for callers that want the enum.  ``cur`` indexes *routers*,
    ``dest`` indexes *tiles*; the two coincide except under
    concentration.
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        tiles = topology.num_tiles
        routers = topology.num_routers
        self._radix = topology.radix
        self._directional = topology.ports_are_directions
        route = topology.route
        self.xy: List[List[int]] = [
            [route("xy", cur, dest) for dest in range(tiles)]
            for cur in range(routers)]
        self.yx: List[List[int]] = [
            [route("yx", cur, dest) for dest in range(tiles)]
            for cur in range(routers)]
        #: vnet index -> table (requests XY, everything else YX)
        self.by_vnet = (self.xy, self.yx, self.yx)
        # Ready-made one-entry ((port, (dest,)),) tuples for unicasts —
        # the overwhelmingly common case — shared across packets (the
        # whole structure is immutable, so no per-packet copy is made).
        self._unicast = tuple(
            tuple(
                tuple(((table[cur][dest], (dest,)),)
                      for dest in range(tiles))
                for cur in range(routers))
            for table in self.by_vnet)

    def next_hop(self, vnet: int, cur: int, dest: int):
        port = self.by_vnet[vnet][cur][dest]
        return Direction(port) if self._directional else port

    def output_port_list(self, vnet: int, cur: int,
                         dests: Tuple[int, ...]):
        """Group a packet's dests by output port: [(port, dests), ...].

        Ports are plain ints; pair order is first-appearance order over
        ``dests`` (identical to the old dict's insertion order).  The
        unicast result is a shared immutable tuple; callers that mutate
        must copy (``list(...)``).
        """
        if len(dests) == 1:
            return self._unicast[vnet][cur][dests[0]]
        table = self.by_vnet[vnet][cur]
        groups: List[Optional[list]] = [None] * self._radix
        order = []
        for dest in dests:
            port = table[dest]
            bucket = groups[port]
            if bucket is None:
                groups[port] = [dest]
                order.append(port)
            else:
                bucket.append(dest)
        return [(port, tuple(groups[port])) for port in order]

    def output_ports(self, vnet: int, cur: int,
                     dests: Tuple[int, ...]) -> Dict:
        """Dict view of :meth:`output_port_list` (tests/tools)."""
        wrap = Direction if self._directional else int
        return {wrap(port): group
                for port, group in self.output_port_list(vnet, cur, dests)}


def route_compute(topology, cur: int, dest: int, vnet: int):
    """Output port for a unicast packet at router ``cur`` heading to
    tile ``dest`` (convenience wrapper; hot paths use
    :class:`RoutingTables`).  Returns a :class:`Direction` on mesh-like
    fabrics, a plain port id otherwise."""
    discipline = VNET_ROUTING.get(vnet)
    if discipline is None:
        raise SimulationError(f"no routing discipline for vnet {vnet}")
    port = topology.route(discipline, cur, dest)
    return Direction(port) if topology.ports_are_directions else port


def multicast_output_ports(
        topology, cur: int, dests: Tuple[int, ...],
        vnet: int) -> Dict:
    """Group a multicast packet's destinations by output port.

    The asynchronous multicast scheme (§III-E) sends one replica per
    output port, each carrying the destination subset for that branch.
    """
    groups: Dict = {}
    for dest in dests:
        port = route_compute(topology, cur, dest, vnet)
        groups.setdefault(port, []).append(dest)
    return {port: tuple(sorted(group)) for port, group in groups.items()}
