"""Pluggable interconnect topologies: the port-graph abstraction.

A :class:`Topology` describes everything the network layer needs to wire
and route a fabric, without the routers or the routing tables knowing
which fabric they serve:

* **nodes** — ``num_routers`` routers moving packets between
  ``num_tiles`` endpoint tiles (cores / LLC slices / NIs).  One router
  per tile for mesh/torus/ring; several tiles share a router under
  concentration.
* **typed ports** — every router exposes up to ``radix`` integer port
  ids.  A port either *ejects* to an attached tile
  (:meth:`Topology.eject_tile`) or crosses a *link* to a neighbour
  router (:meth:`Topology.link`).  Links come in bidirectional pairs:
  ``link(r, p) == (v, q)`` implies ``link(v, q) == (r, p)``, which is
  how the network wires credit-return callbacks back to the feeder.
* **deadlock-free routing** — :meth:`Topology.route` gives the
  closed-form next-hop port for each discipline (``"xy"`` for requests,
  ``"yx"`` for everything else); :class:`~repro.noc.routing.RoutingTables`
  tabulates it once per network.  Fabrics with wraparound links
  (torus, ring) additionally declare ``num_vc_classes == 2`` and mark
  *dateline* ports (:meth:`Topology.dateline_mask`): a packet crossing a
  dateline link moves to the upper virtual-channel class of its vnet,
  breaking the cyclic channel dependency of each unidirectional ring
  (Dally's dateline scheme).

Implementations
---------------

Two classes implement the interface:

* :class:`Grid` — every 2D fabric: a ``rows`` x ``cols`` router grid
  with ``concentration`` tiles per router and optional wraparound.
  ``mesh`` is the paper's fabric (XY/YX dimension-ordered routing);
  ``torus`` adds the wraparound links, routes each dimension the
  shorter way around with an antisymmetric tie-break, and puts
  dateline VC classes on the wraparound links; ``cmesh`` puts
  ``concentration`` tiles (default 4) on each router of the squarest
  router grid, halving hop counts.
* :class:`Ring` — the radix-3 bidirectional ring: shortest-direction
  routing, dateline VC classes, four evenly spaced memory controllers.

:func:`build_topology` maps a :class:`~repro.common.params.NoCParams`
onto one of them.  A new grid variant is a new ``kind`` mapped onto
:class:`Grid`'s parameters there; any other fabric subclasses
:class:`Topology`, implementing the structure methods plus
:meth:`Topology.route` — routers, interfaces, routing tables, filters,
and the CLI pick it up unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.noc.routing import Direction, OPPOSITE


def squarest_shape(count: int) -> Tuple[int, int]:
    """The most-square ``rows x cols`` factorization of ``count``
    (rows <= cols); (1, n) for primes."""
    if count < 1:
        raise ConfigError("node count must be >= 1")
    for rows in range(math.isqrt(count), 0, -1):
        if count % rows == 0:
            return rows, count // rows
    raise ConfigError(f"no factorization for {count}")  # pragma: no cover


class Topology:
    """Abstract fabric: structure, routing, and deadlock-avoidance info.

    Subclasses must set ``kind``, ``num_tiles``, ``num_routers``, and
    ``radix`` and implement the structure/routing methods.  Ports are
    plain ints in ``[0, radix)``; routers index their port arrays with
    them directly.
    """

    kind: str = "abstract"
    #: ports are :class:`~repro.noc.routing.Direction` values (mesh-like
    #: fabrics); route_compute rewraps them for callers.
    ports_are_directions: bool = False
    #: virtual-channel classes per vnet (2 for dateline fabrics).
    num_vc_classes: int = 1

    num_tiles: int
    num_routers: int
    radix: int

    # -- structure -----------------------------------------------------

    def router_ports(self, router: int) -> List[int]:
        """Port ids present at a router (ejection ports and links)."""
        raise NotImplementedError

    def link(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        """``(neighbour router, facing port)`` for a link port, or None
        for ejection ports.  Links are symmetric pairs."""
        raise NotImplementedError

    def eject_tile(self, router: int, port: int) -> Optional[int]:
        """Tile attached at an ejection port, or None for link ports."""
        raise NotImplementedError

    def attach(self, tile: int) -> Tuple[int, int]:
        """``(router, port)`` where a tile's network interface plugs in."""
        raise NotImplementedError

    def dateline_mask(self, router: int) -> int:
        """Bitmask of out-ports whose traversal bumps the VC class."""
        return 0

    def port_name(self, port: int) -> str:
        """Human-readable port label (stats and the topo inspector)."""
        raise NotImplementedError

    # -- routing -------------------------------------------------------

    def route(self, discipline: str, cur: int, dest_tile: int) -> int:
        """Next-hop output port at router ``cur`` toward ``dest_tile``
        under ``"xy"`` or ``"yx"`` dimension ordering."""
        raise NotImplementedError

    # -- placement and metrics -----------------------------------------

    def memory_controller_tiles(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def hop_distance(self, a: int, b: int) -> int:
        """Router hops between two tiles under this fabric's routing."""
        raise NotImplementedError

    # -- derived helpers -----------------------------------------------

    def links(self) -> Iterator[Tuple[int, int, int, int]]:
        """Every directed link as ``(router, port, neighbour, port)``."""
        for router in range(self.num_routers):
            for port in self.router_ports(router):
                link = self.link(router, port)
                if link is not None:
                    yield (router, port, link[0], link[1])

    def port_tables(self) -> Dict[str, list]:
        """The port graph flattened into dense per-``(router, port)``
        tables — the compilation target of the vectorized array engine
        (:mod:`repro.noc.arrayengine`), kept NumPy-free here.

        Every table is a ``num_routers x radix`` nested list indexed by
        absent-port-safe sentinels: ``neighbor_router``/``neighbor_port``
        give the far end of a link (-1 on ejection/absent ports),
        ``eject_tile`` the attached tile (-1 on link/absent ports),
        ``present`` whether the port exists, and ``dateline`` whether a
        packet crossing the port bumps its dateline VC class.  ``attach``
        is a ``num_tiles``-long list of ``[router, port]`` injection
        points.
        """
        routers = self.num_routers
        radix = self.radix
        nbr_router = [[-1] * radix for _ in range(routers)]
        nbr_port = [[-1] * radix for _ in range(routers)]
        eject = [[-1] * radix for _ in range(routers)]
        present = [[False] * radix for _ in range(routers)]
        dateline = [[False] * radix for _ in range(routers)]
        for router in range(routers):
            mask = self.dateline_mask(router)
            for port in self.router_ports(router):
                present[router][port] = True
                dateline[router][port] = bool(mask >> port & 1)
                link = self.link(router, port)
                if link is not None:
                    nbr_router[router][port], nbr_port[router][port] = link
                else:
                    tile = self.eject_tile(router, port)
                    if tile is not None:
                        eject[router][port] = tile
        return {
            "neighbor_router": nbr_router,
            "neighbor_port": nbr_port,
            "eject_tile": eject,
            "present": present,
            "dateline": dateline,
            "attach": [list(self.attach(tile))
                       for tile in range(self.num_tiles)],
        }

    def average_hop_distance(self) -> float:
        """Mean router hops over all ordered tile pairs (a != b)."""
        tiles = self.num_tiles
        if tiles < 2:
            return 0.0
        total = sum(self.hop_distance(a, b)
                    for a in range(tiles) for b in range(tiles) if a != b)
        return total / (tiles * (tiles - 1))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(tiles={self.num_tiles}, "
                f"routers={self.num_routers}, radix={self.radix})")


def _ring_step(cur: int, dst: int, size: int) -> int:
    """Direction (+1 forward / -1 backward / 0 arrived) of the shortest
    walk around a ``size``-node ring.

    The equal-distance tie (even rings, ``size // 2`` apart) breaks
    *antisymmetrically* — ``a -> b`` and ``b -> a`` pick opposite
    directions — so the reverse route always retraces the same links.
    The in-network filter placement relies on a YX push retracing its
    XY request (§III-C); antisymmetry extends that property to
    wraparound fabrics.
    """
    if cur == dst:
        return 0
    forward = (dst - cur) % size
    backward = (cur - dst) % size
    if forward < backward:
        return 1
    if backward < forward:
        return -1
    return 1 if dst > cur else -1


def _line_step(cur: int, dst: int, size: int) -> int:
    """Direction (+1 / -1 / 0) of the walk along an open line of
    ``size`` nodes: the sign of the distance."""
    return (dst > cur) - (dst < cur)


#: grid link directions in port order, each with its (row, col) step
_GRID_STEPS = {Direction.NORTH: (-1, 0), Direction.SOUTH: (1, 0),
               Direction.WEST: (0, -1), Direction.EAST: (0, 1)}


class Grid(Topology):
    """A ``rows`` x ``cols`` grid of routers, ``concentration`` tiles each.

    Routers are numbered row-major (router ``r * cols + c`` sits at
    ``(r, c)``); tile ``t`` attaches to router ``t // concentration`` at
    ejection port ``t % concentration``.  Link ports follow the ejection
    ports in :class:`Direction` order (port ``concentration - 1 + d``),
    so ``OPPOSITE`` names the facing port on every grid.  A link steps
    one router along one dimension.  With ``wrap`` the step is taken
    modulo the dimension's size, each dimension routes the shorter way
    around its ring (:func:`_ring_step`), and the wraparound links are
    datelines: crossing one bumps the packet into VC class 1 of its
    vnet, which keeps dimension-ordered routing deadlock-free
    (``vcs_per_vnet`` must be even).  Memory controllers attach at the
    first tile of each corner router (Table I), deduplicated on
    degenerate grids.

    ``kind`` names the fabric.  ``mesh`` and ``torus`` grids have one
    tile per router and :class:`Direction` ports; a ``cmesh`` keeps
    plain int ports named ``local0`` .. ``local{c-1}``, even at
    concentration 1.
    """

    def __init__(self, kind: str, rows: int, cols: int,
                 concentration: int = 1, wrap: bool = False) -> None:
        if rows < 1 or cols < 1:
            raise ConfigError(f"{kind} must be at least 1x1")
        if concentration < 1:
            raise ConfigError("concentration must be >= 1")
        self.kind = kind
        self.rows = rows
        self.cols = cols
        self.concentration = concentration
        self.wrap = wrap
        self.ports_are_directions = kind != "cmesh"
        self.num_vc_classes = 2 if wrap else 1
        self.num_routers = rows * cols
        self.num_tiles = self.num_routers * concentration
        #: the port of link direction ``d`` is ``_base + d``
        self._base = concentration - 1
        self.radix = self._base + len(Direction)
        #: [cur][dst] -> Direction of the first step along a row or a
        #: column (0 once that dimension is done)
        self._col_dirs = self._first_steps(cols, Direction.EAST,
                                           Direction.WEST)
        self._row_dirs = self._first_steps(rows, Direction.SOUTH,
                                           Direction.NORTH)

    def _first_steps(self, size: int, forward: Direction,
                     backward: Direction) -> List[List[int]]:
        way = {1: int(forward), -1: int(backward), 0: 0}
        step = _ring_step if self.wrap else _line_step
        return [[way[step(a, b, size)] for b in range(size)]
                for a in range(size)]

    def _far_end(self, router: int,
                 direction: Direction) -> Optional[Tuple[int, bool]]:
        """``(router one step away, whether the step wraps)``, or None
        where the grid has no link that way."""
        d_row, d_col = _GRID_STEPS[direction]
        if (self.rows if d_row else self.cols) < 2:
            return None
        row, col = divmod(router, self.cols)
        row += d_row
        col += d_col
        wraps = not (0 <= row < self.rows and 0 <= col < self.cols)
        if wraps and not self.wrap:
            return None
        return (row % self.rows) * self.cols + col % self.cols, wraps

    def router_ports(self, router: int) -> List[int]:
        return list(range(self.concentration)) + [
            self._base + direction for direction in _GRID_STEPS
            if self._far_end(router, direction) is not None]

    def link(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        if port < self.concentration:
            return None
        direction = Direction(port - self._base)
        far = self._far_end(router, direction)
        if far is None:
            return None
        return far[0], self._base + OPPOSITE[direction]

    def eject_tile(self, router: int, port: int) -> Optional[int]:
        if port < self.concentration:
            return router * self.concentration + port
        return None

    def attach(self, tile: int) -> Tuple[int, int]:
        return divmod(tile, self.concentration)

    def dateline_mask(self, router: int) -> int:
        """The wraparound links: one dateline per unidirectional ring."""
        mask = 0
        for direction in _GRID_STEPS:
            far = self._far_end(router, direction)
            if far is not None and far[1]:
                mask |= 1 << (self._base + direction)
        return mask

    def port_name(self, port: int) -> str:
        if port < self.concentration:
            return "local" if self.ports_are_directions else f"local{port}"
        return Direction(port - self._base).name.lower()

    def route(self, discipline: str, cur: int, dest_tile: int) -> int:
        dest_router, local = divmod(dest_tile, self.concentration)
        if dest_router == cur:
            return local
        cur_row, cur_col = divmod(cur, self.cols)
        dst_row, dst_col = divmod(dest_router, self.cols)
        col = self._col_dirs[cur_col][dst_col]
        row = self._row_dirs[cur_row][dst_row]
        if discipline == "xy":
            return self._base + (col or row)
        return self._base + (row or col)

    def memory_controller_tiles(self) -> Tuple[int, ...]:
        last_row = (self.rows - 1) * self.cols
        corners = {0, self.cols - 1, last_row, last_row + self.cols - 1}
        return tuple(sorted(router * self.concentration
                            for router in corners))

    def _span(self, a: int, b: int, size: int) -> int:
        distance = abs(a - b)
        return min(distance, size - distance) if self.wrap else distance

    def hop_distance(self, a: int, b: int) -> int:
        row_a, col_a = divmod(a // self.concentration, self.cols)
        row_b, col_b = divmod(b // self.concentration, self.cols)
        return (self._span(row_a, row_b, self.rows)
                + self._span(col_a, col_b, self.cols))

    def __repr__(self) -> str:
        per_router = (f"x{self.concentration}"
                      if self.concentration > 1 else "")
        return f"Grid({self.kind} {self.rows}x{self.cols}{per_router})"


class Ring(Topology):
    """A bidirectional ring of ``n`` tiles.

    Port 0 ejects locally; port 1 (``right``) steps to tile+1, port 2
    (``left``) to tile-1.  Routing takes the shorter direction with the
    same antisymmetric tie-break as the torus rings; the two wraparound
    links are datelines (VC class 1), so ``vcs_per_vnet`` must be even.
    Both routing disciplines coincide — there is only one dimension.
    """

    kind = "ring"
    num_vc_classes = 2

    LOCAL = 0
    RIGHT = 1
    LEFT = 2
    _PORT_NAMES = ("local", "right", "left")

    def __init__(self, num_tiles: int) -> None:
        if num_tiles < 1:
            raise ConfigError("ring must have at least 1 tile")
        self.num_tiles = num_tiles
        self.num_routers = num_tiles
        self.radix = 3

    def router_ports(self, router: int) -> List[int]:
        if self.num_tiles < 2:
            return [self.LOCAL]
        return [self.LOCAL, self.RIGHT, self.LEFT]

    def link(self, router: int, port: int) -> Optional[Tuple[int, int]]:
        if port == self.LOCAL or self.num_tiles < 2:
            return None
        if port == self.RIGHT:
            return (router + 1) % self.num_tiles, self.LEFT
        if port == self.LEFT:
            return (router - 1) % self.num_tiles, self.RIGHT
        return None

    def eject_tile(self, router: int, port: int) -> Optional[int]:
        return router if port == self.LOCAL else None

    def attach(self, tile: int) -> Tuple[int, int]:
        return tile, self.LOCAL

    def dateline_mask(self, router: int) -> int:
        if self.num_tiles < 2:
            return 0
        mask = 0
        if router == self.num_tiles - 1:
            mask |= 1 << self.RIGHT
        if router == 0:
            mask |= 1 << self.LEFT
        return mask

    def port_name(self, port: int) -> str:
        return self._PORT_NAMES[port]

    def route(self, discipline: str, cur: int, dest_tile: int) -> int:
        step = _ring_step(cur, dest_tile, self.num_tiles)
        if step == 0:
            return self.LOCAL
        return self.RIGHT if step > 0 else self.LEFT

    def memory_controller_tiles(self) -> Tuple[int, ...]:
        """Up to four controllers spaced evenly around the ring."""
        n = self.num_tiles
        return tuple(sorted({(i * n) // 4 for i in range(4)}))

    def hop_distance(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.num_tiles - d)

    def __repr__(self) -> str:
        return f"Ring({self.num_tiles})"


def build_topology(params) -> Topology:
    """Instantiate the fabric described by a :class:`NoCParams`."""
    kind = params.topology
    if kind == "ring":
        return Ring(params.num_tiles)
    if kind == "cmesh":
        rows, cols = squarest_shape(params.num_tiles // params.concentration)
        return Grid(kind, rows, cols, params.concentration)
    return Grid(kind, params.rows, params.cols, wrap=kind == "torus")
