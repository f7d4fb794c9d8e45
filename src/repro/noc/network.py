"""Network top level: routers, links, interfaces, and global accounting.

The network is event-driven: routers and interfaces publish the next
cycle they could possibly act (``next_tick``), the network folds those
into ``_next_work``, and the runner jumps straight to the next event or
work cycle.  Components blocked on downstream credits go dormant and are
re-woken by the credit-return callback of the VC they are waiting on
(wired here, one callback per input-port feeder), so congested cycles
where no progress is possible cost nothing.  Spurious wakes are always
safe — a tick that cannot grant or inject mutates nothing — so the wake
rules only need to be conservative, never exact.

Link transfer is event-driven: arrivals, ejections, and lazy filter
deregistrations are small callable objects (:mod:`repro.noc.events`)
that the router and interfaces hand to ``Scheduler.at``.

Push-multicast configuration enters here through two switches:

* ``filter_enabled`` — the coherent in-network filter (§III-C);
* ``ordered_pushes`` — OrdPush's push-before-invalidation stall (§III-F).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.messages import CoherenceMsg, TrafficClass
from repro.common.params import NoCParams
from repro.common.scheduler import NEVER, Scheduler
from repro.common.stats import StatGroup
from repro.noc.interface import NetworkInterface
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.routing import Direction, RoutingTables
from repro.noc.topology import Topology, build_topology

#: cycles without any packet movement (while packets exist) that we treat
#: as a network deadlock — generous enough for worst-case backpressure.
DEADLOCK_WATCHDOG_CYCLES = 200_000


def flat_link_load_matrix(link_load, shift: int,
                          port_name) -> Dict[Tuple[int, str], int]:
    """Decode a flat per-link load array into the report-facing dict.

    Both detailed NoC backends (event and array) store link loads in the
    same flat layout — index ``(router << shift) | port`` — and report
    them keyed ``(router, port name)``.  Keeping the decode here means
    ``report/charts.py`` consumes one shape regardless of the engine that
    produced the run.  Zero entries are elided; values are coerced to
    plain ``int`` so NumPy-backed arrays serialize cleanly.
    """
    mask = (1 << shift) - 1
    return {(key >> shift, port_name(key & mask)): int(flits)
            for key, flits in enumerate(link_load) if flits}


def restore_flat(target, snap: Dict, field: str) -> None:
    """Copy a checkpoint's flat accounting array into ``target`` in place.

    The flat layouts depend only on the fabric (the traffic classes, the
    router count and the radix), so an image captured with matching
    parameters always fits; a length mismatch means a corrupt or
    foreign image, and restoring it would misattribute every count.
    """
    values = snap[field]
    if len(values) != len(target):
        raise SimulationError(
            f"checkpoint network {field} has {len(values)} entries, "
            f"this fabric has {len(target)}")
    target[:] = values


class Network:
    """A NoC instance (any :mod:`~repro.noc.topology` fabric) bound to a
    scheduler."""

    def __init__(self, params: NoCParams, scheduler: Scheduler,
                 filter_enabled: bool = False,
                 ordered_pushes: bool = False) -> None:
        self.params = params
        self.scheduler = scheduler
        #: prune read requests covered by a registered push (§III-C)
        self.filter_enabled = filter_enabled
        #: stall INVs behind same-line pushes (OrdPush, §III-F).  Push
        #: registration happens whenever either switch is on.
        self.ordered_pushes = ordered_pushes
        self.topology: Topology = build_topology(params)
        #: per-router stride (in bits) of the flat link-load array —
        #: the smallest power-of-two span holding the fabric's radix
        #: (3 for the 5-port mesh, preserving the historical layout).
        self._ll_shift = max((self.topology.radix - 1).bit_length(), 1)
        self.tables = RoutingTables(self.topology)
        self.routers: List[Router] = [
            Router(node, self) for node in range(self.topology.num_routers)]
        self.interfaces: List[NetworkInterface] = [
            NetworkInterface(tile, self)
            for tile in range(self.topology.num_tiles)]
        self.stats = StatGroup("network")
        #: per-link flit counts, a flat array indexed
        #: (router_id << _ll_shift) | port (zero = link unused)
        self._link_load: List[int] = [0] * (
            self.topology.num_routers << self._ll_shift)
        self._traffic_flits: List[int] = [0] * (len(TrafficClass) + 1)
        self.request_filtered_hook: Optional[
            Callable[[CoherenceMsg], None]] = None
        self.inflight = 0
        # Active components are kept as append-only id lists sorted on
        # demand (a dirty flag set by marks, cleared by one sort at the
        # next sweep) plus membership bitmaps for O(1) de-dup on mark —
        # a wake is a bit test and an append instead of the old O(n)
        # ``insort``, which was measurable at 256 routers.  Marks only
        # ever happen from scheduler callbacks, never from inside
        # ``tick``, so sorting at sweep start reproduces the old
        # always-sorted iteration order exactly, and in-place compaction
        # during iteration stays safe.
        self._active_routers: List[int] = []
        self._active_router_mask = 0
        self._routers_dirty = False
        self._active_nis: List[int] = []
        self._active_ni_mask = 0
        self._nis_dirty = False
        self._last_progress = 0
        #: earliest cycle any router/NI could act (min of next_ticks)
        self._next_work = NEVER
        #: id of the router currently being swept, -1 outside the router
        #: sweep — credit wakes use it to decide same-cycle vs next-cycle
        self._sweep_pos = -1
        self._link_latency = params.link_latency
        # Precomputed downstream lookups: [router_id][port] -> the
        # neighbour Router (replaces per-grant topology.link chains on
        # the hot path).  Each router also gets [port] -> the downstream
        # input port's per-bucket VC lists (None for ejection/absent
        # ports), so the switch-allocation loop scans downstream credits
        # without any function call.
        topology = self.topology
        radix = topology.radix
        self._downstream_router: List[List[Optional[Router]]] = []
        for router in self.routers:
            row: List[Optional[Router]] = [None] * radix
            vcs: List[Optional[list]] = [None] * radix
            for port in topology.router_ports(router.id):
                link = topology.link(router.id, port)
                if link is not None:
                    neighbor, in_port = link
                    row[port] = self.routers[neighbor]
                    vcs[port] = self.routers[neighbor].input_ports[
                        in_port].vcs
                    router._downstream_in[port] = in_port
            self._downstream_router.append(row)
            router._downstream_vcs = vcs
            router._unicast = [vnet_table[router.id]
                               for vnet_table in self.tables._unicast]
        self._wire_credit_callbacks()
        # Bound hot-path stat cells (skip the per-event dict probe).
        self._c_packets_injected = self.stats.counter("packets_injected")
        self._c_flits_injected = self.stats.counter("flits_injected")
        self._c_packets_ejected = self.stats.counter("packets_ejected")
        self._c_requests_filtered = self.stats.counter("requests_filtered")
        self._latency_hist = self.stats.histogram(
            "packet_latency", bucket_width=8)

    def _wire_credit_callbacks(self) -> None:
        """Point every input VC's credit return at its upstream feeder.

        A VC freeing *is* the credit-return event: the feeder (the
        neighbour router across the link, or the tile's NI for the LOCAL
        port) may be dormant waiting for exactly this credit.  Wake
        timing preserves the old per-cycle sweep order: frees during the
        event phase allow a same-cycle retry; frees during the router
        sweep (a retiring single-flit packet) reach NIs — already ticked
        this cycle — and already-swept routers next cycle, but a
        not-yet-swept router (higher id) the same cycle.
        """
        topology = self.topology
        for router in self.routers:
            node = router.id
            for in_dir, port in enumerate(router.input_ports):
                if port is None:
                    continue
                tile = topology.eject_tile(node, in_dir)
                if tile is not None:
                    # an injection/ejection port: fed by the tile's NI
                    callback = self._make_ni_waker(self.interfaces[tile])
                else:
                    feeder = self.routers[topology.link(node, in_dir)[0]]
                    callback = self._make_router_waker(feeder)
                for group in port.vcs:
                    for vc in group:
                        vc.credit_cb = callback

    def _make_ni_waker(self, ni: NetworkInterface) -> Callable[[], None]:
        def wake() -> None:
            cycle = self.scheduler.now
            if self._sweep_pos >= 0:
                cycle += 1
            if cycle < ni.next_tick:
                ni.next_tick = cycle
            if cycle < self._next_work:
                self._next_work = cycle
        return wake

    def _make_router_waker(self, feeder: Router) -> Callable[[], None]:
        feeder_id = feeder.id

        def wake() -> None:
            cycle = self.scheduler.now
            pos = self._sweep_pos
            if pos >= 0 and feeder_id <= pos:
                cycle += 1
            if cycle < feeder.next_tick:
                feeder.next_tick = cycle
            if cycle < self._next_work:
                self._next_work = cycle
        return wake

    # ------------------------------------------------------------------
    # endpoint API
    # ------------------------------------------------------------------

    def interface(self, tile: int) -> NetworkInterface:
        return self.interfaces[tile]

    def send(self, msg: CoherenceMsg) -> None:
        """Inject a message at its source tile's interface."""
        self.interfaces[msg.src].inject(msg)

    # ------------------------------------------------------------------
    # router support services
    # ------------------------------------------------------------------

    def note_injected(self, packet: Packet) -> None:
        self.inflight += len(packet.dests)
        self._c_packets_injected.value += 1
        self._c_flits_injected.value += packet.flits

    def note_filtered_request(self, packet: Packet) -> None:
        """A GETS was pruned by the in-network filter."""
        self.inflight -= 1
        self._c_requests_filtered.value += 1
        if self.request_filtered_hook is not None:
            self.request_filtered_hook(packet.msg)

    def mark_ni_active(self, ni: NetworkInterface) -> None:
        # Called from the event phase (an inject); injection is possible
        # the same cycle, before the NI sweep runs.
        now = self.scheduler.now
        if now < ni.next_tick:
            ni.next_tick = now
        if now < self._next_work:
            self._next_work = now
        bit = 1 << ni.tile
        if not self._active_ni_mask & bit:
            self._active_ni_mask |= bit
            self._active_nis.append(ni.tile)
            self._nis_dirty = True

    def _eject(self, tile: int, packet: Packet) -> None:
        self.inflight -= 1
        self._c_packets_ejected.value += 1
        self._latency_hist.record(self.scheduler.now - packet.injected_at)
        self.interfaces[tile].eject(packet)

    # ------------------------------------------------------------------
    # simulation loop
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while any packet is queued, buffered, or on a link."""
        return self.inflight > 0

    def next_work_cycle(self) -> int:
        """Earliest cycle any router or NI could act (NEVER when idle).

        May be stale-low after in-sweep wakes — the runner's strictly
        increasing cycle and the no-op safety of spurious ticks make
        that harmless.
        """
        return self._next_work

    def watchdog_deadline(self) -> int:
        """First cycle the no-progress watchdog would trip."""
        return self._last_progress + DEADLOCK_WATCHDOG_CYCLES + 1

    def tick(self, cycle: int) -> None:
        """One cycle of injection and switch allocation everywhere.

        A no-op (bar the watchdog check) when no component's
        ``next_tick`` has come due; otherwise sweeps active NIs then
        active routers in ascending id order — identical to the old
        per-cycle order — skipping components whose wake cycle is still
        in the future, and rebuilds ``_next_work`` from the survivors.
        """
        if cycle >= self._next_work:
            self._next_work = NEVER
            work = NEVER
            nis = self._active_nis
            if nis:
                if self._nis_dirty:
                    nis.sort()
                    self._nis_dirty = False
                interfaces = self.interfaces
                dropped = False
                for tile in nis:
                    ni = interfaces[tile]
                    if ni.next_tick <= cycle:
                        ni.tick(cycle)
                    if ni._backlog:
                        if ni.next_tick < work:
                            work = ni.next_tick
                    else:
                        self._active_ni_mask &= ~(1 << tile)
                        dropped = True
                if dropped:
                    # Compact only when something actually went idle —
                    # the steady-state sweep then stays store-free.
                    mask = self._active_ni_mask
                    nis[:] = [tile for tile in nis if mask >> tile & 1]
            active = self._active_routers
            if active:
                if self._routers_dirty:
                    active.sort()
                    self._routers_dirty = False
                routers = self.routers
                dropped = False
                for router_id in active:
                    router = routers[router_id]
                    if router._occupied:
                        if router.next_tick <= cycle:
                            self._sweep_pos = router_id
                            router.tick(cycle)
                            if router._occupied:
                                if router.next_tick < work:
                                    work = router.next_tick
                            else:
                                self._active_router_mask &= ~(1 << router_id)
                                dropped = True
                        elif router.next_tick < work:
                            work = router.next_tick
                    else:
                        self._active_router_mask &= ~(1 << router_id)
                        dropped = True
                self._sweep_pos = -1
                if dropped:
                    mask = self._active_router_mask
                    active[:] = [r for r in active if mask >> r & 1]
            if work < self._next_work:
                self._next_work = work
        if (self.inflight > 0
                and cycle - self._last_progress > DEADLOCK_WATCHDOG_CYCLES):
            raise SimulationError(
                f"network made no progress for {DEADLOCK_WATCHDOG_CYCLES} "
                f"cycles with {self.inflight} deliveries outstanding")

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def link_load(self) -> Dict[Tuple[int, int], int]:
        """Per-link flit counts keyed (router, port) — the port is a
        :class:`Direction` on mesh-like fabrics, a plain id otherwise."""
        shift = self._ll_shift
        mask = (1 << shift) - 1
        wrap = Direction if self.topology.ports_are_directions else int
        return {(key >> shift, wrap(key & mask)): flits
                for key, flits in enumerate(self._link_load) if flits}

    def total_flits(self) -> int:
        """Total flit-hops transmitted over all router output ports."""
        return sum(self._link_load)

    def traffic_breakdown(self) -> Dict[TrafficClass, int]:
        """Flit-hops by traffic class (paper Figs. 3 and 13)."""
        flits = self._traffic_flits
        return {cls: flits[cls.value] for cls in TrafficClass}

    def link_load_matrix(self) -> Dict[Tuple[int, str], int]:
        """Per-link flit counts keyed by (router, port name) — Fig 14."""
        return flat_link_load_matrix(
            self._link_load, self._ll_shift, self.topology.port_name)

    # ------------------------------------------------------------------
    # checkpoint state (see repro.sim.checkpoint)
    # ------------------------------------------------------------------

    def state(self) -> Dict:
        """The quiesced fabric's accounting as JSON data.

        Capture happens with nothing in flight, so buffers, VCs and
        links need no snapshot; an in-network filter still holding an
        entry means the fabric is not quiesced and raises
        SimulationError.
        """
        for router in self.routers:
            for port in router.output_ports:
                if port is not None and len(port.filter):
                    raise SimulationError(
                        f"router {router.id}: in-network filter "
                        "non-empty at capture (system not quiesced)")
        return {
            "functional": False,
            "stats": self.stats.state(),
            "router_stats": [router.stats.state()
                             for router in self.routers],
            "port_flits_tx": [[port.flits_tx if port is not None else 0
                               for port in router.output_ports]
                              for router in self.routers],
            "traffic_flits": list(self._traffic_flits),
            "link_load": list(self._link_load),
            "last_progress": self._last_progress,
            "rr_vnet": [ni._rr_vnet for ni in self.interfaces],
        }

    def restore_state(self, snap: Dict, cycle: int) -> None:
        """Reload a :meth:`state` snapshot taken at ``cycle``.

        A functional warm image carries no fabric state: the fabric
        starts cold and only the deadlock watchdog is anchored at the
        restore cycle.
        """
        if snap.get("functional"):
            self._last_progress = cycle
            return
        self.stats.restore_state(snap["stats"])
        for router, rsnap, flits in zip(self.routers, snap["router_stats"],
                                        snap["port_flits_tx"]):
            router.stats.restore_state(rsnap)
            for port, value in zip(router.output_ports, flits):
                if port is not None:
                    port.flits_tx = value
        restore_flat(self._traffic_flits, snap, "traffic_flits")
        restore_flat(self._link_load, snap, "link_load")
        self._last_progress = snap["last_progress"]
        for ni, rr_vnet in zip(self.interfaces, snap["rr_vnet"]):
            ni._rr_vnet = rr_vnet
