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

Link transfer is allocation-free on the hot path: arrivals, ejections,
and lazy filter deregistrations are pooled callable event objects that
are recycled through free lists instead of per-dispatch lambdas.

Push-multicast configuration enters here through two switches:

* ``filter_enabled`` — the coherent in-network filter (§III-C);
* ``ordered_pushes`` — OrdPush's push-before-invalidation stall (§III-F).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import SimulationError
from repro.common.messages import CoherenceMsg, TrafficClass
from repro.common.params import NoCParams
from repro.common.scheduler import NEVER, Scheduler
from repro.common.stats import StatGroup
from repro.noc.events import Deregister, Ejection, LinkArrival
from repro.noc.interface import NetworkInterface
from repro.noc.packet import Packet
from repro.noc.router import Router
from repro.noc.routing import Direction, RoutingTables
from repro.noc.topology import Topology, build_topology
from repro.noc.vc import VirtualChannel

#: cycles without any packet movement (while packets exist) that we treat
#: as a network deadlock — generous enough for worst-case backpressure.
DEADLOCK_WATCHDOG_CYCLES = 200_000


def flat_link_load_matrix(link_load, shift: int,
                          port_name) -> Dict[Tuple[int, str], int]:
    """Decode a flat per-link load array into the report-facing dict.

    Every NoC backend (event, array, functional) stores link loads in the
    same flat layout — index ``(router << shift) | port`` — and reports
    them keyed ``(router, port name)``.  Keeping the decode here means
    ``report/charts.py`` consumes one shape regardless of the engine that
    produced the run.  Zero entries are elided; values are coerced to
    plain ``int`` so NumPy-backed arrays serialize cleanly.
    """
    mask = (1 << shift) - 1
    return {(key >> shift, port_name(key & mask)): int(flits)
            for key, flits in enumerate(link_load) if flits}


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
        #: historical alias for the fabric object (a Mesh by default);
        #: prefer ``topology`` in new code.
        self.mesh = self.topology
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
        # Free lists for the pooled link-transfer events.
        self._arrival_pool: List[LinkArrival] = []
        self._eject_pool: List[Ejection] = []
        self._dereg_pool: List[Deregister] = []
        # Precomputed downstream lookups: [router_id][port] -> the
        # neighbour Router / its facing InputPort (replaces per-grant
        # topology.link chains on the hot path).
        topology = self.topology
        radix = topology.radix
        self._downstream_router: List[List[Optional[Router]]] = []
        self._downstream_port: List[List[Optional]] = []
        for router in self.routers:
            row_r: List[Optional[Router]] = [None] * radix
            row_p: List[Optional] = [None] * radix
            for port in topology.router_ports(router.id):
                link = topology.link(router.id, port)
                if link is not None:
                    neighbor, in_port = link
                    row_r[port] = self.routers[neighbor]
                    row_p[port] = self.routers[neighbor].input_ports[in_port]
                    router._downstream_in[port] = in_port
            self._downstream_router.append(row_r)
            self._downstream_port.append(row_p)
        # Per-router [port] -> the downstream input port's per-bucket
        # VC lists (None for ejection/absent ports): lets the switch-
        # allocation loop scan downstream credits without any function
        # call.
        for router in self.routers:
            router._downstream_vcs = [
                port.vcs if port is not None else None
                for port in self._downstream_port[router.id]]
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
        #: pending packet-latency samples, flushed in batches
        self._latency_batch: List[int] = []

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

    def try_reserve(self, router_id: int, direction: int,
                    bucket: int) -> Union[VirtualChannel, None, bool]:
        """Reserve a downstream VC for a grant.

        ``bucket`` indexes the downstream port's VC buckets (== the
        vnet on single-class fabrics).  Returns the reserved
        :class:`VirtualChannel`, ``None`` when the hop is an ejection
        (always accepted), or ``False`` when no downstream credit is
        available this cycle.
        """
        in_port = self._downstream_port[router_id][direction]
        if in_port is None:
            if self.topology.eject_tile(router_id, direction) is not None:
                return None
            raise SimulationError(
                f"route leaves the fabric at router {router_id} "
                f"port {direction}")
        vc = in_port.free_vc(bucket)
        if vc is None:
            return False
        vc.reserve()
        return vc

    def dispatch(self, router_id: int, direction: int, branch: Packet,
                 downstream_vc: Optional[VirtualChannel], cycle: int) -> None:
        """Move a granted replica across the link (or eject it)."""
        self._last_progress = cycle
        link_latency = self._link_latency
        downstream = self._downstream_router[router_id][direction]
        if downstream is None:  # ejection port
            pool = self._eject_pool
            event = pool.pop() if pool else Ejection(self)
            event.tile = self.topology.eject_tile(router_id, direction)
            event.packet = branch
            self.scheduler.at(
                cycle + 1 + link_latency + branch.flits - 1, event)
            return
        self.schedule_arrival(
            downstream, branch,
            self.routers[router_id]._downstream_in[direction],
            downstream_vc, cycle + 1 + link_latency)

    def schedule_arrival(self, router: Router, packet: Packet,
                         in_dir: int,
                         vc: Optional[VirtualChannel], cycle: int) -> None:
        """Schedule a pooled head-arrival event at ``router``."""
        pool = self._arrival_pool
        event = pool.pop() if pool else LinkArrival(self)
        event.router = router
        event.packet = packet
        event.in_dir = in_dir
        event.vc = vc
        self.scheduler.at(cycle, event)

    def schedule_deregister(self, router: Router, out, pid: int,
                            line_addr: int, cycle: int) -> None:
        """Schedule a pooled lazy filter deregistration at ``cycle``."""
        pool = self._dereg_pool
        event = pool.pop() if pool else Deregister(self)
        event.router = router
        event.filter = out.filter
        event.pid = pid
        event.line_addr = line_addr
        self.scheduler.at(cycle, event)

    def record_link_load(self, router_id: int, direction: int,
                         packet: Packet, flits: int) -> None:
        self._link_load[(router_id << self._ll_shift) | direction] += flits
        self._traffic_flits[packet.msg.traffic_idx] += flits

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

    def mark_router_active(self, router: Router) -> None:
        # Called from the event phase (an accept); the new packet leaves
        # buffer write at now + 1, which is the earliest possible grant.
        wake = self.scheduler.now + 1
        if wake < router.next_tick:
            router.next_tick = wake
        if wake < self._next_work:
            self._next_work = wake
        bit = 1 << router.id
        if not self._active_router_mask & bit:
            self._active_router_mask |= bit
            self._active_routers.append(router.id)
            self._routers_dirty = True

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
        batch = self._latency_batch
        batch.append(self.scheduler.now - packet.injected_at)
        if len(batch) >= 1024:
            self.flush_stat_batches()
        self.interfaces[tile].eject(packet)

    def flush_stat_batches(self) -> None:
        """Fold batched samples into their histograms (idempotent)."""
        if self._latency_batch:
            self._latency_hist.record_many(self._latency_batch)
            self._latency_batch.clear()

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
        self.flush_stat_batches()
        flits = self._traffic_flits
        return {cls: flits[cls.value] for cls in TrafficClass}

    def link_load_matrix(self) -> Dict[Tuple[int, str], int]:
        """Per-link flit counts keyed by (router, port name) — Fig 14."""
        return flat_link_load_matrix(
            self._link_load, self._ll_shift, self.topology.port_name)
