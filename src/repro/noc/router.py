"""The 2-stage pipelined NoC router with push-multicast extensions.

Pipeline (paper Fig. 7a): a packet performs buffer-write and route
compute in the cycle it arrives, and becomes eligible for switch
allocation the next cycle.  Once granted, its flits stream out at one
per cycle (the output port stays busy for the packet length) and the
head reaches the next router after the link latency — virtual
cut-through timing.

Push-multicast extensions hook into the same two stages:

* arrival of a PUSH head — *filter registration* on every computed
  output port, plus *stationary filtering* / *filtering at port* of
  same-line read requests already buffered (or arriving) at the
  co-located input ports;
* arrival of a GETS — *filter lookup* against the input port's
  associated filter; on a hit the request is dropped and its VC freed;
* a granted PUSH replica *de-registers lazily*, one link delay after its
  tail leaves, so requests in flight on the link are still caught;
* under OrdPush, an INV packet is stalled while the filter of its output
  port holds a same-line push (the ordering rule of §III-F).

Multicasts are asynchronous (§III-E): the packet rests in its input VC
and competes independently for each computed output port; replicas leave
as ports and downstream credits become available.

Event-driven execution: the router is *self-waking*.  ``tick`` records
``next_tick`` — the next cycle switch allocation could possibly grant:
``arrival_cycle + 1`` for packets still in the buffer-write stage,
``busy_until + 1`` for packets behind an occupied output port, and the
very next cycle after any grant.  A router whose packets are all blocked
on *downstream credits* or on an OrdPush filter stall goes dormant
(``next_tick = NEVER``) and is re-woken by the credit-return callback of
the downstream VC or by the push's lazy deregistration event, so cycles
where a congested router cannot make progress cost nothing.

Round-robin equivalence: the per-cycle simulator rotated ``_rr_offset``
once per tick while the router was busy.  Skipped ticks are replayed in
bulk — ``(offset + skipped) % count`` — which is exact as long as the
occupied-VC count was constant over the skipped span.  Every membership
change (packet arrival, stationary filtering) happens in a scheduler
event that also wakes the router, so ``accept`` folds the rotation
with the *old* count right before the membership changes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.messages import MsgType
from repro.common.scheduler import NEVER
from repro.common.stats import StatGroup
from repro.noc.events import Deregister, Ejection, LinkArrival
from repro.noc.filter import InNetworkFilter
from repro.noc.packet import Packet
from repro.noc.routing import Direction
from repro.noc.vc import InputPort, VirtualChannel

# Hot-loop member handles (skip the enum attribute lookup per packet).
_GETS = MsgType.GETS
_PUSH = MsgType.PUSH
_INV = MsgType.INV


class OutputPort:
    """One router output port: switch/link occupancy plus its filter."""

    __slots__ = ("direction", "busy_until", "filter", "flits_tx")

    def __init__(self, direction: int, filter_capacity: int) -> None:
        self.direction = direction
        self.busy_until = -1
        self.filter = InNetworkFilter(filter_capacity)
        self.flits_tx = 0


class Router:
    """One NoC router.  The owning Network wires ports and timing.

    The router is topology-agnostic: the fabric's port graph arrives as
    a radix, a set of present port ids, a link-vs-ejection bitmask, and
    (for wraparound fabrics) a dateline mask — everything else, from
    switch allocation to the push-multicast machinery, is identical
    across topologies.
    """

    def __init__(self, router_id: int, network) -> None:
        self.id = router_id
        self.network = network
        params = network.params
        topology = network.topology
        radix = topology.radix
        # One entry per input data VC that can route to the port.  The
        # paper sizes 4 source ports x data VCs (no u-turns between mesh
        # ports); the ejection outputs additionally accept same-tile
        # pushes from the local input (LLC slice -> co-located L2), so
        # the full radix covers every port on every fabric.
        filter_capacity = radix * params.vcs_per_vnet
        #: dateline VC classes per vnet (1 on fabrics without wraparound)
        self._num_classes = topology.num_vc_classes
        self._has_classes = self._num_classes > 1
        ports = topology.router_ports(router_id)
        self.input_ports: List[Optional[InputPort]] = [None] * radix
        self.output_ports: List[Optional[OutputPort]] = [None] * radix
        #: bitmask of out-ports that cross a link; clear present bits eject
        self._link_mask = 0
        #: [port] -> attached tile for ejection ports (None on links)
        self._eject_tiles: List[Optional[int]] = [None] * radix
        for port in ports:
            self.input_ports[port] = InputPort(
                params.num_vnets, params.vcs_per_vnet, self._num_classes)
            self.output_ports[port] = OutputPort(port, filter_capacity)
            if topology.link(router_id, port) is not None:
                self._link_mask |= 1 << port
            else:
                self._eject_tiles[port] = topology.eject_tile(
                    router_id, port)
        #: out-ports whose link crosses this fabric's dateline (bitmask)
        self._dateline_mask = topology.dateline_mask(router_id)
        #: [out-port] -> facing input-port id at the downstream router
        #: (wired by the owning Network)
        self._downstream_in: List[int] = [0] * radix
        #: base of this router's slice of the flat link-load array
        self._ll_base = router_id << network._ll_shift
        #: input VCs currently holding a packet (round-robin order)
        self._occupied: List[VirtualChannel] = []
        #: [port] -> downstream input port's per-bucket VC lists
        #: (wired by the owning Network; None for ejection/absent ports)
        self._downstream_vcs: List[Optional[list]] = [None] * radix
        #: [vnet][dest] -> shared unicast port tuple for *this* router
        #: (wired by the owning Network; a slice of RoutingTables)
        self._unicast: Optional[list] = None
        self._rr_offset = 0
        #: next cycle switch allocation could grant (NEVER = dormant)
        self.next_tick = NEVER
        # Per-network constants, cached (set once at network creation).
        self._filter_on = network.filter_enabled
        self._ordpush = network.ordered_pushes
        self._push_tracking = network.filter_enabled or network.ordered_pushes
        #: last cycle the rotation state was advanced through
        self._last_tick = -1
        self.stats = StatGroup(f"router{router_id}")
        # Bound hot-path stat cells (skip the per-event dict probe).
        self._c_requests_filtered = self.stats.counter("requests_filtered")
        self._c_filter_registrations = self.stats.counter(
            "filter_registrations")
        self._c_requests_filtered_stationary = self.stats.counter(
            "requests_filtered_stationary")
        self._c_inv_stalled = self.stats.counter("inv_stalled_behind_push")

    # ------------------------------------------------------------------
    # arrival path: buffer write, route compute, filter actions
    # ------------------------------------------------------------------

    def accept(self, packet: Packet, in_dir: Direction,
               vc: VirtualChannel) -> None:
        """Install an arriving packet (head flit) into its reserved VC."""
        net = self.network
        now = net.scheduler.now
        packet.arrival_cycle = now
        dests = packet.dests
        # Unicasts share one immutable port tuple; a multicast gets a
        # fresh grouping list, the only kind _transmit shrinks.
        if len(dests) == 1:
            ports = self._unicast[packet.vnet][dests[0]]
        else:
            ports = net.tables.output_port_list(packet.vnet, self.id, dests)
        packet.pending_ports = ports

        msg_type = packet.msg_type
        if self._filter_on and msg_type is _GETS:
            if self._filter_lookup(packet, in_dir):
                vc.cancel_reservation()
                net.note_filtered_request(packet)
                self._c_requests_filtered.value += 1
                return

        # Fold skipped round-robin rotations before the membership
        # change.  The per-cycle simulator advanced ``_rr_offset`` once
        # per busy cycle; modular catch-up is only exact while the
        # occupied count is constant, so the pending rotation is folded
        # with the *old* count up to ``now - 1`` — the last cycle the
        # old membership could have been ticked.
        occupied = self._occupied
        count = len(occupied)
        if count:
            delta = now - 1 - self._last_tick
            if delta > 0:
                self._rr_offset = (self._rr_offset + delta) % count
        self._last_tick = now - 1

        vc.packet = packet  # vc.fill() inlined; the arrival consumes
        vc.reserved = False  # the reservation made at transmit time
        occupied.append(vc)

        # Wake for switch allocation: the packet leaves buffer write
        # at now + 1, the earliest grant.
        wake = now + 1
        if wake < self.next_tick:
            self.next_tick = wake
        if wake < net._next_work:
            net._next_work = wake
        bit = 1 << self.id
        if not net._active_router_mask & bit:
            net._active_router_mask |= bit
            net._active_routers.append(self.id)
            net._routers_dirty = True

        if self._push_tracking and msg_type is _PUSH:
            self._register_push(packet, ports)

    def _filter_lookup(self, packet: Packet, in_dir: Direction) -> bool:
        """Filter Lookup stage: check the input port's associated filter."""
        out = self.output_ports[in_dir]
        if out is None:
            return False
        return out.filter.matches(packet.line_addr, packet.msg.src)

    def _register_push(self, packet: Packet, ports) -> None:
        """Filter Registration plus Stationary Filtering / Filtering at Port."""
        prune = self.network.filter_enabled
        for direction, dests in ports:
            self.output_ports[direction].filter.register(
                packet.pid, packet.line_addr, dests)
            self._c_filter_registrations.value += 1
            if prune:
                self._stationary_filter(direction, packet.line_addr, dests)

    def _stationary_filter(self, direction: int, line_addr: int,
                           dests: Tuple[int, ...]) -> None:
        """Drop same-line GETS already buffered at the co-located input."""
        in_port = self.input_ports[direction]
        if in_port is None:
            return
        dest_set = set(dests)
        for vc in in_port.occupied_in_vnet(0):
            request = vc.packet
            if (request.msg_type is MsgType.GETS
                    and request.line_addr == line_addr
                    and request.msg.src in dest_set):
                vc.release()
                self._forget(vc)
                self.network.note_filtered_request(request)
                self._c_requests_filtered_stationary.value += 1

    def _forget(self, vc: VirtualChannel) -> None:
        # VirtualChannel has no __eq__, so list.remove matches by
        # identity — a C-level scan of a short list.
        try:
            self._occupied.remove(vc)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # switch allocation and transmission
    # ------------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return bool(self._occupied)

    def tick(self, cycle: int) -> bool:
        """One switch-allocation round.  Returns True on any grant.

        Iterates the occupied VCs (rotated for round-robin fairness) and
        lets each packet bid for its pending output ports; a port serves
        one grant per cycle and stays busy for the packet's length.
        Records ``next_tick`` for the self-waking schedule (see module
        docstring); blocked-on-credit and OrdPush-stalled packets leave
        the router dormant until an external wake event.
        """
        occupied = self._occupied
        count = len(occupied)
        if count == 0:
            self.next_tick = NEVER
            return False
        delta = cycle - self._last_tick
        self._last_tick = cycle
        offset = (self._rr_offset + delta) % count
        self._rr_offset = offset
        progressed = False
        granted_ports = 0  # bitmask of ports granted this cycle
        wake = NEVER
        ordpush = self._ordpush
        # Snapshot: grants may retire VCs from the occupied list.
        if count == 1:
            candidates = (occupied[0],)
        elif offset:
            candidates = occupied[offset:] + occupied[:offset]
        else:
            candidates = occupied[:]
        outputs = self.output_ports
        downstream_vcs = self._downstream_vcs
        link_mask = self._link_mask
        has_classes = self._has_classes
        for vc in candidates:
            packet = vc.packet
            if packet is None:
                continue
            ready = packet.arrival_cycle + 1
            if ready > cycle:
                # still in the buffer-write / route-compute stage
                if ready < wake:
                    wake = ready
                continue
            pending = packet.pending_ports
            # A snapshot only when a grant could shift later entries
            # (removal inside _transmit); the unicast case needs none.
            entries = pending if len(pending) == 1 else tuple(pending)
            for entry in entries:
                direction = entry[0]
                bit = 1 << direction
                if granted_ports & bit:
                    continue  # grant this cycle already -> retry next
                out = outputs[direction]
                busy_until = out.busy_until
                if busy_until >= cycle:
                    if busy_until + 1 < wake:
                        wake = busy_until + 1
                    continue
                if (ordpush and packet.msg_type is _INV
                        and out.filter.has_line(packet.line_addr)):
                    self._c_inv_stalled.value += 1
                    continue  # deregistration event wakes us
                # Inline downstream credit check + reservation.
                downstream_vc = None
                bucket = packet.vnet
                if bit & link_mask:
                    if has_classes:
                        # Dateline VC-class selection: same ring keeps
                        # the class, a turn resets it, crossing the
                        # dateline link bumps it.
                        if packet.ring == direction:
                            bucket = packet.vc_bucket
                        else:
                            bucket = bucket * self._num_classes
                        if self._dateline_mask & bit:
                            bucket += 1
                    for cand in downstream_vcs[direction][bucket]:
                        if cand.packet is None and not cand.reserved:
                            downstream_vc = cand
                            break
                    if downstream_vc is None:
                        continue  # no credit; the credit return wakes us
                    downstream_vc.reserved = True
                granted_ports |= bit
                self._transmit(vc, downstream_vc, out, cycle, entry,
                               bucket)
                progressed = True
        if progressed and cycle + 1 < wake:
            wake = cycle + 1
        self.next_tick = wake if self._occupied else NEVER
        return progressed

    def _transmit(self, vc: VirtualChannel,
                  downstream_vc: Optional[VirtualChannel],
                  out: OutputPort, cycle: int, entry,
                  bucket: int) -> None:
        """Send the replica for ``entry``'s port and retire the VC last."""
        packet = vc.packet
        pending = packet.pending_ports
        last = len(pending) == 1
        direction, dests = entry
        flits = packet.flits
        if not last:
            pending.remove(entry)
            branch = packet.replica(dests)
        else:
            # Last (usually only) branch: the packet object itself moves
            # on instead of a copy — the VC no longer iterates it and
            # every downstream-read field survives the hand-off.
            branch = packet
            if packet.dests is not dests:
                packet.dests = dests
        out.busy_until = cycle + flits - 1
        out.flits_tx += flits
        net = self.network
        link_latency = net._link_latency
        # Link-load and traffic accounting.
        net._link_load[self._ll_base | direction] += flits
        net._traffic_flits[packet.traffic_idx] += flits

        scheduler = net.scheduler
        if self._push_tracking and packet.msg_type is _PUSH:
            scheduler.at(cycle + flits - 1 + link_latency,
                         Deregister(net, self, out.filter, packet.pid,
                                    packet.line_addr))

        # Move the replica across the link.  Link hops always carry a
        # reserved downstream VC; ejections never do, so the
        # reservation doubles as the link/eject test.
        net._last_progress = cycle
        if downstream_vc is not None:
            if self._has_classes:
                branch.vc_bucket = bucket
                branch.ring = direction
            scheduler.at(cycle + 1 + link_latency, LinkArrival(
                net._downstream_router[self.id][direction], branch,
                self._downstream_in[direction], downstream_vc))
        else:
            scheduler.at(cycle + link_latency + flits, Ejection(
                net, self._eject_tiles[direction], branch))

        if last:
            # The buffer is still being read until the tail flit leaves;
            # free the VC (and its credit) only then.
            self._forget(vc)
            if flits == 1:
                vc.packet = None  # vc.release() inlined (never reserved)
                cb = vc.credit_cb
                if cb is not None:
                    cb()
            else:
                scheduler.at(cycle + flits - 1, vc.release)

    def __repr__(self) -> str:
        return f"Router(id={self.id}, occupied={len(self._occupied)})"
