"""Network interfaces: tile-side injection and ejection endpoints.

Each tile has one NI shared by its private L2, its LLC slice, and (on
corner tiles) a memory controller.  Injection is serialized at one flit
per cycle over the local link; ejection hands completed packets to the
tile's message dispatcher (endpoints always sink — the standard
consumption assumption; protocol-level blocking such as the push drop
rule is modelled inside the cache controllers instead).

Event-driven execution: the NI is self-waking via ``next_tick``.  After
an injection (or while the local link is still streaming flits) the next
attempt is at ``busy_until + 1``; a backlogged NI whose every non-empty
vnet is blocked — no free local VC, or an OrdPush INV held behind a
queued same-line push — goes dormant (``next_tick = NEVER``) and is
re-woken by the credit-return callback of a local-port VC or by a fresh
``inject``.  The blocking push is itself VC-blocked in that state, so
the credit wake also covers the INV hold; an unproductive tick mutates
nothing, so spurious wakes are safe.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.common.messages import CoherenceMsg, MsgType
from repro.common.scheduler import NEVER
from repro.common.stats import StatGroup
from repro.noc.events import LinkArrival
from repro.noc.packet import Packet


class NetworkInterface:
    """Injection queues and ejection hook for one tile."""

    __slots__ = ("tile", "network", "_queues", "_backlog", "_rr_vnet",
                 "_busy_until", "next_tick", "eject_hook", "stats",
                 "_c_flits_injected", "_c_flits_ejected", "_data_flits",
                 "_control_flits", "_link_latency", "_vnet_orders",
                 "_router", "_local_port", "_local_in", "_vnet_buckets")

    def __init__(self, tile: int, network) -> None:
        self.tile = tile
        self.network = network
        num_vnets = network.params.num_vnets
        # Attach point: the router and input port this tile injects
        # into (tile == router id and port 0 on unconcentrated fabrics).
        attach_router, attach_port = network.topology.attach(tile)
        self._router = network.routers[attach_router]
        self._local_port = attach_port
        self._local_in = self._router.input_ports[attach_port]
        # Injections always use VC class 0 of a vnet; on single-class
        # fabrics the bucket ids coincide with the vnet ids.
        num_classes = network.topology.num_vc_classes
        self._vnet_buckets = tuple(
            vnet * num_classes for vnet in range(num_vnets))
        self._queues: tuple = tuple(deque() for _ in range(num_vnets))
        # Precomputed round-robin visit orders: _vnet_orders[start] is
        # the vnet sequence starting at ``start`` (no per-step modulo).
        self._vnet_orders = tuple(
            tuple((start + step) % num_vnets for step in range(num_vnets))
            for start in range(num_vnets))
        self._backlog = 0
        self._rr_vnet = 0
        self._busy_until = -1
        #: next cycle an injection attempt could succeed (NEVER = dormant)
        self.next_tick = NEVER
        self.eject_hook: Optional[Callable[[CoherenceMsg], None]] = None
        self.stats = StatGroup(f"ni{tile}")
        # Bound hot-path stat cells and packet-size constants.
        self._c_flits_injected = self.stats.counter("flits_injected")
        self._c_flits_ejected = self.stats.counter("flits_ejected")
        self._data_flits = network.params.data_packet_flits
        self._control_flits = network.params.control_packet_flits
        self._link_latency = network.params.link_latency

    # -- injection ---------------------------------------------------------

    def inject(self, msg: CoherenceMsg) -> None:
        """Queue a message for injection (called by cache controllers)."""
        flits = self._data_flits if msg.carries_data else self._control_flits
        packet = Packet(msg, flits, injected_at=self.network.scheduler.now)
        self._queues[msg.vnet].append(packet)
        self._backlog += 1
        self.network.note_injected(packet)
        self.network.mark_ni_active(self)

    def tick(self, cycle: int) -> bool:
        """Try to start injecting one queued packet into the local port."""
        if self._busy_until >= cycle:
            self.next_tick = (
                self._busy_until + 1 if self._backlog else NEVER)
            return False
        if not self._backlog:
            self.next_tick = NEVER
            return False
        router = self._router
        local = self._local_in
        buckets = self._vnet_buckets
        num_vnets = len(self._queues)
        for vnet in self._vnet_orders[self._rr_vnet]:
            queue: Deque[Packet] = self._queues[vnet]
            if not queue:
                continue
            if (vnet == 2 and self.network.ordered_pushes
                    and self._inv_blocked(queue[0])):
                continue
            vc = None
            for cand in local.vcs[buckets[vnet]]:  # free_vc inlined
                if cand.packet is None and not cand.reserved:
                    vc = cand
                    break
            if vc is None:
                continue
            packet = queue.popleft()
            self._backlog -= 1
            vc.reserved = True  # vc.reserve() inlined; just checked free
            self._busy_until = cycle + packet.flits - 1
            self._c_flits_injected.value += packet.flits
            self.network.scheduler.at(
                cycle + self._link_latency,
                LinkArrival(router, packet, self._local_port, vc))
            self._rr_vnet = (vnet + 1) % num_vnets
            self.next_tick = (
                self._busy_until + 1 if self._backlog else NEVER)
            return True
        # Every non-empty vnet is VC-blocked or INV-held: go dormant;
        # the local-port credit return (or a new inject) wakes us.
        self.next_tick = NEVER
        return False

    def _inv_blocked(self, packet: Packet) -> bool:
        """OrdPush's ordering rule applied at the injection point.

        An invalidation must not enter the network while a same-line
        push is still waiting in this interface's data queue, or it
        could overtake the push before the push registers in any router
        filter (the in-router stall of §III-F only covers registered
        pushes).
        """
        if packet.msg_type is not MsgType.INV:
            return False
        line = packet.line_addr
        return any(queued.msg_type is MsgType.PUSH
                   and queued.line_addr == line
                   for queued in self._queues[1])

    # -- ejection ----------------------------------------------------------

    def eject(self, packet: Packet) -> None:
        """Deliver a fully-arrived packet to the tile dispatcher."""
        self._c_flits_ejected.value += packet.flits
        if self.eject_hook is None:
            return
        self.eject_hook(packet.msg)
