"""Vectorized whole-fabric NoC backend (``NoCParams.engine = "array"``).

The event engine (:mod:`repro.noc.network`) advances one Python
``Router``/``NetworkInterface`` object at a time; under saturation on
64- and 256-core grids that per-object dispatch dominates the run.
Following the flat-array formulation of *Bufferless NOC Simulation of
Large Multicore Systems on GPU Hardware* (see PAPERS.md), this engine
keeps every virtual channel of every router in preallocated NumPy
arrays indexed ``(router, port, vc-bucket, vc)`` and performs the
per-cycle credit check, switch allocation, link transmit, and ejection
as masked array operations over the whole fabric at once.

Layout
------

The port graph of any :mod:`repro.noc.topology` fabric is compiled at
construction (via :meth:`Topology.port_tables`) into dense index
tensors: ``(router, port)`` pairs flatten to *port keys*
``k = router * radix + port``; each input port holds ``B = num_vnets *
num_vc_classes`` VC buckets of ``C`` VCs, so VC slots flatten to
``slot = (k * B + bucket) * C + vc``.  A slot holds only per-hop state:
the packet index ``pix``, the eligibility cycle, the routed output key
and the credit bucket it needs at the next hop.  Packet constants
(flit count, traffic class, ``vnet * tiles + dest``, the INV/GETS/PUSH
flags) live in arrays indexed by ``pix``, written once when the packet
enters the registry.  A next-hop table flat over ``(router, vnet *
tiles + dest)`` gives the out key and credit bucket of the following
hop, so a link install is a handful of gathers.  Ejection records point
at a sentinel credit bucket that always has credit, so the allocation
check is one comparison per array.  The switch-allocation winner of
every output port is picked by one ``argsort`` over a combined
``(out key, rotating priority)`` key.  A per-bucket free-VC count is
the credit count: every install takes one and every slot clear returns
one, so no pass recounts the fabric.

Timing model
------------

The engine mirrors the reference pipeline: a packet granted at cycle
``X`` occupies the downstream VC immediately (occupancy doubles as the
credit reservation), arrives at ``X + 1 + link_latency``, and becomes
switch-allocation eligible one cycle later; output ports stay busy for
the packet length and ejections deliver at ``X + link_latency +
flits``.  Rare paths — multicast replication, push filter
registration/lookup, and OrdPush invalidation stalls — run as scalar
sidecars over the same arrays.  Timed sidecar work is a small event
object built with its payload and handed to ``Scheduler.at``:
``_Register``, ``_Lookup``, ``_Deregister``, and one ``_Eject`` per
(cycle, tile) ejection burst.

Equivalence contract
--------------------

The event engine stays the golden reference.  The array engine is
*statistically* equivalent, not bit-identical: switch allocation uses a
rotating array priority instead of the reference's per-router
round-robin history, and single-flit credit returns become visible one
cycle later (the reference lets a credit freed mid-sweep be consumed by
a later-swept router the same cycle).  Flit conservation is exact —
every injected delivery is either ejected or consumed by the in-network
filter — and ``tests/test_arrayengine.py`` gates totals, per-link
loads, and latencies against the event engine the same way
``noc/functional.py`` is gated.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.common.messages import CoherenceMsg, MsgType, TrafficClass
from repro.common.params import NoCParams
from repro.common.scheduler import NEVER, Scheduler
from repro.common.stats import StatGroup
from repro.noc.filter import InNetworkFilter
from repro.noc.network import (DEADLOCK_WATCHDOG_CYCLES,
                               flat_link_load_matrix, restore_flat)
from repro.noc.packet import Packet
from repro.noc.routing import Direction, RoutingTables
from repro.noc.topology import build_topology

_GETS = MsgType.GETS
_PUSH = MsgType.PUSH
_INV = MsgType.INV


class ArrayInterface:
    """Per-tile endpoint: the ejection hook and tile id the system wires."""

    __slots__ = ("tile", "network", "eject_hook", "eject_batch_hook")

    def __init__(self, tile: int, network: "ArrayNetwork") -> None:
        self.tile = tile
        self.network = network
        self.eject_hook: Optional[Callable[[CoherenceMsg], None]] = None
        #: optional bulk twin: receives the full same-cycle ejection
        #: burst as one list (wired by System to its batch dispatcher)
        self.eject_batch_hook: Optional[
            Callable[[List[CoherenceMsg]], None]] = None

    def inject(self, msg: CoherenceMsg) -> None:
        self.network.send(msg)


class _Eject:
    """Event: deliver one tile's same-cycle ejection burst.

    One event per (cycle, tile) rather than per packet: arrivals that
    land together are delivered together — through the interface's
    ``eject_batch_hook`` when several arrive (one hook call, one
    dispatch loop, batched LLC pipeline bookkeeping downstream), else
    the ordinary per-message hook.  Bookkeeping per packet is identical
    to a one-event-per-packet scheme.
    """

    __slots__ = ("net", "tile", "key", "pixs", "packets")

    def __init__(self, net: "ArrayNetwork", tile: int, key: int) -> None:
        self.net = net
        self.tile = tile
        self.key = key
        self.pixs: List[int] = []
        self.packets: List[Packet] = []

    def __call__(self) -> None:
        net = self.net
        del net._eject_open[self.key]
        packets = self.packets
        count = len(packets)
        net.inflight -= count
        net._c_packets_ejected.value += count
        now = net.scheduler.now
        record = net._latency_hist.record
        for packet in packets:
            record(now - packet.injected_at)
        free = net._free_packet
        for pix in self.pixs:
            free(pix)
        msgs = [packet.msg for packet in packets]
        iface = net.interfaces[self.tile]
        if count > 1:
            batch_hook = iface.eject_batch_hook
            if batch_hook is not None:
                batch_hook(msgs)
                return
        hook = iface.eject_hook
        if hook is not None:
            for msg in msgs:
                hook(msg)


class _Register:
    """Event: filter registration + stationary filtering at the push's
    arrival cycle (the reference registers inside ``accept``)."""

    __slots__ = ("net", "router", "ports", "pid", "line")

    def __init__(self, net: "ArrayNetwork", router: int, ports: Tuple,
                 pid: int, line: int) -> None:
        self.net = net
        self.router = router
        self.ports = ports
        self.pid = pid
        self.line = line

    def __call__(self) -> None:
        net = self.net
        base_k = self.router * net._radix
        for port, dests in self.ports:
            key = base_k + port
            net.filters[key].register(self.pid, self.line, dests)
            net._fcount[key] += 1
            if net.filter_enabled:
                net._stationary_filter(key, self.line, dests)


class _Lookup:
    """Event: the GETS arrival-time filter lookup.

    Scheduled at transmit time only when the destination input port's
    filter held entries (a vectorized prescreen); pushes that register
    *after* the prescreen are covered by the extended stationary filter,
    which also drops matching in-flight requests at registration time.
    """

    __slots__ = ("net", "slot", "pix", "packet", "fkey")

    def __init__(self, net: "ArrayNetwork", slot: int, pix: int,
                 packet: Packet, fkey: int) -> None:
        self.net = net
        self.slot = slot
        self.pix = pix
        self.packet = packet
        self.fkey = fkey

    def __call__(self) -> None:
        net = self.net
        packet = self.packet
        # Guard against the slot having been dropped (stationary filter)
        # and possibly refilled since the prescreen.
        if (net._s_pix[self.slot] == self.pix
                and net._pkt[self.pix] is packet
                and net.filters[self.fkey].matches(
                    packet.line_addr, packet.msg.src)):
            net._drop_request(self.slot)


class _Deregister:
    """Event: lazy filter deregistration one link delay after the
    push replica's tail flit leaves its output port."""

    __slots__ = ("net", "fkey", "pid", "line")

    def __init__(self, net: "ArrayNetwork", fkey: int, pid: int,
                 line: int) -> None:
        self.net = net
        self.fkey = fkey
        self.pid = pid
        self.line = line

    def __call__(self) -> None:
        net = self.net
        net.filters[self.fkey].deregister(self.pid, self.line)
        net._fcount[self.fkey] -= 1


class ArrayNetwork:
    """Whole-fabric array NoC, duck-typing :class:`repro.noc.Network`."""

    engine_kind = "array"

    def __init__(self, params: NoCParams, scheduler: Scheduler,
                 filter_enabled: bool = False,
                 ordered_pushes: bool = False) -> None:
        self.params = params
        self.scheduler = scheduler
        self.filter_enabled = filter_enabled
        self.ordered_pushes = ordered_pushes
        self._push_tracking = filter_enabled or ordered_pushes
        self.topology = build_topology(params)
        self.tables = RoutingTables(self.topology)
        topo = self.topology

        radix = self._radix = topo.radix
        routers = self._num_routers = topo.num_routers
        tiles = self._num_tiles = topo.num_tiles
        vnets = self._num_vnets = params.num_vnets
        classes = self._num_classes = topo.num_vc_classes
        self._buckets_per_port = buckets = vnets * classes
        self._vcs_per_bucket = depth = params.vcs_per_vnet // classes
        keys = self._num_keys = routers * radix
        slots = keys * buckets * depth
        self._link_latency = params.link_latency
        self._ll_shift = max((radix - 1).bit_length(), 1)

        # ---- topology compiled to dense index tensors ----------------
        tabs = topo.port_tables()
        nbr_r = np.asarray(tabs["neighbor_router"], dtype=np.int64)
        nbr_p = np.asarray(tabs["neighbor_port"], dtype=np.int64)
        #: port key -> the downstream input port's key (-1 off-fabric)
        self._down_key = np.where(
            nbr_r >= 0, nbr_r * radix + nbr_p, -1).reshape(-1)
        #: port key -> attached tile for ejection ports (-1 on links)
        self._eject_tile = np.asarray(
            tabs["eject_tile"], dtype=np.int64).reshape(-1)
        #: port key -> 1 when the out-link crosses the fabric's dateline
        self._dateline = np.asarray(
            tabs["dateline"], dtype=np.int64).reshape(-1)
        #: port key -> index into the flat link-load array
        key_router = np.arange(keys, dtype=np.int64) // radix
        self._ll_index = (key_router << self._ll_shift) | (
            np.arange(keys, dtype=np.int64) % radix)
        attach = np.asarray(tabs["attach"], dtype=np.int64)
        attach_key = attach[:, 0] * radix + attach[:, 1]
        # Python-list mirrors of the static tensors: the scalar sidecars
        # (injection, multicast, event callbacks) index these far more
        # cheaply than NumPy scalar reads.
        self._down_key_l = self._down_key.tolist()
        self._eject_tile_l = self._eject_tile.tolist()
        self._dateline_l = self._dateline.tolist()
        self._ll_index_l = self._ll_index.tolist()
        self._attach_key_l = attach_key.tolist()
        #: (tile, vnet) -> the local input bucket injections land in
        self._local_bucket_l = [
            [key * buckets + vnet * classes for vnet in range(vnets)]
            for key in self._attach_key_l]

        # ---- credit buckets ------------------------------------------
        #: the sentinel bucket ejection records point at: it always has
        #: credit and nothing ever takes or returns one
        self._eject_bucket = sentinel = keys * buckets
        self._credit = np.full(keys * buckets + 1, depth, dtype=np.int64)
        #: free VC slots per real bucket (the credit count), kept exact
        #: by every install (-1) and slot clear (+1)
        self._free_cnt = self._credit[:-1]

        # ---- next-hop table --------------------------------------------
        #: (router, vnet * tiles + dest) -> the output key a packet
        #: takes there, and the credit bucket it needs behind that port
        #: (the sentinel on ejection ports; on dateline fabrics the
        #: bucket of a packet entering the link, class 0 plus dateline)
        vt = vnets * tiles
        route = np.asarray(self.tables.by_vnet[:vnets], dtype=np.int64)
        self._nh_key = nh_key = (
            np.arange(routers, dtype=np.int64)[:, None] * radix
            + route.transpose(1, 0, 2).reshape(routers, vt)).reshape(-1)
        nh_class = np.tile(np.repeat(
            np.arange(vnets, dtype=np.int64) * classes, tiles), routers)
        if classes > 1:
            nh_class += self._dateline[nh_key]
        self._nh_bucket = np.where(
            self._eject_tile[nh_key] >= 0, sentinel,
            self._down_key[nh_key] * buckets + nh_class)
        #: port key -> the row of the next-hop table its link leads to
        self._down_row = np.where(
            self._down_key >= 0, self._down_key // radix * vt, -1)
        self._vc_offsets = np.arange(depth, dtype=np.int64)

        # ---- per-slot records: per-hop state only ---------------------
        never = np.int64(NEVER)
        self._s_pix = np.full(slots, -1, dtype=np.int64)
        self._s_ready = np.full(slots, never, dtype=np.int64)
        self._s_outkey = np.full(slots, -1, dtype=np.int64)
        self._s_downbucket = np.full(slots, sentinel, dtype=np.int64)
        #: output-port busy-until cycles (switch/link serialization)
        self._p_busy = np.full(keys, -1, dtype=np.int64)

        # ---- per-packet constants, indexed by pix ----------------------
        #: written once by ``_alloc_packet``; grown by doubling
        self._pk_flits = np.zeros(256, dtype=np.int64)
        self._pk_traffic = np.zeros(256, dtype=np.int64)
        #: ``vnet * num_tiles + dests[0]``: the next-hop table column
        self._pk_vdest = np.zeros(256, dtype=np.int64)
        self._pk_inv = np.zeros(256, dtype=bool)
        self._pk_gets = np.zeros(256, dtype=bool)
        self._pk_push = np.zeros(256, dtype=bool)

        # ---- scalar sidecar state ------------------------------------
        #: packet registry: pix -> Packet (slot arrays store indices)
        self._pkt: List[Optional[Packet]] = []
        self._free_pix: List[int] = []
        #: multicast residents: slot -> [ready, pix, pending, prev_out]
        self._mc: Dict[int, list] = {}
        #: pending source-VC releases: cycle -> (slots, pixs to free),
        #: plus a heap of those cycles
        self._release: Dict[int, Tuple[List[int], List[int]]] = {}
        self._release_at: List[int] = []
        #: per-tile injection queues and NI state
        self._queues: List[Tuple[deque, ...]] = [
            tuple(deque() for _ in range(vnets)) for _ in range(tiles)]
        #: tiles with a queued packet, and each tile's queued count
        self._backlogged = set()
        self._q_count: List[int] = [0] * tiles
        self._ni_busy: List[int] = [-1] * tiles
        self._ni_rr: List[int] = [0] * tiles
        self._vnet_orders = tuple(
            tuple((start + step) % vnets for step in range(vnets))
            for start in range(vnets))
        self._backlog_total = 0
        #: one in-network filter per output port (push modes only)
        if self._push_tracking:
            capacity = radix * params.vcs_per_vnet
            self.filters = [InNetworkFilter(capacity) for _ in range(keys)]
        else:
            self.filters = []
        self._fcount = np.zeros(keys, dtype=np.int64)

        # ---- events, stats, run-loop state ----------------------------
        #: open (cycle * num_tiles + tile) -> _Eject batches still
        #: accepting arrivals; entries remove themselves on fire
        self._eject_open: Dict[int, _Eject] = {}
        self.interfaces = [ArrayInterface(tile, self)
                           for tile in range(tiles)]
        self.routers: Tuple = ()
        self.stats = StatGroup("network")
        self._c_packets_injected = self.stats.counter("packets_injected")
        self._c_flits_injected = self.stats.counter("flits_injected")
        self._c_packets_ejected = self.stats.counter("packets_ejected")
        self._c_requests_filtered = self.stats.counter("requests_filtered")
        self._latency_hist = self.stats.histogram(
            "packet_latency", bucket_width=8)
        self._link_load = np.zeros(
            routers << self._ll_shift, dtype=np.int64)
        self._traffic_flits = np.zeros(
            len(TrafficClass) + 1, dtype=np.int64)
        self.request_filtered_hook: Optional[
            Callable[[CoherenceMsg], None]] = None
        self.inflight = 0
        self._last_progress = 0
        self._next_work = NEVER

    # ------------------------------------------------------------------
    # endpoint API
    # ------------------------------------------------------------------

    def interface(self, tile: int) -> ArrayInterface:
        return self.interfaces[tile]

    def send(self, msg: CoherenceMsg) -> None:
        """Queue a message at its source tile for injection."""
        params = self.params
        flits = (params.data_packet_flits if msg.carries_data
                 else params.control_packet_flits)
        now = self.scheduler.now
        packet = Packet(msg, flits, injected_at=now)
        src = msg.src
        self._queues[src][msg.vnet].append(packet)
        self._q_count[src] += 1
        self._backlogged.add(src)
        self._backlog_total += 1
        self.inflight += len(packet.dests)
        self._c_packets_injected.value += 1
        self._c_flits_injected.value += flits
        if now < self._next_work:
            self._next_work = now

    # ------------------------------------------------------------------
    # packet registry helpers
    # ------------------------------------------------------------------

    def _alloc_packet(self, packet: Packet) -> int:
        """Register a packet and write its constants; its index."""
        free = self._free_pix
        if free:
            pix = free.pop()
            self._pkt[pix] = packet
        else:
            pix = len(self._pkt)
            self._pkt.append(packet)
            if pix == self._pk_flits.size:
                self._grow_packets()
        self._pk_flits[pix] = packet.flits
        self._pk_traffic[pix] = packet.traffic_idx
        self._pk_vdest[pix] = (packet.vnet * self._num_tiles
                               + packet.dests[0])
        msg_type = packet.msg_type
        self._pk_inv[pix] = msg_type is _INV
        self._pk_gets[pix] = msg_type is _GETS
        self._pk_push[pix] = msg_type is _PUSH
        return pix

    def _grow_packets(self) -> None:
        """Double the per-packet arrays (the registry outgrew them)."""
        for name in ("_pk_flits", "_pk_traffic", "_pk_vdest", "_pk_inv",
                     "_pk_gets", "_pk_push"):
            old = getattr(self, name)
            new = np.zeros(2 * old.size, dtype=old.dtype)
            new[:old.size] = old
            setattr(self, name, new)

    def _free_packet(self, pix: int) -> None:
        self._pkt[pix] = None
        self._free_pix.append(pix)

    def _clear_slot(self, slot: int) -> None:
        # An empty slot is never a candidate, so its other fields may
        # stay stale until the next install overwrites them.
        self._free_cnt[slot // self._vcs_per_bucket] += 1
        self._s_pix[slot] = -1
        self._s_ready[slot] = NEVER

    def _clear_slots(self, slots) -> None:
        """Bulk form of :meth:`_clear_slot` (list or index array)."""
        slots = np.asarray(slots, dtype=np.int64)
        # Two released slots may share a bucket, so the credit add
        # must accumulate.
        np.add.at(self._free_cnt, slots // self._vcs_per_bucket, 1)
        self._s_pix[slots] = -1
        self._s_ready[slots] = NEVER

    def _release_group(self, cycle: int) -> Tuple[List[int], List[int]]:
        """The (slots, pixs) lists of tail releases due at ``cycle``."""
        group = self._release.get(cycle)
        if group is None:
            group = self._release[cycle] = ([], [])
            heappush(self._release_at, cycle)
        return group

    def _drop_request(self, slot: int) -> None:
        """Consume a filtered GETS: free its VC slot and its packet."""
        pix = int(self._s_pix[slot])
        packet = self._pkt[pix]
        self._clear_slot(slot)
        self._free_packet(pix)
        self.inflight -= 1
        self._c_requests_filtered.value += 1
        if self.request_filtered_hook is not None:
            self.request_filtered_hook(packet.msg)

    def _stationary_filter(self, key: int, line: int, dests) -> None:
        """Drop same-line GETS buffered — or already in flight toward —
        the input port co-located with a registering push's output port.

        The reference only scans buffered requests and catches in-flight
        ones with an arrival-time lookup; here the arrival lookup is
        prescreened away when the filter was empty at transmit time, so
        the registration-time scan also covers pre-installed records.
        """
        s_pix = self._s_pix
        base = key * self._buckets_per_port * self._vcs_per_bucket
        span = self._num_classes * self._vcs_per_bucket
        pkt = self._pkt
        for slot in range(base, base + span):
            pix = s_pix[slot]
            if pix < 0:
                continue
            request = pkt[pix]
            if (request.msg_type is _GETS and request.line_addr == line
                    and request.msg.src in dests):
                self._drop_request(slot)

    # ------------------------------------------------------------------
    # install paths (pre-install at grant time = credit reservation)
    # ------------------------------------------------------------------

    def _take_free_vc(self, bucket_key: int) -> int:
        """Claim the first free slot of a VC bucket, or -1.

        The free count is decremented — the caller must install into
        the returned slot.
        """
        free_cnt = self._free_cnt
        count = free_cnt[bucket_key]
        if count <= 0:
            return -1
        depth = self._vcs_per_bucket
        base = bucket_key * depth
        s_pix = self._s_pix
        for slot in range(base, base + depth):
            if s_pix[slot] < 0:
                break
        else:
            raise SimulationError(
                f"VC bucket {bucket_key} counts {count} free slot(s) "
                f"but every slot is occupied")
        free_cnt[bucket_key] = count - 1
        return slot

    def _install(self, slot: int, pix: int, packet: Packet, key: int,
                 ready: int, prev_out: int):
        """Write a packet record into input slot ``slot`` of port ``key``.

        Returns the ``(port, dests)`` pairs the packet will compete for
        at the new router (used for push filter registration).  A
        multicast packet becomes a scalar-tracked resident; a unicast
        packet gets the per-hop vector fields.
        """
        radix = self._radix
        router = key // radix
        dests = packet.dests
        self._s_pix[slot] = pix
        if len(dests) > 1:
            ports = self.tables.output_port_list(
                packet.vnet, router, dests)
            self._s_outkey[slot] = -2
            self._s_ready[slot] = NEVER
            self._mc[slot] = [ready, pix, list(ports), prev_out]
            return ports
        vnet = packet.vnet
        out = self.tables.by_vnet[vnet][router][dests[0]]
        out_key = router * radix + out
        self._s_ready[slot] = ready
        self._s_outkey[slot] = out_key
        if self._eject_tile_l[out_key] >= 0:
            self._s_downbucket[slot] = self._eject_bucket
        else:
            if self._num_classes > 1:
                here = (slot // self._vcs_per_bucket) % \
                    self._buckets_per_port
                nxt = here if prev_out == out else vnet * self._num_classes
                nxt += self._dateline_l[out_key]
            else:
                nxt = vnet
            self._s_downbucket[slot] = self._down_key_l[out_key] * \
                self._buckets_per_port + nxt
        return ((out, dests),)

    def _schedule_eject(self, tile: int, pix: int, packet: Packet,
                        cycle: int) -> None:
        key = cycle * self._num_tiles + tile
        open_ejects = self._eject_open
        event = open_ejects.get(key)
        if event is None:
            event = open_ejects[key] = _Eject(self, tile, key)
            self.scheduler.at(cycle, event)
        event.pixs.append(pix)
        event.packets.append(packet)

    # ------------------------------------------------------------------
    # per-cycle passes
    # ------------------------------------------------------------------

    def _inject_pass(self, cycle: int) -> None:
        """One injection attempt per idle, backlogged tile (NI model).

        Walks only the tiles with a queued packet, in tile order; each
        tile's own local buckets are the only credits its injection
        reads or takes, so the order never changes an outcome.
        """
        latency = self._link_latency
        ordered = self.ordered_pushes
        ni_busy = self._ni_busy
        q_count = self._q_count
        backlogged = self._backlogged
        for tile in sorted(backlogged):
            if ni_busy[tile] >= cycle:
                continue
            queues = self._queues[tile]
            key = self._attach_key_l[tile]
            buckets = self._local_bucket_l[tile]
            for vnet in self._vnet_orders[self._ni_rr[tile]]:
                queue = queues[vnet]
                if not queue:
                    continue
                if (vnet == 2 and ordered
                        and self._inv_blocked(queue[0], queues[1])):
                    continue
                slot = self._take_free_vc(buckets[vnet])
                if slot < 0:
                    continue
                packet = queue.popleft()
                self._backlog_total -= 1
                q_count[tile] -= 1
                if not q_count[tile]:
                    backlogged.discard(tile)
                pix = self._alloc_packet(packet)
                ports = self._install(
                    slot, pix, packet, key, cycle + latency + 1, -1)
                ni_busy[tile] = cycle + packet.flits - 1
                arrival = cycle + latency
                if self._push_tracking and packet.msg_type is _PUSH:
                    self.scheduler.at(arrival, _Register(
                        self, key // self._radix, tuple(ports),
                        packet.pid, packet.line_addr))
                elif (self.filter_enabled and packet.msg_type is _GETS
                        and self._fcount[key] > 0):
                    self.scheduler.at(arrival, _Lookup(
                        self, slot, pix, packet, key))
                self._ni_rr[tile] = (vnet + 1) % self._num_vnets
                break

    @staticmethod
    def _inv_blocked(packet: Packet, push_queue) -> bool:
        """OrdPush: an INV may not enter behind a queued same-line push."""
        if packet.msg_type is not _INV:
            return False
        line = packet.line_addr
        return any(queued.msg_type is _PUSH and queued.line_addr == line
                   for queued in push_queue)

    def _multicast_pass(self, cycle: int) -> None:
        """Asynchronous multicast: each resident bids for its remaining
        ports; replicas leave as ports and downstream credits free up."""
        radix = self._radix
        buckets = self._buckets_per_port
        depth = self._vcs_per_bucket
        latency = self._link_latency
        # Blocked residents re-test their ports every congested cycle;
        # a local list snapshot turns those hot reads into plain Python
        # indexing (grants write through to the shared array).
        p_busy = self._p_busy
        busy = p_busy.tolist()
        down_key = self._down_key_l
        eject_tile = self._eject_tile_l
        finished = []
        # Snapshot: installing a still-multicast branch downstream adds
        # a new resident mid-pass (it can't be ready before next cycle).
        for slot, state in list(self._mc.items()):
            ready, pix, pending, prev_out = state
            if ready > cycle:
                continue
            parent = self._pkt[pix]
            flits = parent.flits
            vnet = parent.vnet
            router = slot // (radix * buckets * depth)
            here = (slot // depth) % buckets
            granted = []
            for entry in pending:
                port, dests = entry
                key = router * radix + port
                if busy[key] >= cycle:
                    continue
                eject = eject_tile[key]
                child_slot = -1
                if eject < 0:
                    bucket = vnet
                    if self._num_classes > 1:
                        bucket = (here if prev_out == port
                                  else vnet * self._num_classes)
                        bucket += self._dateline_l[key]
                    down_bucket = down_key[key] * buckets + bucket
                    child_slot = self._take_free_vc(down_bucket)
                    if child_slot < 0:
                        continue
                busy[key] = p_busy[key] = cycle + flits - 1
                self._link_load[self._ll_index_l[key]] += flits
                self._traffic_flits[parent.traffic_idx] += flits
                self._last_progress = cycle
                if self._push_tracking and parent.msg_type is _PUSH:
                    self.scheduler.at(
                        cycle + flits - 1 + latency, _Deregister(
                            self, key, parent.pid, parent.line_addr))
                branch = parent.replica(dests)
                child_pix = self._alloc_packet(branch)
                if eject >= 0:
                    self._schedule_eject(
                        eject, child_pix, branch,
                        cycle + latency + flits)
                else:
                    child_ports = self._install(
                        child_slot, child_pix, branch,
                        down_key[key], cycle + latency + 2, port)
                    if self._push_tracking and branch.msg_type is _PUSH:
                        self.scheduler.at(cycle + 1 + latency, _Register(
                            self, down_key[key] // radix,
                            tuple(child_ports), branch.pid,
                            branch.line_addr))
                granted.append(entry)
            if granted:
                for entry in granted:
                    pending.remove(entry)
                if not pending:
                    finished.append((slot, pix, flits))
        for slot, pix, flits in finished:
            del self._mc[slot]
            if flits == 1:
                # Freed at grant like the reference's single-flit path;
                # the credit becomes visible to this cycle's allocation.
                self._clear_slot(slot)
                self._free_packet(pix)
            else:
                slots, pixs = self._release_group(cycle + flits - 1)
                slots.append(slot)
                pixs.append(pix)

    def _allocate_pass(self, cycle: int) -> None:
        """Vectorized switch allocation over every unicast candidate."""
        s_ready = self._s_ready
        cand = np.nonzero(s_ready <= cycle)[0]
        if not cand.size:
            return
        out_keys = self._s_outkey[cand]
        # Port free + downstream credit (ejection records point at the
        # sentinel bucket, which always has credit).  The free counts
        # already reflect this cycle's releases and its injection and
        # multicast claims; the short-winner clears at the end of this
        # pass only show from the next cycle on.
        valid = (self._p_busy[out_keys] < cycle) & (
            self._credit[self._s_downbucket[cand]] > 0)
        if self.ordered_pushes:
            cand_pix = self._s_pix[cand]
            stall = valid & self._pk_inv[cand_pix] & (
                self._fcount[out_keys] > 0)
            for pos in np.nonzero(stall)[0]:
                packet = self._pkt[int(cand_pix[pos])]
                if self.filters[int(out_keys[pos])].has_line(
                        packet.line_addr):
                    valid[pos] = False
        cand = cand[valid]
        if not cand.size:
            return
        out_keys = out_keys[valid]
        # One grant per output port per cycle; priority rotates with the
        # cycle over each router's slot range for round-robin fairness.
        span = self._radix * self._buckets_per_port * self._vcs_per_bucket
        priority = (cand - cycle) % span
        # Sorting one combined key is ~2x cheaper than a lexsort; same
        # out_key implies same router, so priorities never tie within a
        # key and the ordering is identical.
        order = np.argsort(out_keys * span + priority)
        sorted_keys = out_keys[order]
        first = np.ones(sorted_keys.size, dtype=bool)
        first[1:] = sorted_keys[1:] != sorted_keys[:-1]
        winners = cand[order[first]]
        win_keys = sorted_keys[first]
        pixs = self._s_pix[winners]
        flits = self._pk_flits[pixs]
        self._p_busy[win_keys] = cycle + flits - 1
        # win_keys are unique (one grant per port), so a plain fancy add
        # is safe; traffic classes repeat, so that one stays add.at.
        self._link_load[self._ll_index[win_keys]] += flits
        np.add.at(self._traffic_flits, self._pk_traffic[pixs], flits)
        self._last_progress = cycle

        latency = self._link_latency
        eject_tiles = self._eject_tile[win_keys]
        eject_mask = eject_tiles >= 0
        # Ejection winners join their (cycle, tile) burst.  A granted
        # push deregisters from its (eject) port's filter exactly like a
        # link grant would.
        eject_pixs = pixs[eject_mask]
        if eject_pixs.size:
            pkt = self._pkt
            for pix, tile, key in zip(eject_pixs.tolist(),
                                      eject_tiles[eject_mask].tolist(),
                                      win_keys[eject_mask].tolist()):
                packet = pkt[pix]
                length = packet.flits
                if self._push_tracking and packet.msg_type is _PUSH:
                    self.scheduler.at(
                        cycle + length - 1 + latency, _Deregister(
                            self, key, packet.pid, packet.line_addr))
                self._schedule_eject(tile, pix, packet,
                                     cycle + latency + length)
        # Link winners: install every record downstream in one shot.
        link = ~eject_mask
        link_slots = winners[link]
        if link_slots.size:
            self._install_links(link_slots, win_keys[link], pixs[link],
                                cycle)
        # Retire the source VCs: single-flit packets free at once (the
        # credit shows next cycle), longer packets drain until the tail.
        s_ready[winners] = NEVER
        short = flits == 1
        long = ~short
        long_slots = winners[long]
        if long_slots.size:
            last = 0
            for slot, length in zip(long_slots.tolist(),
                                    flits[long].tolist()):
                if length != last:
                    group = self._release_group(cycle + length - 1)[0]
                    last = length
                group.append(slot)
        short_slots = winners[short]
        if short_slots.size:
            self._clear_slots(short_slots)

    def _install_links(self, src, keys, pixs, cycle: int) -> None:
        """Vectorized pre-install of link winners at their next routers.

        ``src`` are the winners' slots, ``keys`` their output keys and
        ``pixs`` their packet indices.
        """
        down_bucket = self._s_downbucket[src]
        base = down_bucket * self._vcs_per_bucket
        # First free VC of each destination bucket (credit-checked, and
        # each bucket is fed by exactly one upstream port, so at most
        # one install lands per bucket per cycle and the plain fancy
        # decrement below is exact).
        block = self._s_pix[base[:, None] + self._vc_offsets]
        new_slots = base + (block < 0).argmax(axis=1)
        self._free_cnt[down_bucket] -= 1
        vdest = self._pk_vdest[pixs]
        row = self._down_row[keys] + vdest
        key2 = self._nh_key[row]
        if self._num_classes > 1:
            # Dateline fabrics: a packet that keeps to its ring keeps
            # its VC class, one that turns restarts at class 0, and a
            # dateline link bumps the class.
            radix = self._radix
            buckets = self._buckets_per_port
            keep = (keys % radix) == (key2 % radix)
            bucket2 = np.where(keep, down_bucket % buckets,
                               vdest // self._num_tiles * self._num_classes)
            bucket2 = bucket2 + self._dateline[key2]
            down_bucket2 = np.where(
                self._eject_tile[key2] >= 0, self._eject_bucket,
                self._down_key[key2] * buckets + bucket2)
        else:
            down_bucket2 = self._nh_bucket[row]
        self._s_pix[new_slots] = pixs
        self._s_ready[new_slots] = cycle + self._link_latency + 2
        self._s_outkey[new_slots] = key2
        self._s_downbucket[new_slots] = down_bucket2
        # Scalar sidecars for the rare flagged records.
        arrival = cycle + 1 + self._link_latency
        if self._push_tracking:
            radix = self._radix
            for pos in np.nonzero(self._pk_push[pixs])[0]:
                packet = self._pkt[int(pixs[pos])]
                out_key = int(key2[pos])
                self.scheduler.at(
                    cycle + packet.flits - 1 + self._link_latency,
                    _Deregister(self, int(keys[pos]), packet.pid,
                                packet.line_addr))
                self.scheduler.at(arrival, _Register(
                    self, out_key // radix,
                    ((out_key % radix, packet.dests),),
                    packet.pid, packet.line_addr))
        if self.filter_enabled:
            down_key = self._down_key[keys]
            gets = self._pk_gets[pixs] & (self._fcount[down_key] > 0)
            for pos in np.nonzero(gets)[0]:
                pix = int(pixs[pos])
                self.scheduler.at(arrival, _Lookup(
                    self, int(new_slots[pos]), pix, self._pkt[pix],
                    int(down_key[pos])))

    # ------------------------------------------------------------------
    # simulation loop
    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.inflight > 0

    def next_work_cycle(self) -> int:
        return self._next_work

    def watchdog_deadline(self) -> int:
        return self._last_progress + DEADLOCK_WATCHDOG_CYCLES + 1

    def tick(self, cycle: int) -> None:
        if cycle >= self._next_work:
            release_at = self._release_at
            while release_at and release_at[0] <= cycle:
                slots, pixs = self._release.pop(heappop(release_at))
                self._clear_slots(slots)
                for pix in pixs:
                    self._free_packet(pix)
            if self._backlog_total:
                self._inject_pass(cycle)
            if self._mc:
                self._multicast_pass(cycle)
            self._allocate_pass(cycle)
            # Next wake: the earliest buffered record's eligibility (a
            # stale-low value just means per-cycle ticking while blocked
            # on credits, which is exactly the saturated regime), the
            # next tail-release, or the very next cycle while endpoint
            # queues or multicast residents still hold work.
            nxt = int(self._s_ready.min())
            if release_at and release_at[0] < nxt:
                nxt = release_at[0]
            if (self._backlog_total or self._mc) and cycle + 1 < nxt:
                nxt = cycle + 1
            self._next_work = nxt
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
        shift = self._ll_shift
        mask = (1 << shift) - 1
        wrap = Direction if self.topology.ports_are_directions else int
        return {(key >> shift, wrap(key & mask)): int(flits)
                for key, flits in enumerate(self._link_load) if flits}

    def total_flits(self) -> int:
        return int(self._link_load.sum())

    def traffic_breakdown(self) -> Dict[TrafficClass, int]:
        flits = self._traffic_flits
        return {cls: int(flits[cls.value]) for cls in TrafficClass}

    def link_load_matrix(self) -> Dict[Tuple[int, str], int]:
        return flat_link_load_matrix(
            self._link_load, self._ll_shift, self.topology.port_name)

    # ------------------------------------------------------------------
    # checkpoint state (see repro.sim.checkpoint)
    # ------------------------------------------------------------------

    def state(self) -> Dict:
        """Always raises: warm images are built on the event reference
        engine (``repro.sim.checkpoint.warm_params``), and capturing here
        would bake this backend's statistical divergences into a
        shared image."""
        raise SimulationError(
            "warm-state capture requires the event NoC engine")

    def restore_state(self, snap: Dict, cycle: int) -> None:
        """Reload an event engine's :meth:`Network.state` snapshot.

        This backend shares the event engine's flat accounting layouts,
        so an event-built image restores directly; the per-router stats
        and port counters have no analogue here (there are no router
        objects) and are dropped.  A functional image only anchors the
        deadlock watchdog at ``cycle``.
        """
        if snap.get("functional"):
            self._last_progress = cycle
            return
        self.stats.restore_state(snap["stats"])
        restore_flat(self._traffic_flits, snap, "traffic_flits")
        restore_flat(self._link_load, snap, "link_load")
        self._last_progress = snap["last_progress"]
        self._ni_rr[:] = snap["rr_vnet"]

    def __repr__(self) -> str:
        return (f"ArrayNetwork(routers={self._num_routers}, "
                f"inflight={self.inflight})")
