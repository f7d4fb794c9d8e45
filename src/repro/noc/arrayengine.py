"""Vectorized whole-fabric NoC backend (``NoCParams.engine = "array"``).

The event engine (:mod:`repro.noc.network`) advances one Python
``Router``/``NetworkInterface`` object at a time; under saturation on
64- and 256-core grids that per-object dispatch dominates the run.
Following the flat-array formulation of *Bufferless NOC Simulation of
Large Multicore Systems on GPU Hardware* (see PAPERS.md), this engine
keeps every virtual channel of every router in preallocated NumPy
arrays indexed ``(router, port, vc-bucket, vc)`` and performs the
per-cycle credit scan, switch allocation, link transmit, and ejection
as masked array operations over the whole fabric at once.

Layout
------

The port graph of any :mod:`repro.noc.topology` fabric is compiled at
construction (via :meth:`Topology.port_tables`) into dense index
tensors: ``(router, port)`` pairs flatten to *port keys*
``k = router * radix + port``; each input port holds ``B = num_vnets *
num_vc_classes`` VC buckets of ``C`` VCs, so VC slots flatten to
``slot = (k * B + bucket) * C + vc``.  Per-slot arrays carry the
packet record (owner index, routed output key, destination bucket at
the next hop, flit count, traffic class, eligibility cycle) so one
``lexsort`` picks every router's switch-allocation winner in a single
pass.

Timing model
------------

The engine mirrors the reference pipeline: a packet granted at cycle
``X`` occupies the downstream VC immediately (occupancy doubles as the
credit reservation), arrives at ``X + 1 + link_latency``, and becomes
switch-allocation eligible one cycle later; output ports stay busy for
the packet length and ejections deliver at ``X + link_latency +
flits``.  Rare paths — multicast replication, push filter
registration/lookup, and OrdPush invalidation stalls — run as scalar
sidecars over the same arrays.

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
                               flat_link_load_matrix)
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
    """Pooled event: deliver one tile's same-cycle ejection burst.

    One event per (cycle, tile) rather than per packet: arrivals that
    land together are delivered together — through the interface's
    ``eject_batch_hook`` when several arrive (one hook call, one
    dispatch loop, batched LLC pipeline bookkeeping downstream), else
    the ordinary per-message hook.  Bookkeeping per packet is identical
    to the former one-event-per-packet scheme.
    """

    __slots__ = ("net", "tile", "key", "pixs", "packets")

    def __init__(self, net: "ArrayNetwork") -> None:
        self.net = net
        self.tile = 0
        self.key = -1
        self.pixs: List[int] = []
        self.packets: List[Packet] = []

    def __call__(self) -> None:
        net = self.net
        del net._eject_open[self.key]
        packets = self.packets
        pixs = self.pixs
        count = len(packets)
        net.inflight -= count
        net._c_packets_ejected.value += count
        now = net.scheduler.now
        batch = net._latency_batch
        for packet in packets:
            batch.append(now - packet.injected_at)
        if len(batch) >= 1024:
            net.flush_stat_batches()
        free = net._free_packet
        for pix in pixs:
            free(pix)
        msgs = [packet.msg for packet in packets]
        iface = net.interfaces[self.tile]
        pixs.clear()
        packets.clear()
        # The event is reusable from here on; recycle before the hook
        # so reentrant sends during delivery can pool-pop it safely.
        net._eject_pool.append(self)
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
    """Pooled event: filter registration + stationary filtering at the
    push's arrival cycle (the reference registers inside ``accept``)."""

    __slots__ = ("net", "router", "ports", "pid", "line")

    def __init__(self, net: "ArrayNetwork") -> None:
        self.net = net
        self.router = 0
        self.ports: Tuple = ()
        self.pid = 0
        self.line = 0

    def __call__(self) -> None:
        net = self.net
        base_k = self.router * net._radix
        for port, dests in self.ports:
            key = base_k + port
            net.filters[key].register(self.pid, self.line, dests)
            net._fcount[key] += 1
            if net.filter_enabled:
                net._stationary_filter(key, self.line, dests)
        self.ports = ()
        net._reg_pool.append(self)


class _Lookup:
    """Pooled event: the GETS arrival-time filter lookup.

    Scheduled at transmit time only when the destination input port's
    filter held entries (a vectorized prescreen); pushes that register
    *after* the prescreen are covered by the extended stationary filter,
    which also drops matching in-flight requests at registration time.
    """

    __slots__ = ("net", "slot", "pix", "packet", "fkey")

    def __init__(self, net: "ArrayNetwork") -> None:
        self.net = net
        self.slot = 0
        self.pix = -1
        self.packet: Optional[Packet] = None
        self.fkey = 0

    def __call__(self) -> None:
        net = self.net
        packet, self.packet = self.packet, None
        # Guard against the slot having been dropped (stationary filter)
        # and possibly refilled since the prescreen.
        if (net._s_pix[self.slot] == self.pix
                and net._pkt[self.pix] is packet
                and net.filters[self.fkey].matches(
                    packet.line_addr, packet.msg.src)):
            net._drop_request(self.slot)
        net._lookup_pool.append(self)


class _Deregister:
    """Pooled event: lazy filter deregistration one link delay after the
    push replica's tail flit leaves its output port."""

    __slots__ = ("net", "fkey", "pid", "line")

    def __init__(self, net: "ArrayNetwork") -> None:
        self.net = net
        self.fkey = 0
        self.pid = 0
        self.line = 0

    def __call__(self) -> None:
        net = self.net
        net.filters[self.fkey].deregister(self.pid, self.line)
        net._fcount[self.fkey] -= 1
        net._dereg_pool.append(self)


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
        self.mesh = self.topology
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
        #: (vnet, router, dest tile) -> output port
        self._route = np.asarray(
            [np.asarray(table, dtype=np.int64)
             for table in self.tables.by_vnet])
        attach = np.asarray(tabs["attach"], dtype=np.int64)
        self._attach_key = attach[:, 0] * radix + attach[:, 1]
        #: (tile, vnet) -> the local input bucket injections land in
        self._local_bucket = (self._attach_key[:, None] * buckets
                              + np.arange(vnets, dtype=np.int64) * classes)
        # Python-list mirrors of the static tensors: the scalar sidecars
        # (injection, multicast, event callbacks) index these far more
        # cheaply than NumPy scalar reads.
        self._down_key_l = self._down_key.tolist()
        self._eject_tile_l = self._eject_tile.tolist()
        self._dateline_l = self._dateline.tolist()
        self._ll_index_l = self._ll_index.tolist()
        self._attach_key_l = self._attach_key.tolist()
        self._local_bucket_l = self._local_bucket.tolist()
        self._route_l = [[list(row) for row in table]
                         for table in self.tables.by_vnet]

        # ---- per-slot packet records ---------------------------------
        never = np.int64(NEVER)
        self._s_pix = np.full(slots, -1, dtype=np.int64)
        self._s_ready = np.full(slots, never, dtype=np.int64)
        self._s_outkey = np.full(slots, -1, dtype=np.int64)
        self._s_downbucket = np.zeros(slots, dtype=np.int64)
        self._s_downbase = np.full(slots, -1, dtype=np.int64)
        self._s_flits = np.zeros(slots, dtype=np.int64)
        self._s_traffic = np.zeros(slots, dtype=np.int64)
        self._s_dest = np.zeros(slots, dtype=np.int64)
        self._s_vnet = np.zeros(slots, dtype=np.int64)
        self._s_eject = np.full(slots, -1, dtype=np.int64)
        self._s_inv = np.zeros(slots, dtype=bool)
        self._s_gets = np.zeros(slots, dtype=bool)
        self._s_push = np.zeros(slots, dtype=bool)
        #: output-port busy-until cycles (switch/link serialization)
        self._p_busy = np.full(keys, -1, dtype=np.int64)

        # ---- scalar sidecar state ------------------------------------
        #: packet registry: pix -> Packet (slot arrays store indices)
        self._pkt: List[Optional[Packet]] = []
        self._free_pix: List[int] = []
        #: multicast residents: slot -> [ready, pix, pending, prev_out]
        self._mc: Dict[int, list] = {}
        #: pending source-VC releases: (cycle, slot, pix_to_free)
        self._release: List[Tuple[int, int, int]] = []
        #: per-tile injection queues and NI state
        self._queues: List[Tuple[deque, ...]] = [
            tuple(deque() for _ in range(vnets)) for _ in range(tiles)]
        self._ni_busy = np.full(tiles, -1, dtype=np.int64)
        self._q_len = np.zeros((tiles, vnets), dtype=np.int64)
        self._ni_rr: List[int] = [0] * tiles
        # Per-cycle free-VC cache, rebuilt at each tick: free slots per
        # bucket plus the offset of the first free one (possibly stale
        # within a cycle; _take_free_vc verifies before use).
        self._free_cnt = np.zeros(keys * buckets, dtype=np.int64)
        self._first_free = np.zeros(keys * buckets, dtype=np.int64)
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

        # ---- event pools, stats, run-loop state ----------------------
        self._eject_pool: List[_Eject] = []
        #: open (cycle * num_tiles + tile) -> _Eject batches still
        #: accepting arrivals; entries remove themselves on fire
        self._eject_open: Dict[int, _Eject] = {}
        self._reg_pool: List[_Register] = []
        self._lookup_pool: List[_Lookup] = []
        self._dereg_pool: List[_Deregister] = []
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
        self._latency_batch: List[int] = []
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
        self._queues[msg.src][msg.vnet].append(packet)
        self._q_len[msg.src, msg.vnet] += 1
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
        free = self._free_pix
        if free:
            pix = free.pop()
            self._pkt[pix] = packet
            return pix
        self._pkt.append(packet)
        return len(self._pkt) - 1

    def _free_packet(self, pix: int) -> None:
        self._pkt[pix] = None
        self._free_pix.append(pix)

    def _clear_slot(self, slot: int) -> None:
        self._s_pix[slot] = -1
        self._s_ready[slot] = NEVER
        self._s_outkey[slot] = -1
        self._s_downbucket[slot] = 0
        self._s_downbase[slot] = -1
        self._s_inv[slot] = False
        self._s_gets[slot] = False
        self._s_push[slot] = False

    def _clear_slots(self, slots) -> None:
        """Bulk form of :meth:`_clear_slot` (list or index array)."""
        self._s_pix[slots] = -1
        self._s_ready[slots] = NEVER
        self._s_outkey[slots] = -1
        self._s_downbucket[slots] = 0
        self._s_downbase[slots] = -1
        self._s_inv[slots] = False
        self._s_gets[slots] = False
        self._s_push[slots] = False

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

        Works off the per-cycle free-VC cache; the cached first-free
        offset may be stale after an earlier install this cycle, so it
        is verified and re-scanned on a miss.  The free count is
        decremented — the caller must install into the returned slot.
        """
        free_cnt = self._free_cnt
        count = free_cnt[bucket_key]
        if count <= 0:
            return -1
        depth = self._vcs_per_bucket
        base = bucket_key * depth
        slot = base + self._first_free[bucket_key]
        s_pix = self._s_pix
        if s_pix[slot] >= 0:
            for slot in range(base, base + depth):
                if s_pix[slot] < 0:
                    break
        free_cnt[bucket_key] = count - 1
        return slot

    def _install(self, slot: int, pix: int, packet: Packet, key: int,
                 bucket: int, ready: int, prev_out: int):
        """Write a packet record into input slot ``slot`` of port ``key``.

        Returns the ``(port, dests)`` pairs the packet will compete for
        at the new router (used for push filter registration).  A
        multicast packet becomes a scalar-tracked resident; a unicast
        packet gets full vector fields.
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
        dest = dests[0]
        vnet = packet.vnet
        out = self._route_l[vnet][router][dest]
        out_key = router * radix + out
        self._s_ready[slot] = ready
        self._s_outkey[slot] = out_key
        self._s_flits[slot] = packet.flits
        self._s_traffic[slot] = packet.traffic_idx
        self._s_dest[slot] = dest
        self._s_vnet[slot] = vnet
        eject = self._eject_tile_l[out_key]
        self._s_eject[slot] = eject
        if eject >= 0:
            self._s_downbucket[slot] = 0
            self._s_downbase[slot] = -1
        else:
            if self._num_classes > 1:
                here = (slot // self._vcs_per_bucket) % \
                    self._buckets_per_port
                nxt = here if prev_out == out else vnet * self._num_classes
                nxt += self._dateline_l[out_key]
            else:
                nxt = vnet
            down_bucket = self._down_key_l[out_key] * \
                self._buckets_per_port + nxt
            self._s_downbucket[slot] = down_bucket
            self._s_downbase[slot] = down_bucket * self._vcs_per_bucket
        self._s_inv[slot] = packet.msg_type is _INV
        self._s_gets[slot] = packet.msg_type is _GETS
        self._s_push[slot] = (self._push_tracking
                              and packet.msg_type is _PUSH)
        return ((out, dests),)

    def _schedule_register(self, router: int, ports, pid: int, line: int,
                           cycle: int) -> None:
        pool = self._reg_pool
        event = pool.pop() if pool else _Register(self)
        event.router = router
        event.ports = tuple(ports)
        event.pid = pid
        event.line = line
        self.scheduler.at(cycle, event)

    def _schedule_lookup(self, slot: int, pix: int, packet: Packet,
                         fkey: int, cycle: int) -> None:
        pool = self._lookup_pool
        event = pool.pop() if pool else _Lookup(self)
        event.slot = slot
        event.pix = pix
        event.packet = packet
        event.fkey = fkey
        self.scheduler.at(cycle, event)

    def _schedule_deregister(self, fkey: int, pid: int, line: int,
                             cycle: int) -> None:
        pool = self._dereg_pool
        event = pool.pop() if pool else _Deregister(self)
        event.fkey = fkey
        event.pid = pid
        event.line = line
        self.scheduler.at(cycle, event)

    def _schedule_eject(self, tile: int, pix: int, packet: Packet,
                        cycle: int) -> None:
        key = cycle * self._num_tiles + tile
        open_ejects = self._eject_open
        event = open_ejects.get(key)
        if event is None:
            pool = self._eject_pool
            event = pool.pop() if pool else _Eject(self)
            event.tile = tile
            event.key = key
            open_ejects[key] = event
            self.scheduler.at(cycle, event)
        event.pixs.append(pix)
        event.packets.append(packet)

    # ------------------------------------------------------------------
    # per-cycle passes
    # ------------------------------------------------------------------

    def _inject_pass(self, cycle: int) -> None:
        """One injection attempt per idle, backlogged tile (NI model).

        The shortlist is computed vectorized — only tiles that are not
        serializing a previous packet AND have a backlogged vnet with a
        free VC in its local bucket enter the scalar round-robin loop —
        so a saturated fabric with no endpoint credits costs a handful
        of array operations, not a walk over every tile.
        """
        can = ((self._q_len > 0)
               & (self._free_cnt[self._local_bucket] > 0)).any(axis=1)
        can &= self._ni_busy < cycle
        tiles = np.flatnonzero(can)
        if not tiles.size:
            return
        latency = self._link_latency
        classes = self._num_classes
        ordered = self.ordered_pushes
        for tile in tiles.tolist():
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
                self._q_len[tile, vnet] -= 1
                self._backlog_total -= 1
                pix = self._alloc_packet(packet)
                ports = self._install(
                    slot, pix, packet, key, vnet * classes,
                    cycle + latency + 1, -1)
                self._ni_busy[tile] = cycle + packet.flits - 1
                arrival = cycle + latency
                if self._push_tracking and packet.msg_type is _PUSH:
                    self._schedule_register(
                        key // self._radix, ports, packet.pid,
                        packet.line_addr, arrival)
                elif (self.filter_enabled and packet.msg_type is _GETS
                        and self._fcount[key] > 0):
                    self._schedule_lookup(
                        slot, pix, packet, key, arrival)
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
                bucket = vnet
                if eject < 0:
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
                    self._schedule_deregister(
                        key, parent.pid, parent.line_addr,
                        cycle + flits - 1 + latency)
                branch = parent.replica(dests)
                child_pix = self._alloc_packet(branch)
                if eject >= 0:
                    self._schedule_eject(
                        eject, child_pix, branch,
                        cycle + latency + flits)
                else:
                    child_ports = self._install(
                        child_slot, child_pix, branch,
                        down_key[key], bucket,
                        cycle + latency + 2, port)
                    if self._push_tracking and branch.msg_type is _PUSH:
                        self._schedule_register(
                            down_key[key] // radix,
                            child_ports, branch.pid, branch.line_addr,
                            cycle + 1 + latency)
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
                self._free_cnt[slot // depth] += 1
                self._free_packet(pix)
            else:
                heappush(self._release, (cycle + flits - 1, slot, pix))

    def _allocate_pass(self, cycle: int) -> None:
        """Vectorized switch allocation over every unicast candidate."""
        s_ready = self._s_ready
        cand = np.nonzero(s_ready <= cycle)[0]
        if not cand.size:
            return
        out_keys = self._s_outkey[cand]
        down_bucket = self._s_downbucket[cand]
        # Port free + downstream credit (ejections always accept).  The
        # occupancy cache already reflects this cycle's injection and
        # multicast claims, exactly like a fresh recount would.
        valid = (self._p_busy[out_keys] < cycle) & (
            (self._s_downbase[cand] < 0)
            | (self._free_cnt[down_bucket] > 0))
        if self.ordered_pushes:
            stall = valid & self._s_inv[cand] & (
                self._fcount[out_keys] > 0)
            for pos in np.nonzero(stall)[0]:
                packet = self._pkt[int(self._s_pix[cand[pos]])]
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
        flits = self._s_flits[winners]
        self._p_busy[win_keys] = cycle + flits - 1
        # win_keys are unique (one grant per port), so a plain fancy add
        # is safe; traffic classes repeat, so that one stays add.at.
        self._link_load[self._ll_index[win_keys]] += flits
        np.add.at(self._traffic_flits, self._s_traffic[winners], flits)
        self._last_progress = cycle

        latency = self._link_latency
        eject_mask = self._s_downbase[winners] < 0
        # Ejection winners: one pooled delivery event each.  A granted
        # push deregisters from its (eject) port's filter exactly like a
        # link grant would.
        ew = winners[eject_mask]
        if ew.size:
            for pix, tile, length, is_push, key in zip(
                    self._s_pix[ew].tolist(), self._s_eject[ew].tolist(),
                    self._s_flits[ew].tolist(), self._s_push[ew].tolist(),
                    win_keys[eject_mask].tolist()):
                packet = self._pkt[pix]
                if is_push:
                    self._schedule_deregister(
                        key, packet.pid, packet.line_addr,
                        cycle + length - 1 + latency)
                self._schedule_eject(tile, pix, packet,
                                     cycle + latency + length)
        # Link winners: install every record downstream in one shot.
        link = winners[~eject_mask]
        if link.size:
            self._install_links(link, win_keys[~eject_mask], cycle)
        # Retire the source VCs: single-flit packets free at once (the
        # credit shows next cycle), longer packets drain until the tail.
        s_ready[winners] = NEVER
        short = flits == 1
        long_slots = winners[~short]
        if long_slots.size:
            for slot, length in zip(long_slots.tolist(),
                                    flits[~short].tolist()):
                heappush(self._release, (cycle + length - 1, slot, -1))
        short_slots = winners[short]
        if short_slots.size:
            self._clear_slots(short_slots)

    def _install_links(self, src, keys, cycle: int) -> None:
        """Vectorized pre-install of link winners at their next routers."""
        radix = self._radix
        buckets = self._buckets_per_port
        depth = self._vcs_per_bucket
        down_bucket = self._s_downbucket[src]
        base = down_bucket * depth
        # First free VC of each destination bucket (credit-checked, and
        # each bucket is fed by exactly one upstream port, so at most
        # one install lands per bucket per cycle).
        block = self._s_pix[base[:, None] + np.arange(depth)]
        new_slots = base + (block < 0).argmax(axis=1)
        dest = self._s_dest[src]
        vnet = self._s_vnet[src]
        down_key = self._down_key[keys]
        router2 = down_key // radix
        out2 = self._route[vnet, router2, dest]
        key2 = router2 * radix + out2
        eject2 = self._eject_tile[key2]
        is_eject = eject2 >= 0
        if self._num_classes > 1:
            keep = (keys % radix) == out2
            bucket2 = np.where(keep, down_bucket % buckets,
                               vnet * self._num_classes)
            bucket2 = bucket2 + self._dateline[key2]
        else:
            bucket2 = vnet
        down_bucket2 = np.where(
            is_eject, 0, self._down_key[key2] * buckets + bucket2)
        self._s_pix[new_slots] = self._s_pix[src]
        self._s_ready[new_slots] = cycle + self._link_latency + 2
        self._s_outkey[new_slots] = key2
        self._s_downbucket[new_slots] = down_bucket2
        self._s_downbase[new_slots] = np.where(
            is_eject, -1, down_bucket2 * depth)
        self._s_flits[new_slots] = self._s_flits[src]
        self._s_traffic[new_slots] = self._s_traffic[src]
        self._s_dest[new_slots] = dest
        self._s_vnet[new_slots] = vnet
        self._s_eject[new_slots] = np.where(is_eject, eject2, -1)
        self._s_inv[new_slots] = self._s_inv[src]
        self._s_gets[new_slots] = self._s_gets[src]
        self._s_push[new_slots] = self._s_push[src]
        # Scalar sidecars for the rare flagged records.
        arrival = cycle + 1 + self._link_latency
        if self._push_tracking:
            for pos in np.nonzero(self._s_push[src])[0]:
                slot = int(new_slots[pos])
                packet = self._pkt[int(self._s_pix[slot])]
                self._schedule_deregister(
                    int(keys[pos]), packet.pid, packet.line_addr,
                    cycle + packet.flits - 1 + self._link_latency)
                self._schedule_register(
                    int(router2[pos]), ((int(out2[pos]), packet.dests),),
                    packet.pid, packet.line_addr, arrival)
        if self.filter_enabled:
            gets = self._s_gets[src] & (self._fcount[down_key] > 0)
            for pos in np.nonzero(gets)[0]:
                slot = int(new_slots[pos])
                pix = int(self._s_pix[slot])
                self._schedule_lookup(
                    slot, pix, self._pkt[pix], int(down_key[pos]),
                    arrival)

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
            release = self._release
            if release and release[0][0] <= cycle:
                due = []
                while release and release[0][0] <= cycle:
                    _, slot, pix = heappop(release)
                    due.append(slot)
                    if pix >= 0:
                        self._free_packet(pix)
                self._clear_slots(due)
            # Per-cycle occupancy caches: free-VC count and first free
            # slot of every bucket.  _take_free_vc claims from them on
            # the scalar paths; the passes consult them vectorized.
            occ = self._s_pix.reshape(-1, self._vcs_per_bucket) < 0
            self._free_cnt = occ.sum(axis=1)
            self._first_free = occ.argmax(axis=1)
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
            if release and release[0][0] < nxt:
                nxt = release[0][0]
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

    def flush_stat_batches(self) -> None:
        if self._latency_batch:
            self._latency_hist.record_many(self._latency_batch)
            self._latency_batch.clear()

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
        self.flush_stat_batches()
        flits = self._traffic_flits
        return {cls: int(flits[cls.value]) for cls in TrafficClass}

    def link_load_matrix(self) -> Dict[Tuple[int, str], int]:
        return flat_link_load_matrix(
            self._link_load, self._ll_shift, self.topology.port_name)

    def __repr__(self) -> str:
        return (f"ArrayNetwork(routers={self._num_routers}, "
                f"inflight={self.inflight})")
