"""One shared-LLC slice with its integrated directory.

The slice is the home node for every line the address hash maps to its
tile.  It implements:

* the base MESI directory flows (exclusive grants, downgrades on shared
  reads of owned lines, invalidation collection for writes);
* the paper's push trigger (§III-B): a read from an *existing* sharer of
  a Shared line means the program re-references shared data after
  private-cache eviction, so the reply becomes a speculative multicast
  to every sharer;
* the PushAck extension (Fig. 10b): directory state P blocks writes and
  serves reads with unicasts while push acknowledgments are collected;
* the resume knob (Fig. 9): the PDRMap of push-disabled requesters, the
  alternating Disable-Accepting / Resume phases driven by the Time
  Window, and the counter-reset flag embedded in Resume-phase replies;
* the two evaluation baselines — LLC request **Coalescing** (concurrent
  same-line reads merged into one multicast response) and **MSP**-style
  unicast pushing (no multicast, no filter, no knob).

Requests are processed at one per cycle with the configured lookup
latency (a pipelined controller); transactions to the same line are
serialized through a per-line queue, which is what makes the protocol
free of message races beyond the ones handled explicitly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from repro.common.errors import ProtocolError
from repro.common.messages import CoherenceMsg, MsgType, TrafficClass
from repro.common.params import SystemParams
from repro.common.scheduler import Scheduler
from repro.common.stats import StatGroup
from repro.cache.coherence import STATE_CODE, DirState
from repro.cache.sram import CacheArray, CacheLine


def _mask_tiles(mask: int) -> List[int]:
    """Set bits of ``mask`` as tile ids, in ascending (sorted) order."""
    tiles = []
    while mask:
        low = mask & -mask
        tiles.append(low.bit_length() - 1)
        mask ^= low
    return tiles


class DirEntry:
    """Directory + data state for one line at its home slice.

    Sharer and outstanding-ack tracking use int bitmasks (bit *t* = tile
    *t*), which is also how hardware directories store them; the
    ``sharers`` / ``awaiting`` properties materialize sets for tests and
    debug only.
    """

    __slots__ = ("line_addr", "state", "sharers_mask", "owner", "resident",
                 "filling", "busy", "queue", "awaiting_mask", "push_acks",
                 "pending_grant")

    def __init__(self, line_addr: int) -> None:
        self.line_addr = line_addr
        self.state = DirState.I
        self.sharers_mask = 0
        self.owner: Optional[int] = None
        self.resident = False
        self.filling = False
        self.busy = False
        self.queue: List[CoherenceMsg] = []
        #: tiles whose INV/DOWNGRADE acknowledgment is outstanding
        self.awaiting_mask = 0
        self.push_acks = 0
        #: continuation run when the outstanding acks have all arrived
        self.pending_grant: Optional[Callable[[], None]] = None

    @property
    def sharers(self) -> Set[int]:
        return set(_mask_tiles(self.sharers_mask))

    @property
    def awaiting(self) -> Set[int]:
        return set(_mask_tiles(self.awaiting_mask))


#: LLC array lines are directory-shared by construction
_DIR_S = STATE_CODE[DirState.S]


class _Lookup:
    """Pooled 'directory lookup done' scheduler event.

    Mirrors the NoC's pooled link events: the slice pipelines one lookup
    per cycle, so these fire on every LLC-bound message; recycling them
    keeps the steady state allocation-free.  The event returns itself to
    the pool *before* processing so the handler's own sends can reuse it
    in the same cycle.
    """

    __slots__ = ("slice", "msg")

    def __init__(self, slc: "LLCSlice") -> None:
        self.slice = slc
        self.msg: Optional[CoherenceMsg] = None

    def __call__(self) -> None:
        slc = self.slice
        msg, self.msg = self.msg, None
        slc._lookup_pool.append(self)
        slc._process(msg)


class LLCSlice:
    """The home-node controller for one tile's LLC slice."""

    def __init__(self, tile: int, params: SystemParams,
                 scheduler: Scheduler,
                 send: Callable[[CoherenceMsg], None],
                 home_of: Callable[[int], int],
                 mem_ctrl_of: Callable[[int], int],
                 version_map: Dict[int, int],
                 stats: Optional[StatGroup] = None) -> None:
        self.tile = tile
        self.params = params
        self.push = params.push
        self.scheduler = scheduler
        self._send_msg = send
        self._home_of = home_of
        self._mem_ctrl_of = mem_ctrl_of
        #: system-wide line version registry (the "memory value")
        self.versions = version_map
        self.array = CacheArray(params.llc_slice)
        self._dir: Dict[int, DirEntry] = {}
        self.stats = stats if stats is not None else StatGroup(f"llc_{tile}")
        self._data_flits = params.noc.data_packet_flits
        # Bound hot-path stat cells (skip the per-event dict probe).
        inject = self.stats.child("inject")
        eject = self.stats.child("eject")
        self._c_inject = {cls: inject.counter(cls.name)
                          for cls in TrafficClass}
        self._c_eject = {cls: eject.counter(cls.name)
                         for cls in TrafficClass}
        self._c_gets_served = self.stats.counter("gets_served")
        self._c_llc_misses = self.stats.counter("llc_misses")
        self._c_coalesced_requests = self.stats.counter(
            "coalesced_requests")
        self._c_pushes_triggered = self.stats.counter("pushes_triggered")
        self._c_writebacks_absorbed = self.stats.counter(
            "writebacks_absorbed")
        self._c_stale_putm_ignored = self.stats.counter(
            "stale_putm_ignored")
        self._c_orphan_acks = self.stats.counter("orphan_acks")
        self._c_writebacks_to_memory = self.stats.counter(
            "writebacks_to_memory")
        self._c_getm_blocked = self.stats.counter("getm_blocked_on_push")
        self._c_gets_shadow_filtered = self.stats.counter(
            "gets_shadow_filtered")
        self._c_llc_evictions = self.stats.counter("llc_evictions")
        self._push_degree_hist = self.stats.histogram("push_degree", 1, 65)
        self._next_free = 0
        self._coalesce = self.push.mode == "coalesce"
        #: push-disabled requesters (the PDRMap, Fig. 9)
        self.pdrmap: Set[int] = set()
        #: coalescing windows: line -> extra requester tiles gathered
        #: during the lookup (the messages themselves are consumed on
        #: arrival; only their sources matter for the merged reply)
        self._coalescing: Dict[int, List[int]] = {}
        self._lookup_pool: List[_Lookup] = []
        #: in-flight push shadows: line -> (expiry cycle, destinations)
        self._push_shadow: Dict[int, tuple] = {}
        #: optional shared-access probe (Fig. 4): appends
        #: (cycle, line, requester) for GETS within the watched range
        self.gets_log: Optional[List[tuple]] = None
        self.watch_range: tuple = (0, 0)

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def deliver(self, msg: CoherenceMsg) -> None:
        """Message ejected from the NoC destined for this slice."""
        flits = self._data_flits if msg.carries_data else 1
        self._c_eject[msg.traffic_class].value += flits
        if self._coalesce and msg.msg_type is MsgType.GETS:
            if msg.line_addr in self._coalescing:
                # A lookup for this line is already in the pipeline: merge.
                self._coalescing[msg.line_addr].append(msg.src)
                self._c_coalesced_requests.value += 1
                return
            self._coalescing[msg.line_addr] = []
        now = self.scheduler.now
        start = max(now, self._next_free)
        self._next_free = start + 1
        latency = self.params.llc_slice.hit_latency
        pool = self._lookup_pool
        event = pool.pop() if pool else _Lookup(self)
        event.msg = msg
        self.scheduler.at(start + latency, event)

    def deliver_batch(self, msgs: List[CoherenceMsg]) -> None:
        """Batched directory-read entry: ``deliver`` over a same-cycle
        ejection burst (the coherence fast path's miss residue).

        Decision-for-decision identical to calling :meth:`deliver` per
        message in list order; the pipeline-slot bookkeeping, pool and
        counter lookups are hoisted out of the loop.
        """
        now = self.scheduler.now
        next_free = self._next_free
        latency = self.params.llc_slice.hit_latency
        pool = self._lookup_pool
        eject = self._c_eject
        data_flits = self._data_flits
        coalesce = self._coalesce
        coalescing = self._coalescing
        scheduler_at = self.scheduler.at
        for msg in msgs:
            flits = data_flits if msg.carries_data else 1
            eject[msg.traffic_class].value += flits
            if coalesce and msg.msg_type is MsgType.GETS:
                if msg.line_addr in coalescing:
                    coalescing[msg.line_addr].append(msg.src)
                    self._c_coalesced_requests.value += 1
                    continue
                coalescing[msg.line_addr] = []
            start = next_free if next_free > now else now
            next_free = start + 1
            event = pool.pop() if pool else _Lookup(self)
            event.msg = msg
            scheduler_at(start + latency, event)
        self._next_free = next_free

    # ------------------------------------------------------------------
    # per-line serialization
    # ------------------------------------------------------------------

    def _process(self, msg: CoherenceMsg) -> None:
        line_addr = msg.line_addr
        if msg.msg_type is MsgType.MEM_DATA:
            self._on_mem_data(line_addr)
            return
        if msg.msg_type in (MsgType.INV_ACK, MsgType.PUSH_ACK,
                            MsgType.UNBLOCK):
            self._on_ack(msg)
            return

        entry = self._dir.get(line_addr)
        if msg.msg_type is MsgType.PUTM and (entry is None
                                             or not entry.resident):
            # Writeback racing with a back-invalidation (or arriving after
            # an LLC eviction): bank the version and forward to memory.
            self.versions[line_addr] = max(
                self.versions.get(line_addr, 0), msg.payload)
            self._send(CoherenceMsg(
                MsgType.MEM_WB, line_addr, self.tile,
                (self._mem_ctrl_of(self.tile),), requester=self.tile))
            self._c_writebacks_to_memory.value += 1
            return
        if entry is None:
            entry = DirEntry(line_addr)
            self._dir[line_addr] = entry
        if not entry.resident:
            entry.queue.append(msg)
            if not entry.filling:
                entry.filling = True
                self._c_llc_misses.value += 1
                self._send(CoherenceMsg(
                    MsgType.MEM_READ, line_addr, self.tile,
                    (self._mem_ctrl_of(self.tile),), requester=self.tile))
            return
        self._process_resident(entry, msg)

    @staticmethod
    def _ack_like(entry: DirEntry, msg: CoherenceMsg) -> bool:
        """A PUTM from a tile we are waiting on acts as its ack."""
        return (msg.msg_type is MsgType.PUTM
                and entry.awaiting_mask >> msg.src & 1 == 1)

    def _dispatch(self, entry: DirEntry, msg: CoherenceMsg) -> None:
        """Handle one resident, non-busy request."""
        if msg.msg_type is MsgType.GETS:
            self._on_gets(entry, msg)
        elif msg.msg_type is MsgType.GETM:
            self._on_getm(entry, msg)
        elif msg.msg_type is MsgType.PUTM:
            self._on_putm(entry, msg)
        else:
            raise ProtocolError(f"LLC slice {self.tile} cannot handle {msg}")

    def _drain(self, entry: DirEntry) -> None:
        entry.busy = False
        entry.awaiting_mask = 0
        entry.pending_grant = None
        while entry.queue and not entry.busy:
            self._dispatch(entry, entry.queue.pop(0))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _on_gets(self, entry: DirEntry, msg: CoherenceMsg) -> None:
        requester = msg.src
        if self._shadow_filtered(entry.line_addr, requester):
            # The response is embedded in a push triggered moments ago
            # that lists this requester — the stationary-filter case the
            # unbounded-ejection model would otherwise miss.
            self._c_gets_shadow_filtered.value += 1
            return
        self._c_gets_served.value += 1
        if (self.gets_log is not None
                and self.watch_range[0] <= entry.line_addr
                < self.watch_range[1]):
            self.gets_log.append(
                (self.scheduler.now, entry.line_addr, requester))
        self._knob_on_request(requester, msg.need_push)
        coalesced = self._take_coalesced(entry.line_addr)
        if coalesced is not None and coalesced:
            # Concurrent readers merged in the lookup window force the
            # line shared regardless of its current state.
            if entry.state is DirState.EM and entry.owner != requester:
                owner = entry.owner
                entry.busy = True
                entry.awaiting_mask = 1 << owner
                self._send(CoherenceMsg(
                    MsgType.DOWNGRADE, entry.line_addr, self.tile,
                    (owner,), requester=requester))
                entry.pending_grant = lambda: self._finish_coalesced(
                    entry, requester, coalesced, extra_sharer=owner)
                return
            entry.owner = None
            self._finish_coalesced(entry, requester, coalesced)
            return

        if entry.state is DirState.I:
            self._grant_exclusive(entry, requester)
            return
        if entry.state is DirState.EM:
            if entry.owner == requester:
                self._grant_exclusive(entry, requester)
            else:
                self._downgrade_then_share(entry, requester)
            return
        # Shared (or P, which still serves reads with unicasts).
        new_sharer = not entry.sharers_mask >> requester & 1
        entry.sharers_mask |= 1 << requester
        prefetch_ok = self.push.push_on_prefetch or not msg.is_prefetch
        if (self.push.pushes and entry.state is DirState.S
                and not new_sharer and prefetch_ok):
            self._trigger_push(entry, requester)
            return
        self._reply_data_s(entry, (requester,))

    def _finish_coalesced(self, entry: DirEntry, first_src: int,
                          extra_srcs: List[int],
                          extra_sharer: Optional[int] = None) -> None:
        entry.state = DirState.S
        if extra_sharer is not None:
            entry.sharers_mask |= 1 << extra_sharer
        self._reply_coalesced(entry, first_src, extra_srcs)

    def _grant_exclusive(self, entry: DirEntry, requester: int) -> None:
        version = self._bump_version(entry.line_addr)
        entry.state = DirState.EM
        entry.owner = requester
        entry.sharers_mask = 0
        # Block the line until the requester's UNBLOCK receipt ack.
        entry.busy = True
        entry.awaiting_mask = 1 << requester
        self._send(CoherenceMsg(
            MsgType.DATA_E, entry.line_addr, self.tile, (requester,),
            requester=requester, payload=version,
            reset_push_counters=self._reset_flag(requester)))

    def _downgrade_then_share(self, entry: DirEntry,
                              requester: int) -> None:
        owner = entry.owner
        entry.busy = True
        entry.awaiting_mask = 1 << owner
        self._send(CoherenceMsg(
            MsgType.DOWNGRADE, entry.line_addr, self.tile, (owner,),
            requester=requester))

        def grant() -> None:
            entry.state = DirState.S
            entry.sharers_mask = (1 << owner) | (1 << requester)
            entry.owner = None
            self._reply_data_s(entry, (requester,))

        entry.pending_grant = grant

    def _reply_data_s(self, entry: DirEntry, dests) -> None:
        version = self.versions.get(entry.line_addr, 0)
        for dest in dests:
            self._send(CoherenceMsg(
                MsgType.DATA_S, entry.line_addr, self.tile, (dest,),
                requester=dest, payload=version,
                reset_push_counters=self._reset_flag(dest)))

    # -- coalescing baseline ------------------------------------------------

    def _take_coalesced(self, line_addr: int) -> Optional[List[int]]:
        if self.push.mode != "coalesce":
            return None
        return self._coalescing.pop(line_addr, None)

    def _reply_coalesced(self, entry: DirEntry, first_src: int,
                         extra_srcs: List[int]) -> None:
        """One multicast DATA_S answers every request gathered in the
        lookup window — the Coalesce baseline (Kim et al. [38])."""
        req_mask = 1 << first_src
        for src in extra_srcs:
            req_mask |= 1 << src
        entry.sharers_mask |= req_mask
        requesters = _mask_tiles(req_mask)
        version = self.versions.get(entry.line_addr, 0)
        self._send(CoherenceMsg(
            MsgType.DATA_S, entry.line_addr, self.tile,
            tuple(requesters), requester=first_src,
            payload=version))
        if len(requesters) > 1:
            self.stats.inc("coalesced_multicasts")
            self.stats.histogram("coalesce_degree", 1, 65).record(
                len(requesters))

    # ------------------------------------------------------------------
    # the push trigger (paper §III-B)
    # ------------------------------------------------------------------

    def _trigger_push(self, entry: DirEntry, requester: int) -> None:
        dests_mask = entry.sharers_mask
        if self.push.dynamic_knob:
            for tile in self.pdrmap:
                dests_mask &= ~(1 << tile)
        dests_mask |= 1 << requester
        dests = _mask_tiles(dests_mask)
        version = self.versions.get(entry.line_addr, 0)
        mode = self.push.mode
        self._c_pushes_triggered.value += 1
        self._push_degree_hist.record(len(dests))
        if self.push.network_filter and self.push.shadow_cycles > 0:
            self._push_shadow[entry.line_addr] = (
                self.scheduler.now + self.push.shadow_cycles,
                frozenset(dests))

        if mode == "msp":
            # MSP: a unicast response plus one unicast push per sharer —
            # no multicast packets, no filtering.
            self._reply_data_s(entry, (requester,))
            others = [dest for dest in dests if dest != requester]
            for dest in others:
                self._send(CoherenceMsg(
                    MsgType.PUSH, entry.line_addr, self.tile, (dest,),
                    requester=requester, payload=version,
                    ack_required=True))
            if others:
                entry.state = DirState.P
                entry.push_acks = len(others)
            return

        ack_required = mode == "pushack"
        if self.push.multicast:
            self._send(CoherenceMsg(
                MsgType.PUSH, entry.line_addr, self.tile, tuple(dests),
                requester=requester, payload=version,
                ack_required=ack_required,
                reset_push_counters=self._reset_flag(requester)))
        else:
            for dest in dests:
                self._send(CoherenceMsg(
                    MsgType.PUSH, entry.line_addr, self.tile, (dest,),
                    requester=requester, payload=version,
                    ack_required=ack_required))
        if ack_required:
            entry.state = DirState.P
            entry.push_acks = len(dests)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _on_getm(self, entry: DirEntry, msg: CoherenceMsg) -> None:
        requester = msg.src
        if entry.state is DirState.P:
            # Semi-blocking: writes wait for the push acknowledgments.
            entry.queue.append(msg)
            self._c_getm_blocked.value += 1
            return
        if entry.state is DirState.I or (entry.state is DirState.EM
                                         and entry.owner == requester):
            self._grant_modified(entry, requester)
            return
        version = self._bump_version(entry.line_addr)
        if entry.state is DirState.EM:
            targets_mask = 1 << entry.owner
        else:
            targets_mask = entry.sharers_mask & ~(1 << requester)
        if not targets_mask:
            self._grant_modified(entry, requester, version)
            return
        entry.busy = True
        entry.awaiting_mask = targets_mask
        for target in _mask_tiles(targets_mask):
            self._send(CoherenceMsg(
                MsgType.INV, entry.line_addr, self.tile, (target,),
                requester=requester, payload=version))

        def grant() -> None:
            self._grant_modified(entry, requester, version)

        entry.pending_grant = grant

    def _grant_modified(self, entry: DirEntry, requester: int,
                        version: Optional[int] = None) -> None:
        if version is None:
            version = self._bump_version(entry.line_addr)
        entry.state = DirState.EM
        entry.owner = requester
        entry.sharers_mask = 0
        entry.busy = True
        entry.awaiting_mask = 1 << requester
        entry.pending_grant = None
        self._send(CoherenceMsg(
            MsgType.DATA_E, entry.line_addr, self.tile, (requester,),
            requester=requester, payload=version,
            reset_push_counters=self._reset_flag(requester)))

    def _on_putm(self, entry: DirEntry, msg: CoherenceMsg) -> None:
        if entry.owner == msg.src:
            self.versions[msg.line_addr] = max(
                self.versions.get(msg.line_addr, 0), msg.payload)
            entry.owner = None
            entry.state = DirState.I
            self._c_writebacks_absorbed.value += 1
        else:
            self._c_stale_putm_ignored.value += 1

    # ------------------------------------------------------------------
    # acknowledgments
    # ------------------------------------------------------------------

    def _on_ack(self, msg: CoherenceMsg) -> None:
        entry = self._dir.get(msg.line_addr)
        if entry is None:
            self._c_orphan_acks.value += 1
            return
        if msg.msg_type is MsgType.PUSH_ACK:
            if entry.state is DirState.P:
                entry.push_acks -= 1
                if entry.push_acks <= 0:
                    entry.state = DirState.S
                    self._drain(entry)
            return
        self._collect_ack(entry, msg)

    def _collect_ack(self, entry: DirEntry, msg: CoherenceMsg) -> None:
        bit = 1 << msg.src
        if not entry.awaiting_mask & bit:
            self._c_orphan_acks.value += 1
            return
        entry.awaiting_mask &= ~bit
        if msg.msg_type is MsgType.PUTM:
            self.versions[msg.line_addr] = max(
                self.versions.get(msg.line_addr, 0), msg.payload)
        entry.sharers_mask &= ~bit
        if not entry.awaiting_mask:
            grant = entry.pending_grant
            entry.pending_grant = None
            if grant is not None:
                grant()
            if not entry.awaiting_mask:
                # The grant may itself have re-blocked the line (an
                # exclusive grant awaits its UNBLOCK receipt ack).
                self._drain(entry)

    # ------------------------------------------------------------------
    # fills and capacity
    # ------------------------------------------------------------------

    def _on_mem_data(self, line_addr: int) -> None:
        entry = self._dir.get(line_addr)
        if entry is None or not entry.filling:
            raise ProtocolError(
                f"unexpected memory fill for 0x{line_addr:x}")
        entry.filling = False
        entry.resident = True
        self._install_array_line(line_addr)
        queued, entry.queue = entry.queue, []
        for msg in queued:
            self._process_resident(entry, msg)

    def _process_resident(self, entry: DirEntry,
                          msg: CoherenceMsg) -> None:
        if entry.busy:
            if self._ack_like(entry, msg):
                # A PUTM from a tile we are waiting on IS its recall /
                # downgrade acknowledgment (it carries the dirty data).
                self._collect_ack(entry, msg)
            else:
                entry.queue.append(msg)
        else:
            self._dispatch(entry, msg)

    def _install_array_line(self, line_addr: int) -> None:
        if line_addr in self.array._slot_of:
            return

        def evictable(line: CacheLine) -> bool:
            victim = self._dir.get(line.line_addr)
            return (victim is None
                    or (not victim.busy and not victim.filling
                        and not victim.sharers_mask
                        and victim.owner is None))

        try:
            victim = self.array.evict_victim(line_addr, evictable)
        except LookupError:
            victim = self._back_invalidate(line_addr)
            if victim is None:
                # Every line in the set is pinned by an in-flight
                # transaction: track the line in the directory only
                # (counted as capacity overcommit) rather than deadlock.
                return
        if victim is not None:
            self._dir.pop(victim.line_addr, None)
            self._c_llc_evictions.value += 1
        self.array.install_flat(line_addr, _DIR_S)

    def _back_invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Evict a line still cached above: fire-and-forget INVs.

        The directory entry is removed immediately; the in-flight acks
        are absorbed by the orphan-ack path and any racing PUTM (no
        entry) is forwarded to memory, so the line's latest version is
        never lost.
        """
        def evictable(line: CacheLine) -> bool:
            victim = self._dir.get(line.line_addr)
            return (victim is None
                    or (not victim.busy and not victim.filling
                        and victim.state is not DirState.P))

        try:
            victim = self.array.evict_victim(line_addr, evictable)
        except LookupError:
            self.stats.inc("llc_capacity_overcommit")
            return None
        if victim is None:
            return None
        entry = self._dir.get(victim.line_addr)
        if entry is not None:
            version = self._bump_version(victim.line_addr)
            targets_mask = entry.sharers_mask
            if entry.owner is not None:
                targets_mask |= 1 << entry.owner
            for target in _mask_tiles(targets_mask):
                self._send(CoherenceMsg(
                    MsgType.INV, victim.line_addr, self.tile, (target,),
                    requester=self.tile, payload=version))
            self.stats.inc("llc_back_invalidations")
        return victim

    def _shadow_filtered(self, line_addr: int, requester: int) -> bool:
        shadow = self._push_shadow.get(line_addr)
        if shadow is None:
            return False
        expiry, dests = shadow
        if self.scheduler.now > expiry:
            del self._push_shadow[line_addr]
            return False
        return requester in dests

    def note_push_voided(self, line_addr: int, tile: int) -> None:
        """The push toward ``tile`` can no longer satisfy its requests:
        stop shadow-filtering that tile.

        The stationary filter kills a GETS whose answer is embedded in
        a push in flight toward (or installed at) the requester — the
        push install satisfies the requester's MSHR, so the drop is
        safe.  That premise breaks in exactly two ways: the private
        cache dropped the push without feeding an MSHR (capacity,
        stale version, skipped fill), or the line later left the L2
        (eviction, invalidation).  After either event a GETS must be
        served for real or its MSHR hangs forever, so the cache
        reports those moments here.  Keying the trim on the premise
        rather than on push *delivery* keeps the filter's aggregate
        behavior identical across NoC backends — deliveries land on
        engine-specific cycles, while drops and evictions do not.
        """
        shadow = self._push_shadow.get(line_addr)
        if shadow is None:
            return
        expiry, dests = shadow
        if tile in dests:
            if len(dests) == 1:
                del self._push_shadow[line_addr]
            else:
                self._push_shadow[line_addr] = (expiry,
                                                dests - frozenset((tile,)))

    # ------------------------------------------------------------------
    # resume knob (paper Fig. 9)
    # ------------------------------------------------------------------

    def _phase_is_resume(self) -> bool:
        window = self.push.time_window
        return (self.scheduler.now // window) % 2 == 1

    def _knob_on_request(self, requester: int, need_push: bool) -> None:
        if not (self.push.pushes and self.push.dynamic_knob):
            return
        if self._phase_is_resume():
            self.pdrmap.discard(requester)
        elif need_push:
            self.pdrmap.discard(requester)
        else:
            self.pdrmap.add(requester)

    def _reset_flag(self, requester: int) -> bool:
        if not (self.push.pushes and self.push.dynamic_knob):
            return False
        if not self._phase_is_resume():
            return False
        self.pdrmap.discard(requester)
        return True

    # ------------------------------------------------------------------

    def _bump_version(self, line_addr: int) -> int:
        version = self.versions.get(line_addr, 0) + 1
        self.versions[line_addr] = version
        return version

    def _send(self, msg: CoherenceMsg) -> None:
        flits = (self._data_flits if msg.carries_data else 1)
        self._c_inject[msg.traffic_class].value += flits
        self._send_msg(msg)

    def directory_entry(self, line_addr: int) -> Optional[DirEntry]:
        """Inspection helper for tests."""
        return self._dir.get(line_addr)
