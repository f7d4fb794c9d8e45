"""Private cache hierarchy of one tile: L1D timing filter + coherent L2.

The L2 is the coherence point facing the NoC (as in the paper's setup,
where pushes land in the private L2).  The L1D is modelled as an
inclusive write-through subset of the L2 used only for hit timing — a
standard simplification that keeps all coherence state in one place.

Push-specific behaviour implemented here (paper §III-B and §III-D):

* guaranteed acceptance of a push that matches an outstanding read miss
  (it *is* the response — Early-Resp when the GETS was filtered);
* the drop rules: redundancy (line already resident), coherence
  (conflicting in-flight upgrade or stale version), and deadlock
  avoidance (no evictable way in the target set);
* the ``pushed`` / ``accessed`` status bits and the TPC/UPC counters
  behind the feedback pause knob, including the counter overflow shift
  and the LLC-initiated reset.

The module also enforces the data-value invariant at install time: a
line installed with a payload version older than the newest invalidation
seen for that address indicates a protocol bug and raises
:class:`~repro.common.errors.ProtocolError`.

The controller runs on the slot-level SRAM API (see
:mod:`repro.cache.sram`): lookups are a single dict probe, states and
status flags are small-int reads, and the ``access`` fast path inlines
the recency-stamp bump directly (both arrays use the default folded-LRU
policy, which is what makes the inline bump legal).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.common.addr import line_of
from repro.common.errors import ProtocolError
from repro.common.messages import CoherenceMsg, MsgType, TrafficClass
from repro.common.params import SystemParams
from repro.common.scheduler import Scheduler
from repro.common.stats import StatGroup
from repro.cache.coherence import PRIV_E, PRIV_M, PRIV_S
from repro.cache.mshr import MSHRFile
from repro.cache.sram import (CacheArray, F_ACCESSED, F_BLOCKED, F_DIRTY,
                              F_PREFETCHED, F_PUSHED)

#: cycles to wait before retrying when the MSHR file is full
_MSHR_RETRY_CYCLES = 4


class PrivateCache:
    """L1D + private L2 controller for one tile."""

    def __init__(self, tile: int, params: SystemParams,
                 scheduler: Scheduler,
                 send: Callable[[CoherenceMsg], None],
                 home_of: Callable[[int], int],
                 stats: Optional[StatGroup] = None) -> None:
        self.tile = tile
        self.params = params
        self.scheduler = scheduler
        self._send_msg = send
        self._home_of = home_of
        #: set by the system for stationary-filter schemes: tells the
        #: line's home slice that a push toward this tile can no longer
        #: satisfy our requests (see ``LLCSlice.note_push_voided``)
        self.shadow_void: Optional[Callable[[int], None]] = None
        self._data_flits = params.noc.data_packet_flits
        self._l1_hit_cycles = params.core.l1_hit_cycles
        self._l2_hit_latency = params.l2.hit_latency
        self.l1 = CacheArray(params.l1)
        self.l2 = CacheArray(params.l2)
        # Bound slot probes (the dicts are created once and mutated in
        # place, so the bound methods stay valid for the cache lifetime).
        self._l1_slot_get = self.l1._slot_of.get
        self._l2_slot_get = self.l2._slot_of.get
        self.mshrs = MSHRFile(params.l2.mshrs)
        self.stats = stats if stats is not None else StatGroup(f"l2_{tile}")
        # Bound hot-path stat cells (skip the per-event dict probe).
        counter = self.stats.counter
        self._c_demand_accesses = counter("demand_accesses")
        self._c_demand_misses = counter("demand_misses")
        self._c_upgrade_misses = counter("upgrade_misses")
        self._c_l1_hits = counter("l1_hits")
        self._c_l2_hits = counter("l2_hits")
        self._c_push_miss_to_hit = counter("push_miss_to_hit")
        self._c_push_early_resp = counter("push_early_resp")
        self._c_push_redundancy_drop = counter("push_redundancy_drop")
        self._c_push_coherence_drop = counter("push_coherence_drop")
        self._c_push_deadlock_drop = counter("push_deadlock_drop")
        self._c_push_installed = counter("push_installed")
        self._c_push_unused = counter("push_unused")
        self._c_mshr_merges = counter("mshr_merges")
        self._c_mshr_stalls = counter("mshr_stalls")
        self._c_writebacks = counter("writebacks")
        self._c_evictions = counter("evictions")
        self._c_ejected_msgs = counter("ejected_msgs")
        inject = self.stats.child("inject")
        eject = self.stats.child("eject")
        self._c_inject = {cls: inject.counter(cls.name)
                          for cls in TrafficClass}
        self._c_eject = {cls: eject.counter(cls.name)
                         for cls in TrafficClass}
        self._miss_latency_hist = self.stats.histogram(
            "miss_latency", bucket_width=16)
        #: newest invalidation version seen per line (data-value check)
        self._last_inv_version: Dict[int, int] = {}
        #: MSHRs that received an INV while the fill was in flight
        self._inv_pending: set = set()
        #: demand accesses stalled on a full MSHR file, woken on release
        self._mshr_waiters: Deque[Tuple[int, bool, Optional[Callable]]] = (
            deque())
        # -- pause knob state (paper Fig. 8) --
        self.tpc = 0
        self.upc = 0
        self.prefetcher = None  # wired by the system after construction
        # Static ingress dispatch (built once; deliver() is hot).
        self._handlers = {
            MsgType.DATA_S: self._on_data,
            MsgType.DATA_E: self._on_data,
            MsgType.PUSH: self._on_push,
            MsgType.INV: self._on_inv,
            MsgType.DOWNGRADE: self._on_downgrade,
            MsgType.WB_ACK: self._on_wb_ack,
        }

    # ------------------------------------------------------------------
    # core-facing API
    # ------------------------------------------------------------------

    def access(self, byte_addr: int, is_write: bool,
               on_complete: Optional[Callable[[], None]],
               is_prefetch: bool = False, pc: int = 0) -> None:
        """One memory operation from the core (or a prefetcher).

        ``on_complete`` fires when the operation's data is available (or
        permissions granted, for writes).  Prefetches pass None.
        """
        line_addr = line_of(byte_addr)
        if not is_prefetch:
            self._c_demand_accesses.value += 1
            if self.prefetcher is not None:
                self.prefetcher.observe(byte_addr, pc, is_write)

        # Inlined probe + LRU touch (both arrays use the folded policy).
        l1 = self.l1
        l2 = self.l2
        l1_slot = self._l1_slot_get(line_addr, -1)
        if l1_slot >= 0:
            l1._stamp = stamp = l1._stamp + 1
            l1._stamps[l1_slot] = stamp
        l2_slot = self._l2_slot_get(line_addr, -1)
        if l2_slot >= 0:
            l2._stamp = stamp = l2._stamp + 1
            l2._stamps[l2_slot] = stamp
            # writable = E or M (any PrivState but S)
            if not is_write or l2._state[l2_slot] != PRIV_S:
                self._hit(line_addr, l1_slot >= 0, l2_slot, is_write,
                          on_complete, is_prefetch)
                return
        elif l1_slot >= 0:
            raise ProtocolError("L1 holds a line absent from the L2")

        if not is_prefetch:
            if l2_slot < 0:
                self._c_demand_misses.value += 1
            else:
                self._c_upgrade_misses.value += 1
        self._miss(line_addr, is_write, on_complete, is_prefetch, l2_slot)

    def prefetch_access(self, byte_addr: int) -> None:
        """Prefetch entry point: ``access`` minus everything a prefetch
        skips (demand counters, prefetcher training, hit completion).

        A prefetch is a read with no completion callback, so a hit
        reduces to the recency-stamp bumps — semantically identical to
        routing it through :meth:`access` with ``is_prefetch=True``, at
        a fraction of the cost on the ~hit-every-time steady state.
        """
        line_addr = byte_addr // 64
        l1_slot = self._l1_slot_get(line_addr, -1)
        if l1_slot >= 0:
            l1 = self.l1
            l1._stamp = stamp = l1._stamp + 1
            l1._stamps[l1_slot] = stamp
        l2_slot = self._l2_slot_get(line_addr, -1)
        if l2_slot >= 0:
            l2 = self.l2
            l2._stamp = stamp = l2._stamp + 1
            l2._stamps[l2_slot] = stamp
            return
        if l1_slot >= 0:
            raise ProtocolError("L1 holds a line absent from the L2")
        self._miss(line_addr, False, None, True, -1)

    def _hit(self, line_addr: int, l1_hit: bool, l2_slot: int,
             is_write: bool, on_complete: Optional[Callable[[], None]],
             is_prefetch: bool) -> None:
        l2 = self.l2
        latency = self._l1_hit_cycles if l1_hit else self._l2_hit_latency
        if not is_prefetch:
            if l1_hit:
                self._c_l1_hits.value += 1
            else:
                self._c_l2_hits.value += 1
            # First demand touch of a pushed line: the Miss-to-Hit case.
            flags = l2._flags[l2_slot]
            if flags & F_PUSHED and not flags & F_ACCESSED:
                self._c_push_miss_to_hit.value += 1
                self._count_useful_push()
            l2._flags[l2_slot] = flags | F_ACCESSED
            if not l1_hit:
                self._fill_l1(line_addr)
        if is_write:
            l2._state[l2_slot] = PRIV_M
            l2._flags[l2_slot] |= F_DIRTY
        if on_complete is not None:
            scheduler = self.scheduler
            scheduler.at(scheduler.now + latency, on_complete)

    def _miss(self, line_addr: int, is_write: bool,
              on_complete: Optional[Callable[[], None]],
              is_prefetch: bool, resident_slot: int) -> None:
        mshr = self.mshrs.get(line_addr)
        if mshr is not None:
            if is_write and mshr.req_type is MsgType.GETS:
                # Read outstanding but we need ownership: retry the write
                # once the read completes (it will take the upgrade path).
                mshr.add_waiter(lambda: self.access(
                    line_addr * 64, True, on_complete, is_prefetch))
            elif on_complete is not None:
                mshr.add_waiter(on_complete)
            self._c_mshr_merges.value += 1
            return
        if self.mshrs.full:
            self._c_mshr_stalls.value += 1
            if is_prefetch:
                # Prefetches are best-effort: drop on structural hazard.
                self.stats.inc("prefetches_dropped")
                return
            self._mshr_waiters.append((line_addr, is_write, on_complete))
            return

        req_type = MsgType.GETM if is_write else MsgType.GETS
        mshr = self.mshrs.allocate(line_addr, req_type, self.scheduler.now,
                                   is_prefetch)
        if on_complete is not None:
            mshr.add_waiter(on_complete)
        if is_write and resident_slot >= 0:
            # Upgrade: the S copy stays resident and pinned until DATA_E.
            self.l2._flags[resident_slot] |= F_BLOCKED
            mshr.had_line_in_s = True
        self._send(CoherenceMsg(
            req_type, line_addr, self.tile, (self._home_of(line_addr),),
            requester=self.tile, need_push=self._need_push(),
            is_prefetch=is_prefetch))

    # ------------------------------------------------------------------
    # network-facing API
    # ------------------------------------------------------------------

    def deliver(self, msg: CoherenceMsg) -> None:
        """Message ejected from the NoC destined for this private cache."""
        self._c_ejected_msgs.value += 1
        flits = self._data_flits if msg.carries_data else 1
        self._c_eject[msg.traffic_class].value += flits
        handler = self._handlers.get(msg.msg_type)
        if handler is None:
            raise ProtocolError(
                f"private cache {self.tile} cannot handle {msg}")
        handler(msg)

    def _on_wb_ack(self, msg: CoherenceMsg) -> None:
        pass  # writeback acknowledged; nothing left to do

    def note_request_filtered(self, line_addr: int) -> None:
        """The in-network filter pruned our GETS; the push will serve it."""
        mshr = self.mshrs.get(line_addr)
        if mshr is not None:
            mshr.filtered = True
        self.stats.inc("requests_filtered_in_network")

    # -- responses ---------------------------------------------------------

    def _on_data(self, msg: CoherenceMsg) -> None:
        mshr = self.mshrs.get(msg.line_addr)
        if msg.reset_push_counters:
            self._reset_push_counters()
        if mshr is None:
            # A push already served this miss and the LLC's unicast
            # response (sent from state P) arrived afterwards.
            if msg.msg_type is MsgType.DATA_E:
                # Unreachable by construction (E grants are serialized
                # by UNBLOCK), but never leave the directory blocked.
                self._send(CoherenceMsg(
                    MsgType.UNBLOCK, msg.line_addr, self.tile,
                    (msg.src,), requester=self.tile))
            self.stats.inc("stale_responses_dropped")
            return
        if mshr.req_type is MsgType.GETM or msg.msg_type is MsgType.DATA_E:
            self._complete_exclusive(msg, mshr)
        else:
            self._complete_shared(msg, mshr, pushed=False)

    def _complete_exclusive(self, msg: CoherenceMsg, mshr) -> None:
        line_addr = msg.line_addr
        # The directory holds the line blocked until this receipt ack,
        # so a later write's invalidation can never overtake the grant.
        self._send(CoherenceMsg(
            MsgType.UNBLOCK, line_addr, self.tile, (msg.src,),
            requester=self.tile))
        is_write = mshr.req_type is MsgType.GETM
        state_code = PRIV_M if is_write else PRIV_E
        if mshr.had_line_in_s:
            l2 = self.l2
            slot = l2._slot_of.get(line_addr, -1)
            if slot < 0:
                raise ProtocolError("upgrade completed but S copy vanished")
            l2.touch_slot(slot)
            l2._state[slot] = state_code
            l2._payload[slot] = msg.payload
            flags = l2._flags[slot] & (0xFF ^ (F_BLOCKED | F_DIRTY))
            l2._flags[slot] = flags | (F_DIRTY if is_write else 0)
        else:
            self._install_l2(line_addr, state_code, msg.payload,
                             (F_DIRTY if is_write else 0)
                             | (F_PREFETCHED if mshr.is_prefetch else 0))
            if not mshr.is_prefetch:
                self._fill_l1(line_addr)
        self._finish_mshr(msg.line_addr)

    def _complete_shared(self, msg: CoherenceMsg, mshr,
                         pushed: bool) -> None:
        line_addr = msg.line_addr
        if line_addr in self._inv_pending:
            # Read ordered before the racing write: serve the waiters the
            # old (still legal) value but do not install the dead line.
            self._inv_pending.discard(line_addr)
            self.stats.inc("inv_raced_fills")
            if self.shadow_void is not None:
                self.shadow_void(line_addr)
        else:
            self._install_l2(line_addr, PRIV_S, msg.payload,
                             (F_PUSHED if pushed else 0)
                             | (F_PREFETCHED if mshr.is_prefetch else 0))
            if not mshr.is_prefetch:
                self._fill_l1(line_addr)
        self._finish_mshr(line_addr)

    def _finish_mshr(self, line_addr: int) -> None:
        mshr = self.mshrs.release(line_addr)
        latency = self.scheduler.now - mshr.issued_at
        self._miss_latency_hist.record(latency)
        mshr.complete()
        if self._mshr_waiters and not self.mshrs.full:
            stalled_line, is_write, on_complete = (
                self._mshr_waiters.popleft())
            self.access(stalled_line * 64, is_write, on_complete)

    # -- pushes --------------------------------------------------------------

    def _on_push(self, msg: CoherenceMsg) -> None:
        """Speculative pushed data (paper §III-B drop rules + Fig. 12)."""
        self._count_received_push()
        if msg.ack_required:
            self._send(CoherenceMsg(
                MsgType.PUSH_ACK, msg.line_addr, self.tile, (msg.src,),
                requester=self.tile))
        line_addr = msg.line_addr
        mshr = self.mshrs.get(line_addr)
        if mshr is not None:
            if mshr.req_type is MsgType.GETM:
                self._c_push_coherence_drop.value += 1
                return
            self._c_push_early_resp.value += 1
            self._count_useful_push()
            self._complete_shared(msg, mshr, pushed=True)
            return
        if line_addr in self.l2._slot_of:
            self._c_push_redundancy_drop.value += 1
            return
        if msg.payload < self._last_inv_version.get(line_addr, 0):
            # A stale push that lost a race with an invalidation must not
            # install (data-value invariant); with PushAck/OrdPush
            # serialization this path is unreachable.
            self._c_push_coherence_drop.value += 1
            if self.shadow_void is not None:
                self.shadow_void(line_addr)
            return
        if not self._make_room(line_addr):
            # Dropped without installing: release the home shadow, or a
            # later GETS for this line would be killed with nothing in
            # flight to satisfy it (the MSHR would hang forever).
            self._c_push_deadlock_drop.value += 1
            if self.shadow_void is not None:
                self.shadow_void(line_addr)
            return
        self.l2.install_flat(line_addr, PRIV_S, msg.payload, F_PUSHED)
        self._c_push_installed.value += 1

    # -- invalidations / downgrades -----------------------------------------

    def _on_inv(self, msg: CoherenceMsg) -> None:
        line_addr = msg.line_addr
        self._last_inv_version[line_addr] = max(
            self._last_inv_version.get(line_addr, 0), msg.payload)
        mshr = self.mshrs.get(line_addr)
        if mshr is not None and mshr.req_type is MsgType.GETS:
            self._inv_pending.add(line_addr)
        l2 = self.l2
        slot = l2._slot_of.get(line_addr, -1)
        if slot >= 0:
            flags = l2._flags[slot]
            payload = l2._payload[slot]
            l2.clear_slot(slot)
            l1_slot = self.l1._slot_of.get(line_addr, -1)
            if l1_slot >= 0:
                self.l1.clear_slot(l1_slot)
            self._note_dropped(line_addr, flags)
            if mshr is not None and mshr.had_line_in_s:
                # Upgrade race: our S copy dies but the GETM stays queued
                # at the directory and will be granted with fresh data.
                mshr.had_line_in_s = False
            elif flags & F_DIRTY:
                self._send(CoherenceMsg(
                    MsgType.PUTM, line_addr, self.tile, (msg.src,),
                    requester=self.tile, payload=payload))
                return
        self._send(CoherenceMsg(
            MsgType.INV_ACK, line_addr, self.tile, (msg.src,),
            requester=self.tile))

    def _on_downgrade(self, msg: CoherenceMsg) -> None:
        line_addr = msg.line_addr
        l2 = self.l2
        slot = l2._slot_of.get(line_addr, -1)
        if slot < 0 or l2._state[slot] == PRIV_S:
            # Silently evicted (or already shared): clean acknowledgment.
            self._send(CoherenceMsg(
                MsgType.INV_ACK, line_addr, self.tile, (msg.src,),
                requester=self.tile))
            return
        flags = l2._flags[slot]
        l2._state[slot] = PRIV_S
        l2._flags[slot] = flags & (0xFF ^ F_DIRTY)
        if flags & F_DIRTY:
            self._send(CoherenceMsg(
                MsgType.PUTM, line_addr, self.tile, (msg.src,),
                requester=self.tile, payload=l2._payload[slot]))
        else:
            self._send(CoherenceMsg(
                MsgType.INV_ACK, line_addr, self.tile, (msg.src,),
                requester=self.tile))

    # ------------------------------------------------------------------
    # array management
    # ------------------------------------------------------------------

    def _install_l2(self, line_addr: int, state_code: int, payload: int,
                    flags: int) -> None:
        if payload < self._last_inv_version.get(line_addr, 0):
            raise ProtocolError(
                f"data-value invariant violated at tile {self.tile}: "
                f"line 0x{line_addr:x} installs version {payload} after "
                f"invalidation {self._last_inv_version[line_addr]}")
        if not self._make_room(line_addr):
            # Every way pinned by in-flight upgrades: skip the install
            # (the LLC retains the line) rather than risk a deadlock.
            self.stats.inc("fills_skipped_set_blocked")
            if self.shadow_void is not None:
                self.shadow_void(line_addr)
            return
        self.l2.install_flat(line_addr, state_code, payload, flags)

    def _make_room(self, line_addr: int) -> bool:
        """Free a way in the line's L2 set; False if impossible."""
        try:
            victim = self.l2.evict_flat(line_addr, skip_blocked=True)
        except LookupError:
            return False
        if victim is not None:
            addr, _state, payload, flags = victim
            l1_slot = self.l1._slot_of.get(addr, -1)
            if l1_slot >= 0:
                self.l1.clear_slot(l1_slot)
            self._note_dropped(addr, flags)
            self._c_evictions.value += 1
            if flags & F_DIRTY:
                self._c_writebacks.value += 1
                self._send(CoherenceMsg(
                    MsgType.PUTM, addr, self.tile,
                    (self._home_of(addr),),
                    requester=self.tile, payload=payload))
        return True

    def _note_dropped(self, line_addr: int, flags: int) -> None:
        """A line left the L2: push bookkeeping plus shadow release.

        Once the line is gone, a still-open push shadow at the home
        slice must not keep killing this tile's re-requests — nothing
        is coming to satisfy them anymore.
        """
        if flags & F_PUSHED and not flags & F_ACCESSED:
            self._c_push_unused.value += 1
        if self.shadow_void is not None:
            self.shadow_void(line_addr)

    def _fill_l1(self, line_addr: int) -> None:
        l1 = self.l1
        if line_addr in l1._slot_of:
            return
        l1.evict_silent(line_addr)  # L1 is write-through
        l1.install_flat(line_addr, PRIV_S)

    # ------------------------------------------------------------------
    # pause knob (paper §III-D)
    # ------------------------------------------------------------------

    def _need_push(self) -> bool:
        """The need_push bit sent with each GETS (paper Fig. 8)."""
        push = self.params.push
        if not (push.pushes and push.dynamic_knob):
            return True
        if self.tpc < push.tpc_threshold:
            return True
        return (self.tpc >> push.useful_ratio_log2) <= self.upc

    def _count_received_push(self) -> None:
        limit = (1 << self.params.push.counter_bits) - 1
        if self.tpc >= limit:
            self.tpc >>= 1
            self.upc >>= 1
        self.tpc += 1

    def _count_useful_push(self) -> None:
        self.upc += 1

    def _reset_push_counters(self) -> None:
        self.tpc = 0
        self.upc = 0
        self.stats.inc("push_counter_resets")

    # ------------------------------------------------------------------

    def _send(self, msg: CoherenceMsg) -> None:
        flits = self._data_flits if msg.carries_data else 1
        self._c_inject[msg.traffic_class].value += flits
        self._send_msg(msg)

    def read_value(self, byte_addr: int) -> Optional[int]:
        """The payload version currently readable here (tests/debug)."""
        line = self.l2.lookup(line_of(byte_addr), touch=False)
        return None if line is None else line.payload
