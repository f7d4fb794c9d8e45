"""Discrete event scheduler: a calendar-queue (time-wheel) design.

Routers and network interfaces are event-driven; everything with a fixed
latency (cache lookups, memory access, core wakeups, packet arrivals)
schedules a callback here.  The runner drains events due at the current
cycle before ticking the network, so a component's event handlers always
observe a consistent pre-tick state.

:meth:`Scheduler.at` is the only way to put work on the wheel; the
wheel layout below is private to this module.  (The fast path's
:meth:`~Scheduler.peek_bucket` / :meth:`~Scheduler.consume_bucket`
read and claim whole buckets, but never insert.)

Implementation: a bucketed time wheel for the near future plus a binary
heap for overflow.  Events within ``WHEEL_SPAN`` cycles of ``now`` go
into ``wheel[cycle % WHEEL_SPAN]`` — a plain list append, no tuple
allocation, no heap reshuffle — and each occupied bucket is tagged with
the cycle that owns it.  Far-future events (and the rare insert whose
bucket is owned by a different cycle) fall back to the overflow heap.
A small min-heap of occupied-bucket cycles finds the next due cycle in
O(1) amortized.

The ordering contract is identical to the classic heap scheduler and is
what the simulator's determinism rests on:

* events run in (cycle, scheduling order) order;
* same-cycle events run FIFO in the order they were scheduled;
* events scheduled *by* a callback for the same cycle run in the same
  ``run_due`` call, after every already-queued same-cycle event.

Overflow entries for a cycle always precede wheel entries for that
cycle in scheduling order (an insert only overflows when the cycle is
out of window or its bucket is owned by an earlier cycle — both can
only happen before any in-window insert for that cycle), so draining
the overflow head before the bucket preserves FIFO.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.common.errors import SimulationError

#: sentinel cycle meaning "no wakeup scheduled" for self-waking
#: components (routers, network interfaces).  Any real cycle compares
#: smaller, so ``min(next_tick, ...)`` works without None checks.
NEVER = 1 << 62

#: wheel size in cycles; must be a power of two.  Sized to cover every
#: fixed latency in the system (memory round trips are a few hundred
#: cycles) so the overflow heap only sees pathological events.
WHEEL_SPAN = 4096
_MASK = WHEEL_SPAN - 1
#: bucket tag meaning "no cycle owns this bucket"
_FREE = -1


class Scheduler:
    """A calendar-queue scheduler with an exact (cycle, seq) contract."""

    __slots__ = ("now", "_buckets", "_bucket_cycle", "_occupied",
                 "_overflow", "_seq", "_pending")

    def __init__(self) -> None:
        self.now = 0
        self._buckets: List[List[Callable[[], None]]] = [
            [] for _ in range(WHEEL_SPAN)]
        self._bucket_cycle: List[int] = [_FREE] * WHEEL_SPAN
        #: min-heap of cycles that own a non-empty bucket (lazily pruned)
        self._occupied: List[int] = []
        #: min-heap of (cycle, seq, callback) for far-future events
        self._overflow: List[Tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._pending = 0

    def at(self, cycle: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the simulation reaches ``cycle``."""
        now = self.now
        if cycle < now:
            raise SimulationError(
                f"scheduling into the past: {cycle} < now {now}")
        self._pending += 1
        if cycle - now < WHEEL_SPAN:
            index = cycle & _MASK
            tag = self._bucket_cycle[index]
            if tag == cycle:
                self._buckets[index].append(callback)
                return
            if tag == _FREE:
                self._bucket_cycle[index] = cycle
                self._buckets[index].append(callback)
                heappush(self._occupied, cycle)
                return
        heappush(self._overflow, (cycle, next(self._seq), callback))

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.at(self.now + delay, callback)

    def next_event_cycle(self) -> Optional[int]:
        """Cycle of the earliest pending event, or None when idle."""
        occupied = self._occupied
        bucket_cycle = self._bucket_cycle
        best: Optional[int] = None
        while occupied:
            head = occupied[0]
            if bucket_cycle[head & _MASK] != head:
                heappop(occupied)  # stale: bucket already drained
                continue
            best = head
            break
        overflow = self._overflow
        if overflow and (best is None or overflow[0][0] < best):
            best = overflow[0][0]
        return best

    def run_due(self, cycle: int) -> None:
        """Advance to ``cycle`` and run every event due at or before it.

        Events scheduled by callbacks for the same cycle run in the same
        call, in scheduling order.
        """
        if cycle < self.now:
            raise SimulationError("scheduler time must not go backwards")
        self.now = cycle
        if not self._pending:
            return
        occupied = self._occupied
        overflow = self._overflow
        buckets = self._buckets
        bucket_cycle = self._bucket_cycle
        while True:
            # Next due cycle: min over occupied buckets and overflow.
            due = None
            while occupied:
                head = occupied[0]
                if bucket_cycle[head & _MASK] != head:
                    heappop(occupied)
                    continue
                due = head
                break
            if overflow and (due is None or overflow[0][0] < due):
                due = overflow[0][0]
            if due is None or due > cycle:
                return
            # Overflow entries for this cycle precede its wheel bucket.
            while overflow and overflow[0][0] == due:
                _, _, callback = heappop(overflow)
                self._pending -= 1
                callback()
            index = due & _MASK
            if bucket_cycle[index] == due:
                bucket = buckets[index]
                ran = 0
                # A plain list iterator picks up same-cycle events that
                # callbacks append mid-drain (CPython re-reads the list
                # length on every step), so this is the cheap way to
                # drain a bucket that may grow while draining.
                for callback in bucket:
                    ran += 1
                    callback()
                self._pending -= ran
                bucket.clear()
                bucket_cycle[index] = _FREE

    def peek_bucket(self, cycle: int) -> Optional[List[Callable[[], None]]]:
        """The wheel bucket owned by ``cycle``, or None.

        Returns None when ``cycle`` owns no in-window bucket *or* when
        any overflow event is due at or before ``cycle`` — overflow
        entries precede wheel entries in scheduling order, so a caller
        that would bypass them must fall back to :meth:`run_due`.  The
        bucket is returned live and unmodified; callers must not mutate
        it (use :meth:`consume_bucket` to claim it).
        """
        overflow = self._overflow
        if overflow and overflow[0][0] <= cycle:
            return None
        index = cycle & _MASK
        if self._bucket_cycle[index] != cycle:
            return None
        return self._buckets[index]

    def consume_bucket(self, cycle: int) -> List[Callable[[], None]]:
        """Claim ``cycle``'s bucket: advance ``now``, detach and return it.

        The batched stepper's half of :meth:`run_due`: the caller takes
        responsibility for executing every returned callback, in list
        order.  Events the callbacks schedule for the same cycle land in
        a fresh bucket at the same index (the tag is freed here), which
        preserves run_due's FIFO contract — drained after the detached
        list, in scheduling order.  Only valid right after
        :meth:`peek_bucket` returned this bucket.
        """
        if cycle < self.now:
            raise SimulationError("scheduler time must not go backwards")
        self.now = cycle
        index = cycle & _MASK
        bucket = self._buckets[index]
        self._buckets[index] = []
        self._bucket_cycle[index] = _FREE
        self._pending -= len(bucket)
        return bucket

    @property
    def pending(self) -> int:
        return self._pending
