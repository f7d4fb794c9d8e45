"""Batched coherence fast path: bulk core stepping in one in-order walk.

The event loop's steady state in cache-resident phases is a stream of
scheduler buckets holding nothing but core activity — trace-buffer step
wakeups and hit-completion callbacks.  Every such event resolves to a
clean private-cache hit through a five-frame Python call chain
(``_step_buffered`` → ``access`` → ``_hit`` → ``_fill_l1`` →
``_on_complete``) whose *decisions* are fully determined by flat state:
the trace columns, the SRAM tag/state arrays, and a handful of core
integers.  :class:`BatchedStepper` executes those buckets wholesale: a
single in-order walk probes each stepping core's next row with the
same ``_slot_of`` dict lookups the scalar path uses, retires the clean
demand hits inline, and routes everything else (misses, upgrades,
barrier rows, MSHR conflicts, repeat wakeups) down the unmodified
scalar path.

This is a fast path, not an approximation.  Two rules keep it
bit-identical to the scalar engine:

* **All-or-nothing buckets.**  A bucket containing any foreign event
  (a NoC arrival, an LLC lookup, a fill) is drained by the scalar
  ``run_due`` untouched — cross-event interleaving is protocol-visible
  there, and the fast path never reorders it.
* **Exact in-order replay.**  Within an owned bucket, events execute
  in scheduling order and every side effect (stamp sequences, counter
  bumps, completion/wakeup inserts) is issued in the scalar path's
  order, so the scheduler's ``(cycle, seq)`` stream is unchanged.

``REPRO_NO_FASTPATH=1`` (or :func:`set_fastpath`) disables the whole
layer as a bisection escape hatch, and systems with hardware
prefetchers enabled never build it, because every demand access trains
the prefetcher and would be residue anyway.
"""

from __future__ import annotations

import os
from typing import List

from repro.cache.coherence import PRIV_M, PRIV_S
from repro.cache.sram import F_ACCESSED, F_DIRTY, F_PUSHED
from repro.common.params import LINE_BYTES

#: process-wide enable flag
_fastpath_enabled = os.environ.get("REPRO_NO_FASTPATH", "") in ("", "0")

_LINE_SHIFT = LINE_BYTES.bit_length() - 1
assert (1 << _LINE_SHIFT) == LINE_BYTES, "line size must be a power of two"


def fastpath_enabled() -> bool:
    """Is the batched coherence fast path globally enabled?"""
    return _fastpath_enabled


def set_fastpath(enabled: bool) -> None:
    """Enable/disable the fast path (read at ``System`` construction).

    The A/B bisection switch: with the fast path off, every bucket
    drains through the scalar ``run_due`` — results must be
    bit-identical either way.
    """
    global _fastpath_enabled
    _fastpath_enabled = bool(enabled)


class BatchedStepper:
    """Executes fully core-owned scheduler buckets in bulk.

    Built by :class:`repro.sim.system.System` once every core is
    buffer-backed; :meth:`run_cycle` is the drop-in replacement for
    ``scheduler.run_due(cycle)`` on cycles where the network has no due
    work.
    """

    def __init__(self, system) -> None:
        self.scheduler = system.scheduler
        self._max_out = system.params.core.max_outstanding
        #: reused scratch (one walk at a time; never re-entered)
        self._ev: List = []
        for core in system.cores:
            # Residue-only cores: a prefetcher turns every demand access
            # into a training event, so the inline hit replay cannot
            # apply.
            core._fp_scalar = core.cache.prefetcher is not None
            core._fp_len = len(core._buf.addr)

    # ------------------------------------------------------------------

    def run_cycle(self, cycle: int) -> None:
        """Drain every event due at ``cycle``, batching when possible.

        Exactly equivalent to ``scheduler.run_due(cycle)``; the caller
        guarantees the network has no work due this cycle.
        """
        sch = self.scheduler
        bucket = sch.peek_bucket(cycle)
        if bucket is None:
            sch.run_due(cycle)
            return
        ev = self._ev
        ev.clear()
        if not self._scan(bucket, ev):
            sch.run_due(cycle)
            return
        while True:
            sch.consume_bucket(cycle)
            self._drain(ev, cycle)
            # Same-cycle appends (completion-driven steps, barrier
            # releases) land in a fresh bucket; keep draining them in
            # append order, exactly as run_due's live-list iteration.
            bucket = sch.peek_bucket(cycle)
            if bucket is None:
                return
            ev.clear()
            if not self._scan(bucket, ev):
                sch.run_due(cycle)
                return

    @staticmethod
    def _scan(bucket, ev) -> bool:
        """Collect (kind, core) pairs; False on any foreign event."""
        append = ev.append
        for cb in bucket:
            kind = getattr(cb, "_fp_kind", 0)
            if not kind:
                return False
            append((kind, cb.__self__))
        return True

    def _drain(self, ev, now) -> None:
        """The in-order walk: the bulk twin of one run_due bucket.

        Clean demand hits retire in one flat pass here — the inline
        replay of ``_step_buffered`` → ``access`` → ``_hit`` with the
        five-frame call chain collapsed.  Residency comes from the same
        ``_slot_of`` dict probes the scalar path uses.  Every side effect
        below mirrors the scalar code in both kind and order; anything
        that is not a clean hit is handed to ``_step_buffered``
        untouched.
        """
        sch = self.scheduler
        sch_at = sch.at
        max_out = self._max_out
        for kind, core in ev:
            if kind == 1:
                # -- inline Core._on_complete --
                core._outstanding -= 1
                core._c_completions.value += 1
                if core._at_barrier:
                    raise AssertionError(
                        "completion while parked at a barrier")
                if not core._step_scheduled:
                    core._step_scheduled = True
                    sch_at(now, core._step)
                continue
            # -- a step wakeup --
            if core.finished or core._at_barrier or core._fp_scalar:
                core._step_buffered()
                continue
            i = core._cursor
            if i >= core._fp_len:
                core._step_buffered()  # exhausted: the finish path
                continue
            buf = core._buf
            addr = buf.addr[i]
            if addr < 0:
                core._step_buffered()  # barrier sentinel row
                continue
            core._step_scheduled = False
            if not core._loaded:
                # The compute gap runs from the previous issue.
                core._loaded = True
                core._ready_cycle = core._last_issue + buf.work[i]
            if now < core._ready_cycle:
                core._step_scheduled = True
                sch_at(core._ready_cycle, core._step)
                continue
            if core._outstanding >= max_out:
                core._c_window_stalls.value += 1
                continue
            cache = core.cache
            l2 = cache.l2
            is_write = buf.is_write[i]
            line = addr >> _LINE_SHIFT
            l2_slot = cache._l2_slot_get(line, -1)
            if l2_slot < 0 or (is_write and l2._state[l2_slot] == PRIV_S):
                core._step_buffered()  # miss or upgrade residue
                continue
            l1_slot = cache._l1_slot_get(line, -1)
            # ---- issue: the inline twin of the scalar hit chain ----
            core._cursor = i + 1
            core._loaded = False
            core._outstanding += 1
            insts = buf.insts[i]
            core.instructions += insts if insts > 0 else buf.work[i] + 1
            core._c_accesses.value += 1
            core._last_issue = now
            cache._c_demand_accesses.value += 1
            if l1_slot >= 0:
                l1 = cache.l1
                l1._stamp = stamp = l1._stamp + 1
                l1._stamps[l1_slot] = stamp
                cache._c_l1_hits.value += 1
                latency = cache._l1_hit_cycles
            else:
                cache._c_l2_hits.value += 1
                latency = cache._l2_hit_latency
            l2._stamp = stamp = l2._stamp + 1
            l2._stamps[l2_slot] = stamp
            flags = l2._flags[l2_slot]
            if flags & F_PUSHED and not flags & F_ACCESSED:
                cache._c_push_miss_to_hit.value += 1
                cache.upc += 1  # _count_useful_push
            l2._flags[l2_slot] = flags | F_ACCESSED
            if l1_slot < 0:
                cache._fill_l1(line)
            if is_write:
                l2._state[l2_slot] = PRIV_M
                l2._flags[l2_slot] |= F_DIRTY
            sch_at(now + latency, core._on_complete)
            # ---- continue the scalar while-loop on the next row ----
            i += 1
            if i >= core._fp_len:
                continue  # outstanding > 0: the scalar loop returns
            if buf.addr[i] < 0:
                continue  # barrier row drains the window first
            ready = now + buf.work[i]
            core._loaded = True
            core._ready_cycle = ready
            if ready > now:
                core._step_scheduled = True
                sch_at(ready, core._step)
            else:
                # A zero-gap row would issue in the same scalar loop
                # pass; re-enter the scalar twin to continue it.
                core._step_buffered()
