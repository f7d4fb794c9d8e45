"""Bounded-outstanding-miss core model.

The paper simulates a detailed out-of-order core (8-wide, 336-entry
ROB).  What matters for the NoC/LLC bandwidth results is the *memory-
level parallelism* such a core exposes, so the model here issues trace
records in order but lets up to ``max_outstanding`` memory operations be
in flight at once — the core only stalls when that window fills or when
a compute gap (``work`` cycles) has not yet elapsed.

Barriers implement the OpenMP join at the end of parallel loops: a core
drains its outstanding operations, arrives, and resumes when every core
has arrived.

A core accepts either a live record iterable or a precompiled
:class:`~repro.cpu.tracebuf.TraceBuffer`, and compiles the former into
the latter up front, so every core steps from an integer cursor over
the flat columns without touching a record object per access.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Union

from repro.common.scheduler import Scheduler
from repro.common.stats import StatGroup
from repro.cpu.tracebuf import TraceBuffer
from repro.cpu.traces import TraceRecord


class Barrier:
    """An all-core rendezvous; re-usable across phases.

    ``hold_at`` arms a checkpoint hold: the ``hold_at``-th crossing
    (1-based) parks its waiters in :attr:`held` instead of releasing
    them, which lets the system drain to quiescence with every core
    stopped at a deterministic trace position.  :meth:`release_held`
    resumes them in their original arrival order.
    """

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._waiting: List["Core"] = []
        #: completed crossings (releases + the held one, if any)
        self.crossings = 0
        #: hold the Nth crossing instead of releasing it (0 = never)
        self.hold_at = 0
        #: cores parked by the held crossing, in arrival order
        self.held: Optional[List["Core"]] = None

    def arrive(self, core: "Core") -> None:
        self._waiting.append(core)
        if len(self._waiting) == self.num_cores:
            waiting, self._waiting = self._waiting, []
            self.crossings += 1
            if self.crossings == self.hold_at:
                self.held = waiting
                return
            for waiter in waiting:
                waiter.resume_from_barrier()

    def release_held(self) -> None:
        """Resume the cores parked by a held crossing (arrival order)."""
        held, self.held = self.held, None
        for waiter in held or ():
            waiter.resume_from_barrier()


class Core:
    """One processor core driving a private cache from a trace."""

    def __init__(self, tile: int, params, scheduler: Scheduler,
                 cache, trace: Union[TraceBuffer, Iterable[TraceRecord]],
                 barrier: Optional[Barrier] = None,
                 on_finished: Optional[Callable[["Core"], None]] = None,
                 stats: Optional[StatGroup] = None) -> None:
        self.tile = tile
        self.params = params
        self.scheduler = scheduler
        self.cache = cache
        self.barrier = barrier
        self.on_finished = on_finished
        self.stats = stats if stats is not None else StatGroup(f"core{tile}")
        if not isinstance(trace, TraceBuffer):
            trace = TraceBuffer.compile(trace)
        self._buf = trace
        self._cursor = 0
        self._loaded = False
        # The scheduler, the fast path and checkpoint restore call
        # ``_step``.  Binding it per instance means a wrapper installed
        # on ``Core._step_buffered`` before the core is built (the
        # benchmark's spans) is what runs.
        self._step = self._step_buffered
        self._outstanding = 0
        self._ready_cycle = 0
        self._last_issue = 0
        self._at_barrier = False
        self._step_scheduled = False
        self.finished = False
        self.finish_cycle: Optional[int] = None
        self.instructions = 0
        # Bound hot-path stat cells (skip the per-event dict probe).
        self._c_accesses = self.stats.counter("accesses")
        self._c_completions = self.stats.counter("completions")
        self._c_window_stalls = self.stats.counter("window_stalls")

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin executing the trace (call once after system wiring)."""
        self._schedule_step(0)

    def _schedule_step(self, delay: int) -> None:
        if self._step_scheduled:
            return
        self._step_scheduled = True
        self.scheduler.after(delay, self._step)

    def _step_buffered(self) -> None:
        """Issue trace rows until the core must wait.

        The compute gap is latched when a row is first considered
        (``_loaded``) and runs from the previous issue; a barrier row
        waits for the window to drain; a full window waits for a
        completion to re-step the core.
        """
        self._step_scheduled = False
        if self.finished or self._at_barrier:
            return
        buf = self._buf
        addr_col = buf.addr
        work_col = buf.work
        n = len(addr_col)
        max_outstanding = self.params.max_outstanding
        scheduler = self.scheduler
        while True:
            i = self._cursor
            if i >= n:
                if self._outstanding == 0:
                    self._finish()
                return
            addr = addr_col[i]
            if addr < 0:  # barrier sentinel row
                if self._outstanding > 0:
                    return  # drain first; completions re-step us
                self._cursor = i + 1
                self._at_barrier = True
                self.stats.inc("barriers")
                self.barrier.arrive(self)
                return
            if not self._loaded:
                # The compute gap runs from the previous issue.
                self._loaded = True
                self._ready_cycle = self._last_issue + work_col[i]
            now = scheduler.now
            if now < self._ready_cycle:
                self._schedule_step(self._ready_cycle - now)
                return
            if self._outstanding >= max_outstanding:
                self._c_window_stalls.value += 1
                return  # a completion will re-step us
            self._cursor = i + 1
            self._loaded = False
            self._outstanding += 1
            insts = buf.insts[i]
            self.instructions += insts if insts > 0 else work_col[i] + 1
            self._c_accesses.value += 1
            self._last_issue = now
            self.cache.access(addr, bool(buf.is_write[i]),
                              self._on_complete, pc=buf.pc[i])

    def _on_complete(self) -> None:
        self._outstanding -= 1
        self._c_completions.value += 1
        if not self._at_barrier:
            self._schedule_step(0)
            return
        # We cannot be at a barrier with operations still issuing; the
        # barrier is only entered once the window drained.
        raise AssertionError("completion while parked at a barrier")

    def resume_from_barrier(self) -> None:
        """Leave the barrier and step again this cycle."""
        self._at_barrier = False
        self._schedule_step(0)

    def _finish(self) -> None:
        self.finished = True
        self.finish_cycle = self.scheduler.now
        self.stats.set("finish_cycle", self.finish_cycle)
        self.stats.set("instructions", self.instructions)
        if self.on_finished is not None:
            self.on_finished(self)


# Fast-path ownership tags (repro.cpu.fastpath): a scheduler bucket whose
# every event carries a nonzero ``_fp_kind`` is wholly core activity and
# may be executed by the batched stepper.  Bound methods forward attribute
# reads to the underlying function, so tagging here covers every instance,
# including the ``_step`` alias each core binds to ``_step_buffered``.
Core._on_complete._fp_kind = 1
Core._step_buffered._fp_kind = 2
