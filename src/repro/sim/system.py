"""Full-system wiring: tiles (core + L1/L2 + LLC slice + router) + memory.

One :class:`System` owns a scheduler, a mesh network, one private cache
hierarchy and one LLC slice per tile, and the corner memory controllers.
The tile's network interface dispatches ejected messages to the right
controller by message type:

===========================  =========================
message types                delivered to
===========================  =========================
GETS GETM PUTM INV_ACK
PUSH_ACK                     home LLC slice
DATA_S DATA_E PUSH INV
DOWNGRADE WB_ACK             private cache
MEM_READ MEM_WB              memory controller
MEM_DATA                     LLC slice (fill return)
===========================  =========================

(A PUTM can terminate at either the LLC — normal writeback — or carry a
recall acknowledgment; both are LLC-bound.)
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional

from repro.common.addr import AddressMap
from repro.common.errors import ConfigError, SimulationError
from repro.common.messages import CoherenceMsg, MsgType
from repro.common.params import SystemParams
from repro.common.scheduler import NEVER, Scheduler
from repro.common.stats import StatGroup
from repro.cache.llc import LLCSlice
from repro.cache.memory import MemoryController
from repro.cache.private_cache import PrivateCache
from repro.cpu.core import Barrier, Core
from repro.cpu.fastpath import fastpath_enabled
from repro.cpu.traces import TraceRecord
from repro.noc.functional import FunctionalNetwork
from repro.noc.network import Network
from repro.prefetch.unit import PrefetchUnit

_LLC_BOUND = frozenset({
    MsgType.GETS, MsgType.GETM, MsgType.PUTM, MsgType.INV_ACK,
    MsgType.PUSH_ACK, MsgType.UNBLOCK, MsgType.MEM_DATA,
})
_L2_BOUND = frozenset({
    MsgType.DATA_S, MsgType.DATA_E, MsgType.PUSH, MsgType.INV,
    MsgType.DOWNGRADE, MsgType.WB_ACK,
})
_MEM_BOUND = frozenset({MsgType.MEM_READ, MsgType.MEM_WB})


class System:
    """A configured manycore system ready to execute workload traces."""

    def __init__(self, params: SystemParams,
                 functional_noc: bool = False) -> None:
        self.params = params
        self.scheduler = Scheduler()
        push = params.push
        #: fixed-latency functional NoC stand-in (warmup fast-forward)?
        self.functional_noc = functional_noc
        if functional_noc:
            self.network = FunctionalNetwork(params.noc, self.scheduler)
        elif params.noc.engine == "array":
            # Imported lazily: the array backend pulls in numpy, which
            # event-engine runs never need to pay for.
            from repro.noc.arrayengine import ArrayNetwork
            self.network = ArrayNetwork(
                params.noc, self.scheduler,
                filter_enabled=push.pushes and push.network_filter
                and push.mode != "msp",
                ordered_pushes=push.mode == "ordpush")
        else:
            self.network = Network(
                params.noc, self.scheduler,
                filter_enabled=push.pushes and push.network_filter
                and push.mode != "msp",
                ordered_pushes=push.mode == "ordpush")
        self.addr_map = AddressMap(params.num_cores)
        self.stats = StatGroup("system")
        #: authoritative line-version registry shared by all LLC slices
        self.versions: Dict[int, int] = {}

        topology = self.network.topology
        self._mem_tiles = topology.memory_controller_tiles()
        self._nearest_ctrl = [
            min(self._mem_tiles,
                key=lambda ctrl: (topology.hop_distance(tile, ctrl), ctrl))
            for tile in range(params.num_cores)
        ]

        # Batched coherence fast path (repro.cpu.fastpath): a stepper
        # built lazily once the cores are attached.  Prefetcher
        # configs opt out — a prefetcher trains on every demand access,
        # so no access would retire as a clean hit and the walk would be
        # pure overhead.
        self._stepper = None
        self._fp_eligible = fastpath_enabled() and not params.prefetch.enabled

        self.caches: List[PrivateCache] = []
        self.slices: List[LLCSlice] = []
        self.memories: Dict[int, MemoryController] = {}
        for tile in range(params.num_cores):
            cache = PrivateCache(
                tile, params, self.scheduler, self.network.send,
                self._home_of, stats=self.stats.child(f"l2_{tile}"))
            llc = LLCSlice(
                tile, params, self.scheduler, self.network.send,
                self._home_of, self._mem_ctrl_of, self.versions,
                stats=self.stats.child(f"llc_{tile}"))
            # The stationary filter's premise is "a push in flight (or
            # installed) will satisfy this tile's request".  The cache
            # reports the exact moments that premise breaks — a push
            # dropped without feeding an MSHR, or the line leaving the
            # L2 — so the home slice stops killing that tile's GETS
            # (see ``LLCSlice.note_push_voided``).  Only filter-enabled
            # schemes register shadows, so others skip the wiring.
            if params.push.network_filter and params.push.shadow_cycles > 0:
                cache.shadow_void = (
                    lambda line, t=tile: self.slices[
                        self._home_of(line)].note_push_voided(line, t))
            self.caches.append(cache)
            self.slices.append(llc)
            iface = self.network.interface(tile)
            iface.eject_hook = lambda msg, t=tile: self._dispatch(t, msg)
            try:
                iface.eject_batch_hook = (
                    lambda msgs, t=tile: self._dispatch_batch(t, msgs))
            except AttributeError:
                pass  # engines without batched ejection keep the per-
                # message hook; slotted interfaces reject the attribute
            if params.prefetch.enabled:
                cache.prefetcher = PrefetchUnit(
                    params.prefetch,
                    issue=cache.prefetch_access,
                    stats=self.stats.child(f"prefetch_{tile}"))
        for tile in self._mem_tiles:
            self.memories[tile] = MemoryController(
                tile, params.memory, self.scheduler, self.network.send,
                stats=self.stats.child(f"mem_{tile}"))
        self.network.request_filtered_hook = self._on_request_filtered

        self.cores: List[Core] = []
        self._finished_cores = 0
        self._cores_started = False

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------

    def _home_of(self, line_addr: int) -> int:
        return self.addr_map.home_slice(line_addr)

    def _mem_ctrl_of(self, slice_tile: int) -> int:
        return self._nearest_ctrl[slice_tile]

    def _dispatch(self, tile: int, msg: CoherenceMsg) -> None:
        if msg.msg_type in _LLC_BOUND:
            self.slices[tile].deliver(msg)
        elif msg.msg_type in _L2_BOUND:
            self.caches[tile].deliver(msg)
        elif msg.msg_type in _MEM_BOUND:
            controller = self.memories.get(tile)
            if controller is None:
                raise SimulationError(
                    f"memory message routed to non-controller tile {tile}")
            controller.deliver(msg)
        else:
            raise SimulationError(f"unroutable message {msg}")

    def _dispatch_batch(self, tile: int, msgs: List[CoherenceMsg]) -> None:
        """Deliver a same-cycle, same-tile ejection batch in list order.

        Consecutive LLC-bound messages (the directory-read residue of
        the coherence fast path) go through ``LLCSlice.deliver_batch``,
        which amortizes the pipeline-slot bookkeeping; everything else
        takes the ordinary per-message dispatch.  Decisions and order
        are identical to ``for msg in msgs: self._dispatch(tile, msg)``.
        """
        llc_bound = _LLC_BOUND
        run: List[CoherenceMsg] = []
        for msg in msgs:
            if msg.msg_type in llc_bound:
                run.append(msg)
                continue
            if run:
                if len(run) > 1:
                    self.slices[tile].deliver_batch(run)
                else:
                    self.slices[tile].deliver(run[0])
                run = []
            self._dispatch(tile, msg)
        if run:
            if len(run) > 1:
                self.slices[tile].deliver_batch(run)
            else:
                self.slices[tile].deliver(run[0])

    def _on_request_filtered(self, msg: CoherenceMsg) -> None:
        self.caches[msg.src].note_request_filtered(msg.line_addr)

    # ------------------------------------------------------------------
    # workload attachment and execution
    # ------------------------------------------------------------------

    def attach_workload(self, traces: List[TraceRecord]) -> None:
        """Create one core per trace (must match the core count).

        A trace is a :class:`~repro.cpu.tracebuf.TraceBuffer` or a
        record iterable, which the core compiles into one.
        """
        if len(traces) != self.params.num_cores:
            raise ConfigError(
                f"workload provides {len(traces)} traces for "
                f"{self.params.num_cores} cores")
        barrier = Barrier(self.params.num_cores)
        self.cores = [
            Core(tile, self.params.core, self.scheduler,
                 self.caches[tile], trace, barrier,
                 on_finished=self._on_core_finished,
                 stats=self.stats.child(f"core{tile}"))
            for tile, trace in enumerate(traces)
        ]

    def _on_core_finished(self, core: Core) -> None:
        self._finished_cores += 1

    def watch_shared_gets(self, lo_line: int, hi_line: int) -> List[tuple]:
        """Record (cycle, line, requester) for every GETS in a line
        range at any home slice — the Fig. 4 access-interval probe."""
        log: List[tuple] = []
        for slc in self.slices:
            slc.gets_log = log
            slc.watch_range = (lo_line, hi_line)
        return log

    @property
    def all_finished(self) -> bool:
        return bool(self.cores) and self._finished_cores == len(self.cores)

    def _start_cores(self) -> None:
        """Start every core exactly once (idempotent across run calls)."""
        if self._cores_started:
            return
        self._cores_started = True
        for core in self.cores:
            core.start()

    def _ensure_stepper(self) -> None:
        """Build the batched stepper once the cores are attached."""
        if (self._stepper is None and self._fp_eligible
                and fastpath_enabled() and self.cores):
            from repro.cpu.fastpath import BatchedStepper
            self._stepper = BatchedStepper(self)

    def _idle_error(self, phase: str) -> None:
        """Raise the phase-appropriate error for an event-free system."""
        if phase == "warmup":
            if self.all_finished or any(
                    core.finished for core in self.cores):
                raise ConfigError(
                    f"trace ended before warmup barrier "
                    f"{self._warmup_barriers}: the workload has too "
                    f"few barriers for this warmup window")
            raise SimulationError(
                "system idle before reaching the held barrier "
                "(protocol hang)")
        raise SimulationError(
            "system idle with unfinished cores (protocol hang)")

    def _advance(self, cycle: int, max_cycles: int, phase: str,
                 overrun: str, stop_at: Optional[int] = None) -> int:
        """One event-loop iteration shared by run/run_to_quiesce/_drain.

        Jumps to the earliest of the next scheduler event, the
        network's next possible work cycle, and — while packets are in
        flight — the deadlock watchdog's deadline (so the watchdog
        still trips at the exact cycle the per-cycle simulator would
        have raised).  When the jump lands exactly on a scheduler
        event with no network work due, the batched stepper may drain
        the cycle in bulk; every other cycle takes the scalar
        ``run_due``.  The two are bit-identical by construction.

        ``stop_at`` bounds a measured region: when the next cycle with
        work would land past it, nothing is executed and ``-1`` is
        returned so the caller can end the region at exactly
        ``stop_at`` — events *at* the stop cycle still run, events
        after it never do, independent of how the event-driven loop
        batches its jumps.
        """
        scheduler = self.scheduler
        network = self.network
        next_event = scheduler.next_event_cycle()
        target = next_event if next_event is not None else NEVER
        work = network.next_work_cycle()
        if work < target:
            target = work
        if network.active:
            deadline = network.watchdog_deadline()
            if deadline < target:
                target = deadline
        elif target >= NEVER:
            if phase == "drain":
                # Unreachable: _drain's loop condition guarantees
                # pending events or network activity, either of which
                # yields a finite target.
                raise SimulationError("drain idle with pending work")
            self._idle_error(phase)
        cycle = max(cycle + 1, target)
        if stop_at is not None and cycle > stop_at:
            return -1
        if cycle > max_cycles:
            raise SimulationError(overrun)
        stepper = self._stepper
        if stepper is not None and cycle == next_event and work > cycle:
            stepper.run_cycle(cycle)
        else:
            scheduler.run_due(cycle)
        network.tick(cycle)
        return cycle

    def run_to_quiesce(self, warmup_barriers: int,
                       max_cycles: int = 100_000_000) -> int:
        """Run to the ``warmup_barriers``-th barrier crossing and drain.

        Arms the workload barrier to *hold* its Nth crossing (1-based):
        every core parks at a deterministic trace position and, with no
        new work being injected, the NoC and scheduler drain completely
        — in-flight fills, writebacks, pushes, and acks all land, so the
        architectural state is capturable without serializing packets.
        Returns the quiesce cycle.  The system is left held — capture it
        with :func:`repro.sim.checkpoint.capture_state`, or call
        :meth:`run` to release the barrier and continue (the in-process
        twin of a checkpoint restore).

        Re-arming is allowed: calling again with a *later* barrier on a
        held (or restored) system releases the hold and runs on to the
        new crossing — the chained-capture path sampled simulation uses
        to snapshot every region anchor in one warm pass.
        """
        if not self.cores:
            raise ConfigError("attach_workload() before run_to_quiesce()")
        if warmup_barriers < 1:
            raise ConfigError("warmup_barriers must be >= 1")
        barrier = self.cores[0].barrier
        if warmup_barriers <= barrier.crossings:
            raise ConfigError(
                f"run_to_quiesce({warmup_barriers}) after crossing "
                f"{barrier.crossings}: the hold must be in the future")
        barrier.hold_at = warmup_barriers
        if barrier.held is not None:
            # Held at an earlier crossing (a previous quiesce in this
            # process): resume the parked cores and run on.
            barrier.release_held()
        self._warmup_barriers = warmup_barriers
        self._start_cores()
        self._ensure_stepper()
        scheduler = self.scheduler
        network = self.network
        cycle = scheduler.now
        overrun = f"warmup exceeded max_cycles={max_cycles}"
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while not (barrier.held is not None and not network.active
                       and not scheduler.pending):
                cycle = self._advance(cycle, max_cycles, "warmup", overrun)
        finally:
            if gc_was_enabled:
                gc.enable()
        return scheduler.now

    def run(self, max_cycles: int = 100_000_000,
            drain: bool = True, stop_at: Optional[int] = None) -> int:
        """Execute until every core retires its trace.

        Returns the execution time in cycles (the last core's finish).
        ``drain`` additionally flushes in-flight traffic afterwards so
        traffic statistics are complete; the returned time is unaffected.

        ``stop_at`` caps a measured region: execution halts after the
        ``stop_at`` cycle even with cores unfinished, the in-flight
        traffic is left undrained (a truncated region is a statistical
        sample, not a complete run), and the cap is returned as the
        region's finish.  The cut is deterministic — events at the stop
        cycle run, events after it never do — regardless of how the
        event-driven loop batches cycles.

        The loop is event-driven: each iteration jumps straight to the
        earliest of the next scheduler event, the network's next
        possible work cycle, and — while packets are in flight — the
        deadlock watchdog's deadline (so the watchdog still trips at the
        exact cycle the per-cycle simulator would have raised).
        """
        if not self.cores:
            raise ConfigError("attach_workload() before run()")
        self._start_cores()
        self._ensure_stepper()
        barrier = self.cores[0].barrier
        if barrier is not None and barrier.held is not None:
            # Continuing past a quiesced warmup hold (the in-process
            # twin of a checkpoint restore).
            barrier.release_held()
        cycle = self.scheduler.now
        overrun = f"exceeded max_cycles={max_cycles}"
        # Simulation objects die by refcount (no reference cycles on the
        # hot path), so the cyclic collector only adds pauses; park it
        # for the run and restore the caller's setting afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while not self.all_finished:
                cycle = self._advance(cycle, max_cycles, "run", overrun,
                                      stop_at)
                if cycle < 0:
                    return stop_at
            finish = max(core.finish_cycle for core in self.cores)
            if drain:
                self._drain(max_cycles)
        finally:
            if gc_was_enabled:
                gc.enable()
        return finish

    def _drain(self, max_cycles: int) -> None:
        scheduler = self.scheduler
        network = self.network
        cycle = scheduler.now
        while network.active or scheduler.pending:
            cycle = self._advance(cycle, max_cycles, "drain",
                                  "drain exceeded max_cycles")
