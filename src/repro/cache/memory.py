"""Main-memory controller model.

One controller sits at each mesh corner (Table I: 4 controllers,
DDR3-1600, 12.8 GB/s).  The model is a fixed access latency behind a
token-bucket bandwidth limiter: line fills are serviced in arrival
order, no faster than ``bandwidth_lines_per_cycle``, each completing
``latency`` cycles after it starts service.  Writebacks consume
bandwidth but produce no reply.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import ProtocolError
from repro.common.messages import CoherenceMsg, MsgType
from repro.common.params import MemoryParams
from repro.common.scheduler import Scheduler
from repro.common.stats import StatGroup


class MemoryController:
    """One corner memory controller."""

    def __init__(self, tile: int, params: MemoryParams,
                 scheduler: Scheduler,
                 send: Callable[[CoherenceMsg], None],
                 stats: Optional[StatGroup] = None) -> None:
        self.tile = tile
        self.params = params
        self.scheduler = scheduler
        self._send = send
        self.stats = stats if stats is not None else StatGroup(f"mem{tile}")
        self._next_start = 0.0
        self._service_gap = 1.0 / params.bandwidth_lines_per_cycle

    def deliver(self, msg: CoherenceMsg) -> None:
        """A memory request ejected at this controller's tile."""
        if msg.msg_type is MsgType.MEM_WB:
            self.stats.inc("writebacks")
            self._occupy_slot()
            return
        if msg.msg_type is not MsgType.MEM_READ:
            raise ProtocolError(f"memory controller cannot handle {msg}")
        self.stats.inc("reads")
        start = self._occupy_slot()
        finish = int(start) + self.params.latency
        requester = msg.requester if msg.requester is not None else msg.src
        reply = CoherenceMsg(
            MsgType.MEM_DATA, msg.line_addr, self.tile, (requester,),
            requester=requester)
        self.scheduler.at(finish, lambda: self._send(reply))

    def _occupy_slot(self) -> float:
        """Claim the next service slot; returns its start cycle."""
        now = float(self.scheduler.now)
        start = max(now, self._next_start)
        self._next_start = start + self._service_gap
        busy = self._next_start - now
        self.stats.set("queue_depth_cycles", busy)
        return start

    def state(self) -> float:
        """The token clock: the earliest start of the next service slot."""
        return self._next_start

    def restore_state(self, next_start: float) -> None:
        """Reload the token clock.

        A functional warm image places its controllers at the corners
        of the canonical mesh; a detailed fabric may place them on
        other tiles (ring and cmesh at 16 cores use tiles 0, 4, 8 and
        12, not 0, 3, 12 and 15), and ``System.restore_state`` skips
        the clocks of tiles without a controller, leaving those
        controllers at 0.  That equals restoring them whenever every
        captured clock is at most the capture cycle, since a slot then
        starts at ``max(now, clock) == now`` either way.  Reads keep
        that bound: a read's reply leaves ``latency`` cycles after its
        slot starts, ``latency`` exceeds the service gap, and the
        quiesce drains every reply.  A writeback has no reply, so one
        that races an LLC eviction at the very end of the warm phase
        could leave a clock up to a service gap per queued writeback
        past the capture cycle; ``tests/test_checkpoint.py`` pins the
        bound on images from every fabric.
        """
        self._next_start = next_start
