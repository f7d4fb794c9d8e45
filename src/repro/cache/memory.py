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
