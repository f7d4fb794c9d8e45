"""Test harness for driving cache controllers without a network.

``ControllerHarness`` wires a private cache or an LLC slice to a
capture-everything outbox and a manually-advanced scheduler, so protocol
unit tests can inject one message at a time and assert on the exact
replies.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.common.messages import CoherenceMsg, MsgType
from repro.common.params import SystemParams
from repro.common.scheduler import Scheduler
from repro.cache.coherence import STATE_OBJS
from repro.cache.llc import LLCSlice
from repro.cache.private_cache import PrivateCache
from repro.cache.sram import (CacheArray, F_ACCESSED, F_BLOCKED, F_DIRTY,
                              F_PREFETCHED, F_PUSHED)
from repro.sim.config import make_params


def resident_line(array: CacheArray,
                  line_addr: int) -> Optional[SimpleNamespace]:
    """A decoded copy of ``array.record(line_addr)`` (None when the
    line is absent): its state object, payload and status flags."""
    record = array.record(line_addr)
    if record is None:
        return None
    _, code, payload, flags = record
    return SimpleNamespace(
        line_addr=line_addr, state=STATE_OBJS[code], payload=payload,
        dirty=bool(flags & F_DIRTY), pushed=bool(flags & F_PUSHED),
        accessed=bool(flags & F_ACCESSED), blocked=bool(flags & F_BLOCKED),
        prefetched=bool(flags & F_PREFETCHED))


class ControllerHarness:
    """One controller + outbox + scheduler, advanced on demand."""

    def __init__(self, params: Optional[SystemParams] = None,
                 config: str = "noprefetch", num_cores: int = 16,
                 **config_kwargs) -> None:
        self.params = params if params is not None else make_params(
            config, num_cores=num_cores, **config_kwargs)
        self.scheduler = Scheduler()
        self.outbox: List[CoherenceMsg] = []
        self.versions: Dict[int, int] = {}

    def send(self, msg: CoherenceMsg) -> None:
        self.outbox.append(msg)

    def home_of(self, line_addr: int) -> int:
        return 0  # every line homes at tile 0 in controller tests

    def mem_ctrl_of(self, tile: int) -> int:
        return 0

    def make_private(self, tile: int = 1) -> PrivateCache:
        return PrivateCache(tile, self.params, self.scheduler, self.send,
                            self.home_of)

    def make_llc(self, tile: int = 0) -> LLCSlice:
        return LLCSlice(tile, self.params, self.scheduler, self.send,
                        self.home_of, self.mem_ctrl_of, self.versions)

    def settle(self, cycles: int = 2000) -> None:
        """Run every pending event (advance up to ``cycles``)."""
        target = self.scheduler.now + cycles
        while self.scheduler.pending:
            nxt = self.scheduler.next_event_cycle()
            if nxt is None or nxt > target:
                break
            self.scheduler.run_due(nxt)
        self.scheduler.run_due(target)

    def take(self, msg_type: Optional[MsgType] = None) -> List[CoherenceMsg]:
        """Drain the outbox (optionally only one message type)."""
        if msg_type is None:
            drained, self.outbox = self.outbox, []
            return drained
        kept, drained = [], []
        for msg in self.outbox:
            (drained if msg.msg_type is msg_type else kept).append(msg)
        self.outbox = kept
        return drained

    def fill_llc_line(self, llc: LLCSlice, line_addr: int) -> None:
        """Drive the memory-fill round trip for one line."""
        llc.deliver(CoherenceMsg(MsgType.MEM_DATA, line_addr, 0, (0,)))
        self.settle()


def gets(line: int, src: int, home: int = 0,
         need_push: bool = True) -> CoherenceMsg:
    return CoherenceMsg(MsgType.GETS, line, src, (home,),
                        requester=src, need_push=need_push)


def getm(line: int, src: int, home: int = 0) -> CoherenceMsg:
    return CoherenceMsg(MsgType.GETM, line, src, (home,), requester=src)
