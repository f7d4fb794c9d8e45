"""Miss-status holding registers.

One MSHR tracks one outstanding line transaction at a cache.  Secondary
misses to the same line attach themselves as waiters instead of issuing
another request.  The ``filtered`` flag is set by the network when the
in-network filter prunes the MSHR's GETS — the arriving push then counts
as an Early-Resp in the Fig. 12 accounting.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.messages import MsgType


class MSHR:
    """One outstanding miss."""

    __slots__ = ("line_addr", "req_type", "waiters", "issued_at",
                 "filtered", "is_prefetch", "had_line_in_s")

    def __init__(self, line_addr: int, req_type: MsgType, issued_at: int,
                 is_prefetch: bool = False) -> None:
        self.waiters: List[Callable[[], None]] = []
        self.line_addr = line_addr
        self.req_type = req_type
        self.issued_at = issued_at
        self.filtered = False
        self.is_prefetch = is_prefetch
        #: True for an upgrade (S -> M): the S copy stays resident/blocked
        self.had_line_in_s = False

    def add_waiter(self, callback: Callable[[], None]) -> None:
        self.waiters.append(callback)

    def complete(self) -> None:
        """Wake every attached waiter (in attach order)."""
        waiters, self.waiters = self.waiters, []
        for callback in waiters:
            callback()

    def __repr__(self) -> str:
        return (f"MSHR(0x{self.line_addr:x}, {self.req_type.name}, "
                f"waiters={len(self.waiters)}, filtered={self.filtered})")


class MSHRFile:
    """Fixed-capacity MSHR file for one cache."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Dict[int, MSHR] = {}

    def get(self, line_addr: int) -> Optional[MSHR]:
        return self._entries.get(line_addr)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, line_addr: int, req_type: MsgType, issued_at: int,
                 is_prefetch: bool = False) -> MSHR:
        if line_addr in self._entries:
            raise KeyError(f"MSHR for 0x{line_addr:x} already allocated")
        if self.full:
            raise IndexError("MSHR file full")
        entry = MSHR(line_addr, req_type, issued_at, is_prefetch)
        self._entries[line_addr] = entry
        return entry

    def release(self, line_addr: int) -> MSHR:
        """Detach and return the register for ``line_addr``."""
        return self._entries.pop(line_addr)

    def outstanding(self) -> List[MSHR]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
