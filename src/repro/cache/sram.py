"""Set-associative cache array shared by the private caches and the LLC.

Coherence *stable* state lives in the array, while transient state lives
in the MSHRs (a line is only present in the array when its data is).
The array is policy-aware: victims can be restricted to evictable lines
so pushed data never evicts a line with an in-flight upgrade (the
deadlock-drop rule of §III-B).

Flat storage
------------

Lines are stored as parallel flat arrays indexed by *slot*
(``set_index * assoc + way``): integer tags, byte-coded states (see
:data:`repro.cache.coherence.STATE_CODE`), payload versions, bit-packed
status flags, and LRU recency stamps.  Controllers drive their hot
paths through the slot-level API (:meth:`probe`, :meth:`install_flat`,
:meth:`evict_flat`, :meth:`clear_slot`, plus direct reads of the
parallel arrays), which never materializes a Python object per line.

The object API (:meth:`lookup` / :meth:`install` / :meth:`evict_victim`
returning :class:`CacheLine`) is preserved on top of the same storage
for tests, debug helpers, and predicate-based eviction: a ``CacheLine``
is a *view* whose attribute properties read and write the flat arrays
directly, so both APIs always agree.  Evicting or removing a line
detaches its view — the object keeps a final copy of the line's fields
(callers inspect ``victim.dirty`` / ``victim.payload`` after eviction)
and can be re-installed later.

Replacement is true LRU, as in the paper's gem5 Ruby caches, folded
into the array as a globally unique incrementing stamp per touch
(victim = min stamp, deterministic regardless of candidate order).
Controllers on the hit path bump ``_stamp``/``_stamps`` directly, so
the stamps are the only recency state there is.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.params import CacheParams
from repro.cache.coherence import STATE_CODE, STATE_OBJS

#: bit-packed CacheLine status flags (the _flags bytearray)
F_DIRTY = 1
F_PUSHED = 2
F_ACCESSED = 4
F_BLOCKED = 8
F_PREFETCHED = 16


def _flag_property(bit: int) -> property:
    """A CacheLine boolean backed by one bit of the flags byte."""
    mask = 0xFF ^ bit

    def fget(self) -> bool:
        arr = self._array
        flags = self._flags if arr is None else arr._flags[self._slot]
        return bool(flags & bit)

    def fset(self, value: bool) -> None:
        arr = self._array
        if arr is None:
            self._flags = (self._flags | bit) if value else (
                self._flags & mask)
        else:
            slot = self._slot
            flags = arr._flags[slot]
            arr._flags[slot] = (flags | bit) if value else (flags & mask)

    return property(fget, fset)


class CacheLine:
    """One cache line: a view over a resident slot, or a free-standing
    record before installation / after eviction."""

    __slots__ = ("_array", "_slot", "_line_addr", "_state", "_payload",
                 "_flags")

    def __init__(self, line_addr: int, state, payload: int = 0) -> None:
        self._array: Optional["CacheArray"] = None
        self._slot = -1
        self._line_addr = line_addr
        self._state = STATE_CODE[state]
        self._payload = payload
        self._flags = 0

    @property
    def line_addr(self) -> int:
        return self._line_addr

    @property
    def state(self):
        arr = self._array
        code = self._state if arr is None else arr._state[self._slot]
        return STATE_OBJS[code]

    @state.setter
    def state(self, value) -> None:
        code = STATE_CODE[value]
        arr = self._array
        if arr is None:
            self._state = code
        else:
            arr._state[self._slot] = code

    @property
    def payload(self) -> int:
        arr = self._array
        return self._payload if arr is None else arr._payload[self._slot]

    @payload.setter
    def payload(self, value: int) -> None:
        arr = self._array
        if arr is None:
            self._payload = value
        else:
            arr._payload[self._slot] = value

    dirty = _flag_property(F_DIRTY)
    #: paper §III-D status bits for the pause knob
    pushed = _flag_property(F_PUSHED)
    accessed = _flag_property(F_ACCESSED)
    #: set while a transaction (e.g. upgrade) pins this line in place
    blocked = _flag_property(F_BLOCKED)
    prefetched = _flag_property(F_PREFETCHED)

    def __repr__(self) -> str:
        return (f"CacheLine(0x{self.line_addr:x}, {self.state}, "
                f"dirty={self.dirty}, pushed={self.pushed})")


class CacheArray:
    """Tag/state/flags arrays with folded true-LRU replacement."""

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self.num_sets = params.num_sets
        self.assoc = params.assoc
        self._set_mask = self.num_sets - 1  # num_sets is a power of two
        slots = self.num_sets * self.assoc
        # Parallel flat storage, indexed slot = set_index * assoc + way.
        self._tags: List[int] = [-1] * slots
        self._state = bytearray(slots)
        self._payload: List[int] = [0] * slots
        self._flags = bytearray(slots)
        self._stamps: List[int] = [0] * slots
        self._stamp = 0
        #: line_addr -> slot (addresses are unique array-wide)
        self._slot_of: Dict[int, int] = {}
        #: per-set free slots (popped highest-way first)
        self._free: List[List[int]] = [
            list(range(base, base + self.assoc))
            for base in range(0, slots, self.assoc)]
        #: lazily materialized per-slot CacheLine views (object API)
        self._views: List[Optional[CacheLine]] = [None] * slots

    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    # ------------------------------------------------------------------
    # slot-level API (controller hot paths; no objects)
    # ------------------------------------------------------------------

    def probe(self, line_addr: int) -> int:
        """The line's slot, or -1.  Never updates recency."""
        return self._slot_of.get(line_addr, -1)

    def touch_slot(self, slot: int) -> None:
        """Record a hit on ``slot`` for replacement."""
        self._stamp = stamp = self._stamp + 1
        self._stamps[slot] = stamp

    def install_flat(self, line_addr: int, state_code: int,
                     payload: int = 0, flags: int = 0) -> int:
        """Place a line by its field values; returns its slot."""
        index = line_addr & self._set_mask
        if line_addr in self._slot_of:
            raise KeyError(f"line 0x{line_addr:x} already resident")
        free = self._free[index]
        if not free:
            raise IndexError("no free way; evict first")
        slot = free.pop()
        self._slot_of[line_addr] = slot
        self._tags[slot] = line_addr
        self._state[slot] = state_code
        self._payload[slot] = payload
        self._flags[slot] = flags
        self.touch_slot(slot)
        return slot

    def _pick_victim(self, candidates) -> int:
        # Stamps are globally unique, so the minimum is unique and the
        # candidate order cannot matter; list.__getitem__ keeps the key
        # call at C level.
        return min(candidates, key=self._stamps.__getitem__)

    def evict_flat(self, line_addr: int, skip_blocked: bool = False
                   ) -> Optional[Tuple[int, int, int, int]]:
        """Free a way in ``line_addr``'s set without materializing views.

        Returns None when a way was already free, else the evicted
        line's ``(line_addr, state_code, payload, flags)``; raises
        LookupError when every line is pinned (``skip_blocked``).
        """
        index = line_addr & self._set_mask
        if self._free[index]:
            return None
        base = index * self.assoc
        slots = range(base, base + self.assoc)
        if skip_blocked:
            flags = self._flags
            candidates = [s for s in slots if not flags[s] & F_BLOCKED]
            if not candidates:
                raise LookupError("no evictable line in set")
        else:
            candidates = list(slots)
        slot = self._pick_victim(candidates)
        record = (self._tags[slot], self._state[slot],
                  self._payload[slot], self._flags[slot])
        self.clear_slot(slot)
        return record

    def evict_silent(self, line_addr: int) -> None:
        """:meth:`evict_flat` for callers that discard the victim.

        The L1 refill path evicts write-through lines whose contents
        nobody reads; skipping the record tuple (four element reads)
        measurably cheapens the highest-churn storage
        traffic in the hierarchy.  Victim choice is identical to
        :meth:`evict_flat` with ``skip_blocked=False``.
        """
        index = line_addr & self._set_mask
        if self._free[index]:
            return
        base = index * self.assoc
        self.clear_slot(self._pick_victim(range(base, base + self.assoc)))

    def clear_slot(self, slot: int) -> None:
        """Invalidate ``slot`` (detaching its view, if one exists)."""
        view = self._views[slot]
        if view is not None:
            view._state = self._state[slot]
            view._payload = self._payload[slot]
            view._flags = self._flags[slot]
            view._array = None
            view._slot = -1
            self._views[slot] = None
        addr = self._tags[slot]
        del self._slot_of[addr]
        self._tags[slot] = -1
        self._free[slot // self.assoc].append(slot)

    # ------------------------------------------------------------------
    # object API (tests, debug, predicate-based eviction)
    # ------------------------------------------------------------------

    def _view(self, slot: int) -> CacheLine:
        view = self._views[slot]
        if view is None:
            view = CacheLine.__new__(CacheLine)
            view._array = self
            view._slot = slot
            view._line_addr = self._tags[slot]
            view._state = 0
            view._payload = 0
            view._flags = 0
            self._views[slot] = view
        return view

    def lookup(self, line_addr: int, touch: bool = True
               ) -> Optional[CacheLine]:
        """The resident line, or None.  Updates recency when ``touch``."""
        slot = self._slot_of.get(line_addr, -1)
        if slot < 0:
            return None
        if touch:
            self.touch_slot(slot)
        return self._view(slot)

    def install(self, line: CacheLine) -> None:
        """Place a line; the caller must have ensured a free way exists.

        The passed object becomes the slot's bound view (``lookup``
        returns it by identity while the line stays resident).
        """
        slot = self.install_flat(line._line_addr, line._state,
                                 line._payload, line._flags)
        line._array = self
        line._slot = slot
        self._views[slot] = line

    def evict_victim(self, line_addr: int,
                     evictable: Optional[Callable[[CacheLine], bool]] = None,
                     skip_blocked: bool = False) -> Optional[CacheLine]:
        """Free a way in ``line_addr``'s set; returns the evicted line.

        Returns None when a way was already free (nothing evicted) and
        raises LookupError when every resident line fails ``evictable``
        (the caller decides what to do — e.g. drop a pushed line).
        ``evictable=None`` means every resident line is fair game;
        ``skip_blocked`` excludes transaction-pinned lines without the
        cost of a per-line predicate call.
        """
        index = line_addr & self._set_mask
        if self._free[index]:
            return None
        base = index * self.assoc
        slots = range(base, base + self.assoc)
        if skip_blocked:
            flags = self._flags
            candidates = [s for s in slots if not flags[s] & F_BLOCKED]
        elif evictable is None:
            candidates = list(slots)
        else:
            candidates = [s for s in slots if evictable(self._view(s))]
        if not candidates:
            raise LookupError("no evictable line in set")
        slot = self._pick_victim(candidates)
        victim = self._view(slot)
        self.clear_slot(slot)
        return victim

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        """Invalidate a specific line if resident."""
        slot = self._slot_of.get(line_addr, -1)
        if slot < 0:
            return None
        victim = self._view(slot)
        self.clear_slot(slot)
        return victim

    def has_free_way(self, line_addr: int) -> bool:
        return bool(self._free[line_addr & self._set_mask])

    def resident_lines(self) -> List[CacheLine]:
        """All resident lines (test/debug helper)."""
        return [self._view(slot) for slot in self._slot_of.values()]

    def occupancy(self) -> int:
        return len(self._slot_of)

