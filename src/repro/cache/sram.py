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
status flags, and LRU recency stamps.  The array has one API, at slot
level: :meth:`probe`, :meth:`install_flat`, :meth:`evict_flat` (which
also takes a predicate on line addresses), :meth:`clear_slot`, the
read-only :meth:`record`, plus direct reads of the parallel arrays on
controller hot paths.  No Python object is materialized per line.
:meth:`state` / :meth:`restore_state` snapshot and reload the occupied
slots for checkpoints.

Replacement is true LRU, as in the paper's gem5 Ruby caches, folded
into the array as a globally unique incrementing stamp per touch
(victim = min stamp, deterministic regardless of candidate order).
Controllers on the hit path bump ``_stamp``/``_stamps`` directly, so
the stamps are the only recency state there is.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.params import CacheParams

#: bit-packed line status flags (the _flags bytearray)
F_DIRTY = 1
#: paper §III-D status bits for the pause knob
F_PUSHED = 2
F_ACCESSED = 4
#: set while a transaction (e.g. upgrade) pins the line in place
F_BLOCKED = 8
F_PREFETCHED = 16


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

    def set_index(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def probe(self, line_addr: int) -> int:
        """The line's slot, or -1.  Never updates recency."""
        return self._slot_of.get(line_addr, -1)

    def record(self, line_addr: int) -> Optional[Tuple[int, int, int, int]]:
        """The resident line's ``(line_addr, state_code, payload,
        flags)`` — the tuple :meth:`evict_flat` returns — or None.
        Never updates recency."""
        slot = self._slot_of.get(line_addr, -1)
        if slot < 0:
            return None
        return (line_addr, self._state[slot], self._payload[slot],
                self._flags[slot])

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

    def evict_flat(self, line_addr: int, skip_blocked: bool = False,
                   evictable: Optional[Callable[[int], bool]] = None
                   ) -> Optional[Tuple[int, int, int, int]]:
        """Free a way in ``line_addr``'s set.

        Returns None when a way was already free, else the evicted
        line's ``(line_addr, state_code, payload, flags)``.  The victim
        is the least recently used candidate: ``skip_blocked`` drops
        transaction-pinned lines, and ``evictable`` (a predicate on a
        resident line's address) drops the lines it rejects.  Raises
        LookupError when no candidate is left (the caller decides what
        to do, e.g. drop a pushed line).
        """
        index = line_addr & self._set_mask
        if self._free[index]:
            return None
        base = index * self.assoc
        candidates = range(base, base + self.assoc)
        if skip_blocked:
            flags = self._flags
            candidates = [s for s in candidates if not flags[s] & F_BLOCKED]
        if evictable is not None:
            tags = self._tags
            candidates = [s for s in candidates if evictable(tags[s])]
        if not candidates:
            raise LookupError("no evictable line in set")
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
        :meth:`evict_flat` with no filter.
        """
        index = line_addr & self._set_mask
        if self._free[index]:
            return
        base = index * self.assoc
        self.clear_slot(self._pick_victim(range(base, base + self.assoc)))

    def clear_slot(self, slot: int) -> None:
        """Invalidate ``slot``."""
        del self._slot_of[self._tags[slot]]
        self._tags[slot] = -1
        self._free[slot // self.assoc].append(slot)

    def has_free_way(self, line_addr: int) -> bool:
        return bool(self._free[line_addr & self._set_mask])

    def occupancy(self) -> int:
        return len(self._slot_of)

    # ------------------------------------------------------------------
    # checkpoint state (see repro.sim.checkpoint)
    # ------------------------------------------------------------------

    def state(self) -> Dict:
        """Compact occupied-slot snapshot (JSON-safe)."""
        state, payload = self._state, self._payload
        flags, stamps = self._flags, self._stamps
        return {
            "stamp": self._stamp,
            "lines": [[addr, slot, state[slot], payload[slot], flags[slot],
                       stamps[slot]]
                      for addr, slot in self._slot_of.items()],
            "free": [list(free) for free in self._free],
        }

    def restore_state(self, snap: Dict) -> None:
        """Reload a :meth:`state` snapshot.

        Every container is mutated in place: controllers hold bound
        references (e.g. ``_slot_of.get``) into them.
        """
        slots = self.num_sets * self.assoc
        self._stamp = snap["stamp"]
        self._slot_of.clear()
        self._tags[:] = [-1] * slots
        self._state[:] = bytes(slots)
        self._payload[:] = [0] * slots
        self._flags[:] = bytes(slots)
        self._stamps[:] = [0] * slots
        for addr, slot, state, payload, flags, stamp in snap["lines"]:
            self._slot_of[addr] = slot
            self._tags[slot] = addr
            self._state[slot] = state
            self._payload[slot] = payload
            self._flags[slot] = flags
            self._stamps[slot] = stamp
        for dst, src in zip(self._free, snap["free"]):
            dst[:] = src
