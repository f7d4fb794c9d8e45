"""Cache array tests, including hypothesis capacity invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import CacheParams
from repro.cache.coherence import STATE_CODE, PrivState
from repro.cache.sram import F_BLOCKED, CacheArray

S = STATE_CODE[PrivState.S]


def small_array(sets: int = 4, assoc: int = 2) -> CacheArray:
    return CacheArray(CacheParams(size_bytes=sets * assoc * 64,
                                  assoc=assoc, hit_latency=1))


#: the two ways to protect pinned lines from eviction: the flag filter,
#: and an address predicate reading the same flag
PROTECT = (
    lambda array: {"skip_blocked": True},
    lambda array: {"evictable":
                   lambda addr: not array.record(addr)[3] & F_BLOCKED},
)


class TestInstallLookup:
    def test_lookup_after_install(self) -> None:
        array = small_array()
        slot = array.install_flat(0x10, S, payload=3)
        assert array.probe(0x10) == slot
        assert array.record(0x10) == (0x10, S, 3, 0)

    def test_lookup_missing_returns_none(self) -> None:
        array = small_array()
        assert array.probe(0x10) == -1
        assert array.record(0x10) is None

    def test_double_install_raises(self) -> None:
        array = small_array()
        array.install_flat(0x10, S)
        with pytest.raises(KeyError):
            array.install_flat(0x10, S)

    def test_install_full_set_raises(self) -> None:
        array = small_array(sets=4, assoc=2)
        array.install_flat(0x0, S)
        array.install_flat(0x4, S)  # same set (4 sets)
        with pytest.raises(IndexError):
            array.install_flat(0x8, S)

    def test_remove_frees_way(self) -> None:
        array = small_array(sets=4, assoc=2)
        array.install_flat(0x0, S)
        array.install_flat(0x4, S)
        array.clear_slot(array.probe(0x0))
        assert array.record(0x0) is None
        array.install_flat(0x8, S)  # fits again

    def test_remove_missing_returns_none(self) -> None:
        array = small_array()
        array.install_flat(0x0, S)
        array.clear_slot(array.probe(0x0))
        assert array.probe(0x0) == -1 and array.occupancy() == 0


class TestVictimSelection:
    def test_no_eviction_needed_when_free_way(self) -> None:
        array = small_array()
        array.install_flat(0x0, S)
        assert array.evict_flat(0x4) is None

    def test_evicts_lru_line(self) -> None:
        array = small_array(sets=1, assoc=2)
        array.install_flat(0x0, S)
        array.install_flat(0x1, S, payload=7, flags=1)
        array.touch_slot(array.probe(0x0))  # 0x1 becomes LRU
        assert array.evict_flat(0x2) == (0x1, S, 7, 1)
        assert array.record(0x1) is None

    def test_sets_are_independent(self) -> None:
        array = small_array(sets=2, assoc=2)  # set = line_addr & 1
        for addr in (0x1, 0x0, 0x2, 0x3):
            array.install_flat(addr, S)
        # 0x1 is the oldest line overall, but it lives in set 1.
        assert array.evict_flat(0x4)[0] == 0x0
        assert array.evict_flat(0x5)[0] == 0x1

    def test_blocked_lines_are_protected(self) -> None:
        for protect in PROTECT:
            array = small_array(sets=1, assoc=2)
            array.install_flat(0x0, S, flags=F_BLOCKED)  # the LRU line
            array.install_flat(0x1, S)
            assert array.evict_flat(0x2, **protect(array))[0] == 0x1

    def test_all_blocked_raises_lookup_error(self) -> None:
        for protect in PROTECT:
            array = small_array(sets=1, assoc=2)
            for addr in (0x0, 0x1):
                array.install_flat(addr, S, flags=F_BLOCKED)
            with pytest.raises(LookupError):
                array.evict_flat(0x2, **protect(array))
            assert array.occupancy() == 2


class TestCapacityInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255),
                    min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addrs) -> None:
        """Random fill workload: evict-then-install never overflows."""
        array = small_array(sets=8, assoc=2)
        for addr in addrs:
            slot = array.probe(addr)
            if slot >= 0:
                array.touch_slot(slot)
                continue
            array.evict_flat(addr)
            array.install_flat(addr, S)
            assert array.occupancy() <= 16
        for addr, slot, *_ in array.state()["lines"]:
            assert array.probe(addr) == slot

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=200))
    def test_most_recent_line_survives(self, addrs) -> None:
        """A line touched most recently is never the next victim."""
        array = small_array(sets=1, assoc=4)
        for addr in addrs:
            slot = array.probe(addr)
            if slot >= 0:
                array.touch_slot(slot)
            else:
                array.evict_flat(addr)
                array.install_flat(addr, S)
            victim = array.evict_flat(9999) if (
                not array.has_free_way(9999)) else None
            if victim is not None:
                assert victim[0] != addr
                array.install_flat(*victim)  # put it back
