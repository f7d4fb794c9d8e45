"""Cache array tests, including hypothesis capacity invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import CacheParams
from repro.cache.coherence import PrivState
from repro.cache.sram import CacheArray, CacheLine


def small_array(sets: int = 4, assoc: int = 2) -> CacheArray:
    return CacheArray(CacheParams(size_bytes=sets * assoc * 64,
                                  assoc=assoc, hit_latency=1))


class TestInstallLookup:
    def test_lookup_after_install(self) -> None:
        array = small_array()
        array.install(CacheLine(0x10, PrivState.S))
        line = array.lookup(0x10)
        assert line is not None and line.line_addr == 0x10

    def test_lookup_missing_returns_none(self) -> None:
        assert small_array().lookup(0x10) is None

    def test_double_install_raises(self) -> None:
        array = small_array()
        array.install(CacheLine(0x10, PrivState.S))
        with pytest.raises(KeyError):
            array.install(CacheLine(0x10, PrivState.S))

    def test_install_full_set_raises(self) -> None:
        array = small_array(sets=4, assoc=2)
        array.install(CacheLine(0x0, PrivState.S))
        array.install(CacheLine(0x4, PrivState.S))  # same set (4 sets)
        with pytest.raises(IndexError):
            array.install(CacheLine(0x8, PrivState.S))

    def test_remove_frees_way(self) -> None:
        array = small_array(sets=4, assoc=2)
        array.install(CacheLine(0x0, PrivState.S))
        array.install(CacheLine(0x4, PrivState.S))
        assert array.remove(0x0).line_addr == 0x0
        array.install(CacheLine(0x8, PrivState.S))  # fits again

    def test_remove_missing_returns_none(self) -> None:
        assert small_array().remove(0x99) is None


class TestVictimSelection:
    def test_no_eviction_needed_when_free_way(self) -> None:
        array = small_array()
        array.install(CacheLine(0x0, PrivState.S))
        assert array.evict_victim(0x4) is None

    def test_evicts_lru_line(self) -> None:
        array = small_array(sets=1, assoc=2)
        array.install(CacheLine(0x0, PrivState.S))
        array.install(CacheLine(0x1, PrivState.S))
        array.lookup(0x0)  # 0x1 becomes LRU
        victim = array.evict_victim(0x2)
        assert victim.line_addr == 0x1

    def test_sets_are_independent(self) -> None:
        array = small_array(sets=2, assoc=2)  # set = line_addr & 1
        for addr in (0x1, 0x0, 0x2, 0x3):
            array.install(CacheLine(addr, PrivState.S))
        # 0x1 is the oldest line overall, but it lives in set 1.
        assert array.evict_victim(0x4).line_addr == 0x0
        assert array.evict_victim(0x5).line_addr == 0x1

    def test_blocked_lines_are_protected(self) -> None:
        array = small_array(sets=1, assoc=2)
        blocked = CacheLine(0x0, PrivState.S)
        blocked.blocked = True
        free = CacheLine(0x1, PrivState.S)
        array.install(blocked)
        array.install(free)
        victim = array.evict_victim(
            0x2, evictable=lambda line: not line.blocked)
        assert victim.line_addr == 0x1

    def test_all_blocked_raises_lookup_error(self) -> None:
        array = small_array(sets=1, assoc=2)
        for addr in (0x0, 0x1):
            line = CacheLine(addr, PrivState.S)
            line.blocked = True
            array.install(line)
        with pytest.raises(LookupError):
            array.evict_victim(0x2, evictable=lambda line: not line.blocked)


class TestCapacityInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255),
                    min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addrs) -> None:
        """Random fill workload: evict-then-install never overflows."""
        array = small_array(sets=8, assoc=2)
        for addr in addrs:
            if array.lookup(addr) is not None:
                continue
            array.evict_victim(addr)
            array.install(CacheLine(addr, PrivState.S))
            assert array.occupancy() <= 16
        for line in array.resident_lines():
            assert array.lookup(line.line_addr, touch=False) is line

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63),
                    min_size=1, max_size=200))
    def test_most_recent_line_survives(self, addrs) -> None:
        """A line touched most recently is never the next victim."""
        array = small_array(sets=1, assoc=4)
        for addr in addrs:
            if array.lookup(addr) is None:
                array.evict_victim(addr)
                array.install(CacheLine(addr, PrivState.S))
            victim = array.evict_victim(9999) if (
                not array.has_free_way(9999)) else None
            if victim is not None:
                assert victim.line_addr != addr
                array.install(victim)  # put it back
