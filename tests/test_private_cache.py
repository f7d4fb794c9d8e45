"""Private cache (L1D + L2) protocol unit tests."""

from __future__ import annotations

import pytest

from repro.common.errors import ProtocolError
from repro.common.messages import CoherenceMsg, MsgType
from repro.cache.coherence import PrivState
from tests.harness import ControllerHarness, resident_line


def _data_s(line: int, dest: int, payload: int = 0,
            reset: bool = False) -> CoherenceMsg:
    return CoherenceMsg(MsgType.DATA_S, line, 0, (dest,), requester=dest,
                        payload=payload, reset_push_counters=reset)


def _data_e(line: int, dest: int, payload: int = 1) -> CoherenceMsg:
    return CoherenceMsg(MsgType.DATA_E, line, 0, (dest,), requester=dest,
                        payload=payload)


def _push(line: int, dest: int, payload: int = 0,
          ack: bool = False) -> CoherenceMsg:
    return CoherenceMsg(MsgType.PUSH, line, 0, (dest,), payload=payload,
                        ack_required=ack)


def _inv(line: int, payload: int = 1) -> CoherenceMsg:
    return CoherenceMsg(MsgType.INV, line, 0, (1,), payload=payload)


class TestReadPath:
    def test_cold_read_sends_gets(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        done = []
        cache.access(0x1000, False, lambda: done.append(1))
        h.settle()
        requests = h.take(MsgType.GETS)
        assert len(requests) == 1
        assert requests[0].line_addr == 0x1000 // 64
        assert not done

    def test_data_s_completes_and_installs(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        done = []
        cache.access(0x1000, False, lambda: done.append(1))
        h.settle()
        cache.deliver(_data_s(0x1000 // 64, 1))
        h.settle()
        assert done == [1]
        line = resident_line(cache.l2, 0x1000 // 64)
        assert line is not None and line.state is PrivState.S

    def test_second_access_hits(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        cache.access(0x1000, False, None)
        h.settle()
        cache.deliver(_data_s(0x1000 // 64, 1))
        h.settle()
        h.take()
        done = []
        cache.access(0x1000, False, lambda: done.append(1))
        h.settle()
        assert done == [1]
        assert h.take(MsgType.GETS) == []

    def test_secondary_miss_merges_into_mshr(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        done = []
        cache.access(0x1000, False, lambda: done.append("a"))
        cache.access(0x1008, False, lambda: done.append("b"))  # same line
        h.settle()
        assert len(h.take(MsgType.GETS)) == 1
        cache.deliver(_data_s(0x1000 // 64, 1))
        h.settle()
        assert sorted(done) == ["a", "b"]

    def test_data_e_installs_exclusive(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        cache.access(0x1000, False, None)
        h.settle()
        cache.deliver(_data_e(0x1000 // 64, 1))
        h.settle()
        line = resident_line(cache.l2, 0x1000 // 64)
        assert line.state is PrivState.E


class TestWritePath:
    def test_cold_write_sends_getm(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        cache.access(0x2000, True, None)
        h.settle()
        assert len(h.take(MsgType.GETM)) == 1

    def test_write_grant_installs_modified(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        cache.access(0x2000, True, None)
        h.settle()
        cache.deliver(_data_e(0x2000 // 64, 1, payload=7))
        h.settle()
        line = resident_line(cache.l2, 0x2000 // 64)
        assert line.state is PrivState.M and line.dirty
        assert line.payload == 7

    def test_write_to_shared_line_upgrades(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x3000 // 64
        cache.access(0x3000, False, None)
        h.settle()
        cache.deliver(_data_s(line_addr, 1))
        h.settle()
        h.take()
        cache.access(0x3000, True, None)
        h.settle()
        upgrades = h.take(MsgType.GETM)
        assert len(upgrades) == 1
        # The S copy is pinned during the upgrade.
        assert resident_line(cache.l2, line_addr).blocked
        cache.deliver(_data_e(line_addr, 1, payload=3))
        h.settle()
        line = resident_line(cache.l2, line_addr)
        assert line.state is PrivState.M and not line.blocked

    def test_write_to_exclusive_is_silent(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        cache.access(0x2000, False, None)
        h.settle()
        cache.deliver(_data_e(0x2000 // 64, 1))
        h.settle()
        h.take()
        cache.access(0x2000, True, None)
        h.settle()
        assert h.take() == []
        assert resident_line(cache.l2, 0x2000 // 64).state is PrivState.M


class TestEviction:
    def test_dirty_eviction_sends_putm(self) -> None:
        h = ControllerHarness(l2_kb=4, l1_kb=4)  # 64-line L2, 4-way sets
        cache = h.make_private()
        assoc = h.params.l2.assoc
        num_sets = h.params.l2.num_sets
        # Fill one set with dirty lines, then one more to force eviction.
        for i in range(assoc + 1):
            line_addr = i * num_sets  # all map to set 0
            cache.access(line_addr * 64, True, None)
            h.settle()
            cache.deliver(_data_e(line_addr, 1, payload=i + 1))
            h.settle()
        putm = h.take(MsgType.PUTM)
        assert len(putm) == 1

    def test_clean_eviction_is_silent(self) -> None:
        h = ControllerHarness(l2_kb=4, l1_kb=4)
        cache = h.make_private()
        assoc = h.params.l2.assoc
        num_sets = h.params.l2.num_sets
        for i in range(assoc + 1):
            line_addr = i * num_sets
            cache.access(line_addr * 64, False, None)
            h.settle()
            cache.deliver(_data_s(line_addr, 1))
            h.settle()
        h.take(MsgType.GETS)
        assert h.take() == []  # no PUTM, no other traffic


class TestInvalidation:
    def test_inv_clean_line_acks(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x4000 // 64
        cache.access(0x4000, False, None)
        h.settle()
        cache.deliver(_data_s(line_addr, 1))
        h.settle()
        h.take()
        cache.deliver(_inv(line_addr))
        h.settle()
        assert len(h.take(MsgType.INV_ACK)) == 1
        assert resident_line(cache.l2, line_addr) is None

    def test_inv_dirty_line_writes_back(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x4000 // 64
        cache.access(0x4000, True, None)
        h.settle()
        cache.deliver(_data_e(line_addr, 1, payload=2))
        h.settle()
        h.take()
        cache.deliver(_inv(line_addr, payload=3))
        h.settle()
        putm = h.take(MsgType.PUTM)
        assert len(putm) == 1 and putm[0].payload == 2
        assert h.take(MsgType.INV_ACK) == []

    def test_inv_on_miss_still_acks(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        cache.deliver(_inv(0x50))
        h.settle()
        assert len(h.take(MsgType.INV_ACK)) == 1

    def test_inv_racing_fill_serves_then_discards(self) -> None:
        """INV overtaking DATA_S: the read is served (it was ordered
        before the write) but the dead line is not installed."""
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x5000 // 64
        done = []
        cache.access(0x5000, False, lambda: done.append(1))
        h.settle()
        cache.deliver(_inv(line_addr, payload=9))   # overtakes the data
        h.settle()
        cache.deliver(_data_s(line_addr, 1, payload=0))
        h.settle()
        assert done == [1]
        assert resident_line(cache.l2, line_addr) is None

    def test_inv_during_upgrade_clears_s_copy(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x6000 // 64
        cache.access(0x6000, False, None)
        h.settle()
        cache.deliver(_data_s(line_addr, 1))
        h.settle()
        cache.access(0x6000, True, None)  # upgrade in flight
        h.settle()
        h.take()
        cache.deliver(_inv(line_addr, payload=5))
        h.settle()
        assert len(h.take(MsgType.INV_ACK)) == 1
        assert resident_line(cache.l2, line_addr) is None
        # The later grant installs fresh data without protocol error.
        cache.deliver(_data_e(line_addr, 1, payload=6))
        h.settle()
        assert resident_line(cache.l2, line_addr).state is PrivState.M


class TestDowngrade:
    def test_downgrade_dirty_owner_writes_back_and_keeps_s(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x7000 // 64
        cache.access(0x7000, True, None)
        h.settle()
        cache.deliver(_data_e(line_addr, 1, payload=4))
        h.settle()
        h.take()
        cache.deliver(CoherenceMsg(MsgType.DOWNGRADE, line_addr, 0, (1,)))
        h.settle()
        assert len(h.take(MsgType.PUTM)) == 1
        line = resident_line(cache.l2, line_addr)
        assert line.state is PrivState.S and not line.dirty

    def test_downgrade_clean_owner_acks(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x7000 // 64
        cache.access(0x7000, False, None)
        h.settle()
        cache.deliver(_data_e(line_addr, 1))
        h.settle()
        h.take()
        cache.deliver(CoherenceMsg(MsgType.DOWNGRADE, line_addr, 0, (1,)))
        h.settle()
        assert len(h.take(MsgType.INV_ACK)) == 1

    def test_downgrade_after_silent_eviction_acks(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        cache.deliver(CoherenceMsg(MsgType.DOWNGRADE, 0x99, 0, (1,)))
        h.settle()
        assert len(h.take(MsgType.INV_ACK)) == 1


class TestDataValueInvariant:
    def test_stale_install_raises(self) -> None:
        h = ControllerHarness()
        cache = h.make_private()
        line_addr = 0x8000 // 64
        cache.deliver(_inv(line_addr, payload=5))
        h.settle()
        h.take()
        done = []
        cache.access(0x8000, False, lambda: done.append(1))
        h.settle()
        with pytest.raises(ProtocolError):
            cache.deliver(_data_s(line_addr, 1, payload=3))
