"""Private-cache push handling: drop rules, accounting, pause knob."""

from __future__ import annotations

from repro.common.messages import CoherenceMsg, MsgType
from repro.common.params import PushParams, SystemParams
from repro.cache.coherence import PrivState
from tests.harness import ControllerHarness, resident_line


def _harness(mode: str = "ordpush", **push_overrides) -> ControllerHarness:
    h = ControllerHarness(config=mode if mode != "custom" else "ordpush")
    if push_overrides:
        base = h.params.push
        fields = {name: getattr(base, name) for name in (
            "mode", "multicast", "network_filter", "dynamic_knob",
            "tpc_threshold", "time_window", "useful_ratio_log2",
            "counter_bits", "shadow_cycles")}
        fields.update(push_overrides)
        object.__setattr__(h.params, "push", PushParams(**fields))
    return h


def _push(line: int, payload: int = 0, ack: bool = False) -> CoherenceMsg:
    return CoherenceMsg(MsgType.PUSH, line, 0, (1,), payload=payload,
                        ack_required=ack)


def _data_s(line: int, payload: int = 0) -> CoherenceMsg:
    return CoherenceMsg(MsgType.DATA_S, line, 0, (1,), requester=1,
                        payload=payload)


class TestPushInstall:
    def test_unsolicited_push_installs_shared(self) -> None:
        h = _harness()
        cache = h.make_private()
        cache.deliver(_push(0x40))
        h.settle()
        line = resident_line(cache.l2, 0x40)
        assert line is not None
        assert line.state is PrivState.S
        assert line.pushed and not line.accessed
        assert cache.stats.get("push_installed") == 1

    def test_first_touch_counts_miss_to_hit(self) -> None:
        h = _harness()
        cache = h.make_private()
        cache.deliver(_push(0x40))
        h.settle()
        done = []
        cache.access(0x40 * 64, False, lambda: done.append(1))
        h.settle()
        assert done == [1]
        assert cache.stats.get("push_miss_to_hit") == 1
        assert cache.upc == 1

    def test_push_serving_outstanding_miss_is_early_resp(self) -> None:
        h = _harness()
        cache = h.make_private()
        done = []
        cache.access(0x40 * 64, False, lambda: done.append(1))
        h.settle()
        cache.deliver(_push(0x40))
        h.settle()
        assert done == [1]
        assert cache.stats.get("push_early_resp") == 1
        assert cache.upc == 1

    def test_ack_required_push_sends_push_ack(self) -> None:
        h = _harness(mode="pushack")
        cache = h.make_private()
        cache.deliver(_push(0x40, ack=True))
        h.settle()
        acks = h.take(MsgType.PUSH_ACK)
        assert len(acks) == 1 and acks[0].src == 1


class TestPushDrops:
    def test_redundant_push_dropped(self) -> None:
        h = _harness()
        cache = h.make_private()
        cache.deliver(_push(0x40))
        cache.deliver(_push(0x40))
        h.settle()
        assert cache.stats.get("push_redundancy_drop") == 1

    def test_push_conflicting_with_upgrade_dropped(self) -> None:
        h = _harness()
        cache = h.make_private()
        cache.access(0x40 * 64, True, None)  # GETM outstanding
        h.settle()
        cache.deliver(_push(0x40))
        h.settle()
        assert cache.stats.get("push_coherence_drop") == 1
        assert resident_line(cache.l2, 0x40) is None

    def test_stale_push_after_inv_dropped(self) -> None:
        h = _harness()
        cache = h.make_private()
        cache.deliver(CoherenceMsg(MsgType.INV, 0x40, 0, (1,), payload=5))
        h.settle()
        cache.deliver(_push(0x40, payload=3))
        h.settle()
        assert cache.stats.get("push_coherence_drop") == 1

    def test_deadlock_drop_when_set_blocked(self) -> None:
        h = ControllerHarness(config="ordpush", l2_kb=4, l1_kb=4)
        cache = h.make_private()
        assoc = h.params.l2.assoc
        num_sets = h.params.l2.num_sets
        # Fill set 0 entirely with lines pinned by in-flight upgrades.
        for i in range(assoc):
            line_addr = i * num_sets
            cache.access(line_addr * 64, False, None)
            h.settle()
            cache.deliver(_data_s(line_addr))
            h.settle()
            cache.access(line_addr * 64, True, None)  # pin via upgrade
            h.settle()
        h.take()
        pushed_line = assoc * num_sets  # maps to set 0 as well
        cache.deliver(_push(pushed_line))
        h.settle()
        assert cache.stats.get("push_deadlock_drop") == 1
        assert resident_line(cache.l2, pushed_line) is None

    def test_unused_push_counted_at_eviction(self) -> None:
        h = ControllerHarness(config="ordpush", l2_kb=4, l1_kb=4)
        cache = h.make_private()
        assoc = h.params.l2.assoc
        num_sets = h.params.l2.num_sets
        cache.deliver(_push(0))  # set 0, never accessed
        h.settle()
        for i in range(1, assoc + 1):
            cache.deliver(_push(i * num_sets))
            h.settle()
        assert cache.stats.get("push_unused") >= 1


class TestPauseKnob:
    def test_need_push_true_below_threshold(self) -> None:
        h = _harness(tpc_threshold=8)
        cache = h.make_private()
        for i in range(4):  # useless pushes, but below threshold
            cache.deliver(_push(0x100 + i))
        h.settle()
        cache.access(0x9000, False, None)
        h.settle()
        gets = h.take(MsgType.GETS)
        assert gets and gets[0].need_push

    def test_useless_pushes_pause(self) -> None:
        h = _harness(tpc_threshold=8)
        cache = h.make_private()
        for i in range(10):  # 10 pushes, none used
            cache.deliver(_push(0x100 + i))
        h.settle()
        cache.access(0x9000, False, None)
        h.settle()
        gets = h.take(MsgType.GETS)
        assert gets and not gets[0].need_push

    def test_useful_pushes_keep_pushing(self) -> None:
        h = _harness(tpc_threshold=8)
        cache = h.make_private()
        for i in range(10):
            cache.deliver(_push(0x100 + i))
            h.settle()
            cache.access((0x100 + i) * 64, False, None)  # use each push
            h.settle()
        cache.access(0x9000, False, None)
        h.settle()
        gets = h.take(MsgType.GETS)
        assert gets and gets[0].need_push

    def test_reset_flag_clears_counters(self) -> None:
        h = _harness(tpc_threshold=8)
        cache = h.make_private()
        for i in range(10):
            cache.deliver(_push(0x100 + i))
        h.settle()
        assert cache.tpc == 10
        cache.access(0xA000, False, None)
        h.settle()
        msg = CoherenceMsg(MsgType.DATA_S, 0xA000 // 64, 0, (1,),
                           requester=1, reset_push_counters=True)
        cache.deliver(msg)
        h.settle()
        assert cache.tpc == 0 and cache.upc == 0

    def test_counter_overflow_shifts_both(self) -> None:
        h = _harness(counter_bits=4, tpc_threshold=4)  # limit = 15
        cache = h.make_private()
        for i in range(15):
            cache.deliver(_push(0x200 + i))
            h.settle()
            if i % 2 == 0:
                cache.access((0x200 + i) * 64, False, None)
                h.settle()
        tpc_before, upc_before = cache.tpc, cache.upc
        cache.deliver(_push(0x300))
        h.settle()
        assert cache.tpc == (tpc_before >> 1) + 1
        assert cache.upc == upc_before >> 1

    def test_knob_disabled_always_needs_push(self) -> None:
        h = _harness(dynamic_knob=False, tpc_threshold=4)
        cache = h.make_private()
        for i in range(10):
            cache.deliver(_push(0x100 + i))
        h.settle()
        cache.access(0x9000, False, None)
        h.settle()
        gets = h.take(MsgType.GETS)
        assert gets and gets[0].need_push


class TestFilteredRequestAccounting:
    def test_note_request_filtered_marks_mshr(self) -> None:
        h = _harness()
        cache = h.make_private()
        cache.access(0x40 * 64, False, None)
        h.settle()
        cache.note_request_filtered(0x40)
        assert cache.mshrs.get(0x40).filtered
        cache.deliver(_push(0x40))
        h.settle()
        assert cache.stats.get("push_early_resp") == 1

    def test_stale_unicast_after_push_service_dropped(self) -> None:
        """LLC's P-state unicast arriving after the push served the
        miss must be ignored without protocol error."""
        h = _harness(mode="pushack")
        cache = h.make_private()
        cache.access(0x40 * 64, False, None)
        h.settle()
        cache.deliver(_push(0x40, ack=True))
        h.settle()
        cache.deliver(_data_s(0x40))
        h.settle()
        assert cache.stats.get("stale_responses_dropped") == 1
