"""Tests for the statistics substrate."""

from __future__ import annotations

import pytest

from repro.common.stats import Histogram, StatGroup


class TestStatGroup:
    def test_inc_creates_and_accumulates(self) -> None:
        group = StatGroup("g")
        group.inc("hits")
        group.inc("hits", 4)
        assert group.get("hits") == 5

    def test_get_default(self) -> None:
        assert StatGroup("g").get("missing") == 0
        assert StatGroup("g").get("missing", -1) == -1

    def test_children_are_memoized(self) -> None:
        group = StatGroup("g")
        assert group.child("a") is group.child("a")

    def test_flatten_uses_dotted_paths(self) -> None:
        group = StatGroup("sys")
        group.inc("cycles", 10)
        group.child("l2").inc("hits", 3)
        flat = group.flatten()
        assert flat == {"sys.cycles": 10, "sys.l2.hits": 3}

    def test_merge_accumulates_recursively(self) -> None:
        a = StatGroup("x")
        a.child("c").inc("n", 1)
        b = StatGroup("x")
        b.child("c").inc("n", 2)
        b.inc("top", 5)
        a.merge(b)
        assert a.child("c").get("n") == 3
        assert a.get("top") == 5

    def test_walk_yields_all_groups(self) -> None:
        group = StatGroup("root")
        group.child("a").child("b")
        names = [name for name, _ in group.walk()]
        assert names == ["root", "root.a", "root.a.b"]


class TestHistogram:
    def test_mean(self) -> None:
        hist = Histogram(bucket_width=10)
        for value in (5, 15, 25):
            hist.record(value)
        assert hist.mean == pytest.approx(15.0)

    def test_overflow_bucket(self) -> None:
        hist = Histogram(bucket_width=1, num_buckets=4)
        hist.record(100)
        assert hist.overflow == 1
        assert hist.count == 1

    def test_percentile_monotonic(self) -> None:
        hist = Histogram(bucket_width=8)
        for value in range(100):
            hist.record(value)
        assert hist.percentile(0.5) <= hist.percentile(0.95)

    def test_percentile_empty(self) -> None:
        assert Histogram(4).percentile(0.9) == 0

    def test_rejects_bad_bucket_width(self) -> None:
        with pytest.raises(ValueError):
            Histogram(0)

    def test_rejects_bad_fraction(self) -> None:
        with pytest.raises(ValueError):
            Histogram(4).percentile(1.5)

    def test_negative_clamps_to_first_bucket(self) -> None:
        hist = Histogram(4)
        hist.record(-3)
        assert hist.buckets[0] == 1


class TestPacketLatencyHistogram:
    """The network's ``packet_latency`` histogram is complete whenever
    it is read: every ejected packet's sample is already in the tree,
    with no reporting call needed first."""

    @pytest.mark.parametrize("stop_at", [3000, None],
                             ids=["cut", "complete"])
    @pytest.mark.parametrize("engine", ["event", "array"])
    def test_count_matches_ejections(self, engine, stop_at) -> None:
        from repro.sim.config import bench_kwargs
        from repro.sim.runner import resolve_point
        from repro.sim.system import System
        from repro.workloads.registry import build_trace_buffers

        params, wl_kwargs = resolve_point(
            "cachebw", "ordpush", 16, engine=engine,
            **bench_kwargs(array_lines=256, iters=2))
        system = System(params)
        system.attach_workload(build_trace_buffers(
            "cachebw", num_cores=16, seed=1, **wl_kwargs))
        system.run(stop_at=stop_at)
        stats = system.network.stats
        ejected = stats.get("packets_ejected")
        assert ejected > 1024
        assert stats.histograms()["packet_latency"].count == ejected
