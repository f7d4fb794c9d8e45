"""Sweep engine and result-cache tests."""

from __future__ import annotations

import json

from repro.sim.config import bench_kwargs
from repro.sim.results import SimResult
from repro.sim.runner import run_comparison, run_workload
from repro.sim.sweep import (
    ResultCache,
    SweepPoint,
    derive_seed,
    expand_seeds,
    point_key,
    run_point,
    run_sweep,
)
from repro.store import RESULT_SCHEMA_VERSION, Store
from repro.workloads import registry

#: one fast simulation point (~tens of milliseconds)
FAST = dict(num_cores=4, iters=4, **bench_kwargs())


def _points():
    return [SweepPoint.make("pathfinder", config, seed=seed, **FAST)
            for config in ("noprefetch", "ordpush") for seed in (1, 2)]


class TestSweepPoint:
    def test_kwargs_order_insensitive(self) -> None:
        a = SweepPoint.make("pathfinder", "baseline", iters=3, l2_kb=32)
        b = SweepPoint.make("pathfinder", "baseline", l2_kb=32, iters=3)
        assert a == b
        assert point_key(a) == point_key(b)

    def test_key_is_stable_string(self) -> None:
        key = point_key(SweepPoint.make("pathfinder", **FAST))
        assert isinstance(key, str) and len(key) == 64

    def test_key_is_pinned(self) -> None:
        """A fixed point's key is a constant: any change to what it
        hashes (params defaults, spec layout, the result schema) must
        be a deliberate schema bump, never a silent cache reset."""
        point = SweepPoint.make("pathfinder", "noprefetch", seed=1, **FAST)
        assert point_key(point) == (
            "d07a92853a9ed5e49797d74434d75e6b6a11c312e8634e9a9dc1b5921294ef06")

    def test_trace_and_warm_image_keys_are_pinned(self) -> None:
        """The trace key keeps its spec byte for byte: every warm-image
        key hashes it, so a change would orphan every stored image."""
        from repro.cpu.tracebuf import trace_key
        from repro.sim.checkpoint import checkpoint_key
        from repro.sim.config import make_params

        assert trace_key("mv", 8, 3, {"rows_per_core": 4}) == (
            "fd0f472b6614f8d7214e767f9de5642e0192b2b91a32124d8717e3893b5a56f0")
        params = make_params("ordpush", num_cores=4, **bench_kwargs())
        assert checkpoint_key(params, "pathfinder", 4, 1, {"iters": 4}, 2,
                              "functional") == (
            "6d7f08c3458b55bb2305036329301a0d81c29cc10e98c43bf3a33cd273afb944")

    def test_key_changes_with_seed_and_workload(self) -> None:
        base = SweepPoint.make("pathfinder", seed=1, **FAST)
        other_seed = SweepPoint.make("pathfinder", seed=2, **FAST)
        assert point_key(base) != point_key(other_seed)

    def test_derive_seed_deterministic_and_distinct(self) -> None:
        seeds = [derive_seed(1, i) for i in range(16)]
        assert seeds == [derive_seed(1, i) for i in range(16)]
        assert len(set(seeds)) == 16
        assert all(s >= 1 for s in seeds)

    def test_expand_seeds(self) -> None:
        point = SweepPoint.make("pathfinder", **FAST)
        expanded = expand_seeds(point, 3)
        assert len({p.seed for p in expanded}) == 3
        assert all(p.workload == "pathfinder" for p in expanded)


class TestRunSweep:
    def test_submission_order_preserved(self) -> None:
        points = _points()
        results = run_sweep(points)
        assert [(r.workload, r.config) for r in results] == [
            (p.workload, p.config) for p in points]

    def test_parallel_bit_identical_to_serial(self, many_cpus) -> None:
        """jobs=4 must reproduce serial results exactly (acceptance).

        ``many_cpus`` forces a real 4-worker pool even on a small
        machine, where the executor would otherwise run in-process.
        """
        points = _points()
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=4)
        assert [r.to_dict() for r in parallel] == [
            r.to_dict() for r in serial]

    def test_matches_run_workload(self) -> None:
        point = SweepPoint.make("pathfinder", "noprefetch", **FAST)
        direct = run_workload("pathfinder", "noprefetch", **FAST)
        assert run_sweep([point])[0].to_dict() == direct.to_dict()

    def test_duplicate_points_simulated_once(self, tmp_path) -> None:
        point = SweepPoint.make("pathfinder", "noprefetch", **FAST)
        cache = ResultCache(tmp_path)
        results = run_sweep([point, point, point], cache=cache)
        assert len(results) == 3
        assert cache.misses >= 1
        assert len(list(tmp_path.glob("index/results/*.json"))) == 1
        assert results[0].to_dict() == results[2].to_dict()

    def test_accepts_dict_points(self) -> None:
        results = run_sweep([dict(workload="pathfinder",
                                  config="noprefetch", **FAST)])
        assert results[0].config == "noprefetch"


class TestResultCache:
    def test_miss_then_hit_identical(self, tmp_path) -> None:
        """Re-running an unchanged point hits and round-trips exactly."""
        cache = ResultCache(tmp_path)
        point = SweepPoint.make("pathfinder", "noprefetch", **FAST)
        first = run_point(point, cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        second = run_point(point, cache=cache)
        assert cache.hits == 1
        assert second.to_dict() == first.to_dict()

    def test_params_mutation_busts_cache(self, tmp_path) -> None:
        """Changing one SystemParams field must be a miss (acceptance)."""
        cache = ResultCache(tmp_path)
        base = SweepPoint.make("pathfinder", "ordpush", **FAST)
        mutated = SweepPoint.make("pathfinder", "ordpush",
                                  **{**FAST, "tpc_threshold": 8})
        assert point_key(base) != point_key(mutated)
        run_point(base, cache=cache)
        run_point(mutated, cache=cache)
        assert cache.misses == 2 and cache.hits == 0
        # ...and the unchanged point still hits afterwards.
        run_point(base, cache=cache)
        assert cache.hits == 1

    def test_workload_size_change_busts_cache(self) -> None:
        a = SweepPoint.make("pathfinder", iters=4, **bench_kwargs())
        b = SweepPoint.make("pathfinder", iters=5, **bench_kwargs())
        assert point_key(a) != point_key(b)

    def test_corrupt_entry_is_a_miss(self, tmp_path) -> None:
        cache = ResultCache(tmp_path)
        point = SweepPoint.make("pathfinder", "noprefetch", **FAST)
        key = point_key(point)
        run_point(point, cache=cache)
        entry = Store(tmp_path).entry_path("results", key)
        entry.write_text("{not json", encoding="utf-8")
        result = run_point(point, cache=cache)
        assert result.cycles > 0
        # the corrupt file was rewritten with a valid record
        assert json.loads(entry.read_text())

    def test_clear_removes_entries(self, tmp_path) -> None:
        cache = ResultCache(tmp_path)
        run_point(SweepPoint.make("pathfinder", "noprefetch", **FAST),
                  cache=cache)
        assert cache.clear() == 1
        assert not list(tmp_path.glob("index/results/*.json"))

    def test_put_round_trips_simresult(self, tmp_path) -> None:
        cache = ResultCache(tmp_path)
        result = run_workload("pathfinder", "noprefetch", **FAST)
        cache.put("k" * 64, result)
        loaded = cache.get("k" * 64)
        assert isinstance(loaded, SimResult)
        assert loaded.to_dict() == result.to_dict()


class TestTraceSharing:
    def test_schema_version_bumped_for_warmup_keys(self) -> None:
        """v5 added the NoC engine selector, v6 the measurement-window
        fields (sampled regions), v7 the detach window."""
        assert RESULT_SCHEMA_VERSION == 7

    def test_sweep_builds_each_trace_once(self, tmp_path,
                                          monkeypatch) -> None:
        """Two configs at one point compile one trace (acceptance)."""
        from repro.cpu.tracebuf import TraceCache

        store = TraceCache(tmp_path)
        monkeypatch.setattr(registry, "TRACE_CACHE", store)
        points = [SweepPoint.make("pathfinder", config, seed=777, **FAST)
                  for config in ("noprefetch", "ordpush", "baseline")]
        run_sweep(points, jobs=1)
        assert store.builds == 1
        assert store.memo_hits == len(points) - 1

    def test_parallel_workers_share_trace_via_disk(self, tmp_path,
                                                   monkeypatch,
                                                   many_cpus) -> None:
        """Worker processes reuse the on-disk buffers where available;
        results stay bit-identical either way."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        points = [SweepPoint.make("pathfinder", config, seed=778, **FAST)
                  for config in ("noprefetch", "ordpush")]
        serial = run_sweep(points, jobs=1)
        assert list(tmp_path.glob("index/traces/*.json"))
        parallel = run_sweep(points, jobs=2)
        assert [r.to_dict() for r in parallel] == [
            r.to_dict() for r in serial]


class TestRunComparisonRewired:
    def test_comparison_uses_sweep(self, tmp_path) -> None:
        cache = ResultCache(tmp_path)
        serial = run_comparison("pathfinder", ["noprefetch", "ordpush"],
                                **FAST)
        cached = run_comparison("pathfinder", ["noprefetch", "ordpush"],
                                jobs=2, cache=cache, **FAST)
        assert set(serial) == set(cached)
        for config in serial:
            assert serial[config].to_dict() == cached[config].to_dict()
        # the second call is served entirely from the cache
        cache.hits = cache.misses = 0
        run_comparison("pathfinder", ["noprefetch", "ordpush"],
                       cache=cache, **FAST)
        assert cache.misses == 0 and cache.hits == 2
