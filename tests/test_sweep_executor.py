"""Executor-level sweep tests: scheduling, memos, resume, progress.

The scheduling/affinity machinery must be invisible in the results —
every test here ultimately checks either bit-identity with the naive
serial path or a resource-usage claim (what executed, what was read
from a memo, what survived a crash).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.cli import build_parser
from repro.sim import sweep
from repro.sim.config import bench_kwargs
from repro.sim.sampling import SamplingPolicy, run_sampled_grid
from repro.sim.sweep import (
    _CHUNK_CAP,
    ResultCache,
    SweepPoint,
    _effective_workers,
    _plan,
    _warm_checkpoint_key,
    last_sweep_stats,
    point_key,
    reset_worker_memo,
    resolve_jobs,
    run_sweep,
)
from repro.sim.system import System
from repro.store import Store

#: one fast simulation point (~tens of milliseconds)
FAST = dict(num_cores=4, iters=4, **bench_kwargs())


def _points(seed0: int = 1):
    return [SweepPoint.make("pathfinder", config, seed=seed, **FAST)
            for config in ("noprefetch", "ordpush")
            for seed in (seed0, seed0 + 1)]


def _warm_points(seed: int = 1):
    """Six checkpointed points sharing two warm images (one per scheme;
    functional warming drops the NoC knobs from the checkpoint key, so
    the three topologies of a scheme share one image)."""
    sizes = dict(array_lines=256, iters=2, **bench_kwargs())
    return [SweepPoint.make("cachebw", scheme, num_cores=4, seed=seed,
                            topology=topology, warmup_barriers=1,
                            warmup_mode="functional", **sizes)
            for scheme in ("baseline", "ordpush")
            for topology in ("mesh", "torus", "cmesh")]


class TestJobsResolution:
    def test_zero_and_none_mean_cpu_count(self) -> None:
        assert resolve_jobs(0) == os.cpu_count()
        assert resolve_jobs(None) == os.cpu_count()
        assert resolve_jobs(3) == 3

    def test_workers_capped_by_cpus_and_tasks(self) -> None:
        cpus = os.cpu_count() or 1
        assert _effective_workers(cpus + 7, tasks=1000) == cpus
        assert _effective_workers(8, tasks=2) <= 2
        assert _effective_workers(1, tasks=0) == 1

    def test_exact_jobs_lifts_cpu_cap(self, many_cpus) -> None:
        """The requested count is honoured exactly once the machine
        has the CPUs for it, and the cap sits at the CPU count."""
        assert _effective_workers(4, tasks=8) == 4
        assert _effective_workers(many_cpus + 1, tasks=64) == many_cpus

    def test_cli_accepts_auto(self) -> None:
        parser = build_parser()
        args = parser.parse_args(["sweep", "pathfinder", "--jobs", "auto"])
        assert args.jobs == 0
        args = parser.parse_args(["sweep", "pathfinder", "--jobs", "2"])
        assert args.jobs == 2

    def test_run_sweep_jobs_auto(self) -> None:
        results = run_sweep([SweepPoint.make("pathfinder", "noprefetch",
                                             **FAST)], jobs=0)
        assert results[0].cycles > 0
        assert last_sweep_stats()["workers"] >= 1


class TestProgress:
    def test_run_then_hit_event_stream(self, tmp_path) -> None:
        cache = ResultCache(tmp_path)
        points = _points(seed0=31)
        events = []
        run_sweep(points, cache=cache, progress=events.append)
        assert [e["status"] for e in events] == ["run"] * len(points)
        assert [e["done"] for e in events] == [1, 2, 3, 4]
        assert all(e["total"] == len(points) for e in events)
        assert all(e["wall"] >= 0 for e in events)
        # ETA extrapolates the mean wall of the points run so far over
        # the points left: never negative, and zero once none are left.
        assert all(e["eta"] >= 0 for e in events)
        assert events[-1]["eta"] == 0.0

        events.clear()
        run_sweep(points, cache=cache, progress=events.append)
        assert [e["status"] for e in events] == ["hit"] * len(points)
        assert all(e["wall"] is None for e in events)

    def test_duplicates_reported_once(self, tmp_path) -> None:
        point = SweepPoint.make("pathfinder", "noprefetch", seed=37, **FAST)
        events = []
        run_sweep([point, point, point], cache=ResultCache(tmp_path),
                  progress=events.append)
        assert len(events) == 1
        assert events[0]["total"] == 1

    def test_hit_eta_counts_pending_work_only(self, tmp_path) -> None:
        """Cache hits cost nothing and are announced before anything
        runs: hit events read 0.0 on a fully warm sweep and None
        (unknown) while cold points are still pending."""
        cache = ResultCache(tmp_path)
        warm = _points(seed0=38)
        run_sweep(warm, cache=cache)

        events = []
        run_sweep(warm, cache=cache, progress=events.append)
        assert [e["status"] for e in events] == ["hit"] * len(warm)
        assert all(e["eta"] == 0.0 for e in events)

        # Half warm, half cold: no point has run yet when the hits are
        # announced, so their ETA is unknown.
        cold = [SweepPoint.make("pathfinder", config, seed=40, **FAST)
                for config in ("noprefetch", "ordpush")]
        events.clear()
        run_sweep(warm + cold, cache=cache, progress=events.append)
        hits = [e for e in events if e["status"] == "hit"]
        runs = [e for e in events if e["status"] == "run"]
        assert len(hits) == len(warm) and len(runs) == len(cold)
        assert all(e["eta"] is None for e in hits)
        assert runs[-1]["eta"] == 0.0


class TestPhaseTimings:
    KEYS = ("probe", "plan", "build", "dispatch", "commit")

    def test_executed_sweep_reports_all_phases(self, tmp_path,
                                               monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_sweep(_points(seed0=43), cache=ResultCache(tmp_path / "r"))
        timings = last_sweep_stats()["timings"]
        assert set(timings) == set(self.KEYS)
        assert all(t >= 0.0 for t in timings.values())
        # executing points necessarily spends planning/dispatch/commit
        assert timings["plan"] > 0.0
        assert timings["dispatch"] > 0.0
        assert timings["commit"] > 0.0

    def test_warm_build_time_is_attributed(self, tmp_path, monkeypatch,
                                           many_cpus) -> None:
        """Build time only exists as its own phase when warm images
        become explicit build tasks — i.e. when a warm group splits
        across workers (a single worker warms inline while simulating,
        which lands in dispatch, not build)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_sweep(_warm_points(seed=44), jobs=4, cache=False)
        stats = last_sweep_stats()
        assert stats["builds"] == 2
        assert stats["timings"]["build"] > 0.0

    def test_all_hit_sweep_only_probes(self, tmp_path) -> None:
        cache = ResultCache(tmp_path)
        points = _points(seed0=45)
        run_sweep(points, cache=cache)
        run_sweep(points, cache=cache)
        timings = last_sweep_stats()["timings"]
        assert timings["probe"] > 0.0
        for phase in ("plan", "build", "dispatch", "commit"):
            assert timings[phase] == 0.0


class TestDuplicateFanBack:
    def test_duplicates_under_real_pool(self, tmp_path, many_cpus) -> None:
        """jobs>1 simulates duplicate submissions once and fans the
        result back to every slot (acceptance)."""
        point = SweepPoint.make("pathfinder", "noprefetch", seed=41, **FAST)
        other = SweepPoint.make("pathfinder", "ordpush", seed=41, **FAST)
        cache = ResultCache(tmp_path)
        results = run_sweep([point, other, point, point, other],
                            jobs=2, cache=cache)
        assert len(results) == 5
        stats = last_sweep_stats()
        assert stats["points"] == 5
        assert stats["unique"] == 2
        assert stats["executed"] == 2
        assert stats["workers"] == 2
        assert len(list(tmp_path.glob("index/results/*.json"))) == 2
        assert results[0].to_dict() == results[2].to_dict()
        assert results[0].to_dict() == results[3].to_dict()
        assert results[1].to_dict() == results[4].to_dict()


class TestWorkerLifetime:
    """A parallel sweep owns its worker processes for exactly its own
    duration, and reports their CPU seconds in its ledger."""

    def test_in_process_ledger(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_sweep(_points(seed0=71), jobs=1, cache=False)
        stats = last_sweep_stats()
        assert stats["worker_cpu_s"] == 0.0
        assert stats["worker_peak_rss_mb"] == 0.0
        assert stats["parent_cpu_s"] > 0.0

    def test_pool_ledger_and_no_workers_left(self, tmp_path, monkeypatch,
                                             many_cpus) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_sweep(_points(seed0=72), jobs=2, cache=False)
        stats = last_sweep_stats()
        assert stats["workers"] == 2
        assert stats["worker_cpu_s"] > 0.0
        assert stats["parent_cpu_s"] > 0.0
        # an interpreter with the simulator loaded takes megabytes; a
        # unit slip (KB vs bytes) would read 1024x off either way
        assert 5.0 < stats["worker_peak_rss_mb"] < 10_000.0
        assert multiprocessing.active_children() == []

    def test_no_workers_left_after_a_failing_sweep(
            self, tmp_path, monkeypatch, many_cpus) -> None:
        """A worker-side failure re-raises in the parent after the
        pool is gone."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        bad = SweepPoint.make("pathfinder", "noprefetch", seed=73,
                              measure_cycles=100, **FAST)
        with pytest.raises(ValueError, match="measure_cycles requires"):
            run_sweep([bad] + _points(seed0=73), jobs=2, cache=False)
        assert multiprocessing.active_children() == []

    def test_each_cache_root_gets_its_own_writes(
            self, tmp_path, monkeypatch, many_cpus) -> None:
        """Workers write warm images and traces where the parent's
        ``REPRO_CACHE_DIR`` points at the time of the sweep, so two
        sweeps under two roots fill both roots alike."""
        points = _warm_points(seed=74)
        counts = []
        for name in ("a", "b"):
            root = tmp_path / name
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            run_sweep(points, jobs=2, cache=True)
            counts.append({ns: len(list(root.glob(f"index/{ns}/*.json")))
                           for ns in ("results", "ckpt", "traces")})
        assert counts[0] == counts[1]
        assert counts[0]["results"] == len(points)
        assert counts[0]["ckpt"] == 2
        assert counts[0]["traces"] > 0


class TestCrashResume:
    def test_resume_runs_only_missing_points(self, tmp_path) -> None:
        """Kill a sweep after two commits; the re-run must hit those
        two and execute only the remaining points (acceptance)."""
        script = textwrap.dedent("""
            import os, signal
            from repro.sim.config import bench_kwargs
            from repro.sim.sweep import SweepPoint, run_sweep
            FAST = dict(num_cores=4, iters=4, **bench_kwargs())
            points = [SweepPoint.make("pathfinder", config, seed=seed,
                                      **FAST)
                      for config in ("noprefetch", "ordpush")
                      for seed in (51, 52)]
            def progress(event):
                if event["done"] == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            run_sweep(points, jobs=1, cache=True, progress=progress)
            raise SystemExit("sweep survived the kill")
        """)
        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        committed = list(tmp_path.glob("index/results/*.json"))
        assert len(committed) == 2
        # every committed entry is a complete, parseable record
        for path in committed:
            assert json.loads(path.read_text())["digest"]

        points = [SweepPoint.make("pathfinder", config, seed=seed, **FAST)
                  for config in ("noprefetch", "ordpush")
                  for seed in (51, 52)]
        cache = ResultCache(tmp_path)
        results = run_sweep(points, cache=cache)
        assert (cache.hits, cache.misses) == (2, 2)
        assert last_sweep_stats()["executed"] == 2
        assert all(r.cycles > 0 for r in results)
        assert len(list(tmp_path.glob("index/results/*.json"))) == 4


class TestWarmAffinityMemo:
    def test_memo_serves_shared_images(self, tmp_path,
                                       monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_worker_memo()
        run_sweep(_warm_points(seed=61), jobs=1, cache=False)
        # 6 points, 2 warm images: each image is parsed once and the
        # other two restores of its group come from the memo.
        assert last_sweep_stats()["ckpt_memo_hits"] == 4

    def test_bit_identical_with_memo_off(self, tmp_path,
                                         monkeypatch) -> None:
        """The memo only short-circuits reads of immutable snapshots;
        forcing it off must not change a bit (acceptance)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_worker_memo()
        points = _warm_points(seed=62)
        with_memo = run_sweep(points, jobs=1, cache=False)
        assert last_sweep_stats()["ckpt_memo_hits"] > 0
        monkeypatch.setattr(sweep, "_worker_ckpt_store", lambda: None)
        without = run_sweep(points, jobs=1, cache=False)
        assert last_sweep_stats()["ckpt_memo_hits"] == 0
        assert [r.to_dict() for r in without] == [
            r.to_dict() for r in with_memo]


class TestDependencyPlanning:
    def _pending(self, points):
        return [(point_key(p), p) for p in points]

    def test_single_worker_never_splits_or_builds(self, tmp_path,
                                                  monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        pending = self._pending(_warm_points(seed=63))
        builds, chunks = _plan(pending, workers=1)
        assert builds == {}
        # one chunk per warm image: the whole group stays on one
        # worker and is served from its memo
        assert len(chunks) == 2
        planned = [item for _, items in chunks for item in items]
        assert sorted(key for key, _ in planned) == sorted(
            key for key, _ in pending)

    def test_split_groups_gate_on_a_build_task(self, tmp_path,
                                               monkeypatch) -> None:
        """A missing warm image spread across workers becomes its own
        task; every chunk of that group depends on it (acceptance:
        a point never runs before its warm build)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        points = _warm_points(seed=64)
        pending = self._pending(points)
        builds, chunks = _plan(pending, workers=4)
        warm_keys = {_warm_checkpoint_key(p) for p in points}
        assert set(builds) == warm_keys
        assert all(warm in builds for warm, _ in chunks)
        assert len(chunks) > len(warm_keys)  # groups actually split
        planned = [item for _, items in chunks for item in items]
        assert len(planned) == len(pending)

    def test_no_build_task_when_image_already_stored(self, tmp_path,
                                                     monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        points = _warm_points(seed=65)
        # materialize both warm images first
        run_sweep(points, jobs=1, cache=False)
        builds, _ = _plan(self._pending(points), workers=4)
        assert builds == {}

    def test_cold_points_are_never_gated(self) -> None:
        builds, chunks = _plan(self._pending(_points(seed0=66)), workers=4)
        assert builds == {}
        assert all(warm is None for warm, _ in chunks)

    def test_chunks_by_count_in_submission_order(self, tmp_path,
                                                 monkeypatch) -> None:
        """Chunks keep submission order; one worker's 20-point group on
        a single image splits at the cap into 16 + 4 and gets exactly
        one build (planning only — nothing is simulated)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (image,) = {_warm_checkpoint_key(p) for p in _warm_points(seed=68)
                    if p.config == "baseline"}
        group = [SweepPoint.make("cachebw", "baseline", num_cores=4,
                                 seed=68, topology=topology,
                                 warmup_barriers=1, warmup_mode="functional",
                                 array_lines=256, iters=2,
                                 max_cycles=1_000_000 + extra,
                                 **bench_kwargs())
                 for extra in range(10) for topology in ("mesh", "torus")]
        assert {_warm_checkpoint_key(p) for p in group} == {image}
        pending = self._pending(_points(seed0=68) + group)
        builds, chunks = _plan(pending, workers=1)
        assert [item for _, items in chunks for item in items] == pending
        warm_chunks = [items for warm, items in chunks if warm is not None]
        assert [len(items) for items in warm_chunks] == [_CHUNK_CAP, 4]
        assert set(builds) == {image}

    def test_parallel_warm_sweep_bit_identical(self, tmp_path, monkeypatch,
                                               many_cpus) -> None:
        """End to end: a 4-worker warm sweep splits both groups across
        workers, so each image becomes a build task gating its chunks;
        results equal serial exactly and each image was built once."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        points = _warm_points(seed=67)
        parallel = run_sweep(points, jobs=4, cache=False)
        assert last_sweep_stats()["builds"] == 2
        assert len(list(tmp_path.glob("index/ckpt/*.json"))) == 2
        serial = run_sweep(points, jobs=1, cache=False)
        assert [r.to_dict() for r in parallel] == [
            r.to_dict() for r in serial]

    def test_array_point_plans_the_stored_event_image(
            self, tmp_path, monkeypatch) -> None:
        """Warm images are built and keyed on the event engine: an
        ``engine="array"`` detailed point keys to the image a run stores
        for it, shares one warm group with its event twin, and plans no
        build once that image exists."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        array, event = (SweepPoint.make(
            "cachebw", "ordpush", num_cores=4, seed=69, engine=engine,
            warmup_barriers=2, array_lines=256, iters=2, **bench_kwargs())
            for engine in ("array", "event"))
        run_sweep([array], jobs=1, cache=False)
        (stored,) = (key for key, _ in Store(tmp_path).entries("ckpt"))
        assert _warm_checkpoint_key(array) == stored
        assert _warm_checkpoint_key(event) == stored
        builds, chunks = _plan(self._pending([array, event]), workers=4)
        assert builds == {}
        assert len(chunks) == 2  # one group, split across two workers


class TestChainBuilds:
    """The planner schedules every sampled chain as one build task."""

    POLICY = SamplingPolicy(samples=3, sample_cycles=500,
                            warmup_mode="functional")

    @staticmethod
    def _grid():
        sizes = dict(iters=5, array_lines=256, l2_kb=8, l1_kb=8)
        return [SweepPoint.make("cachebw", "baseline", num_cores=4,
                                topology=topology, **sizes)
                for topology in ("mesh", "torus")]

    def test_one_build_per_shared_chain(self, tmp_path,
                                        monkeypatch) -> None:
        """Functional anchors ignore the fabric, so mesh and torus share
        one chain: one task builds its three anchors in one warm pass,
        and a second grid on the same store builds nothing."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        holds = []
        quiesce = System.run_to_quiesce

        def counted(system, barriers, **kwargs):
            holds.append(barriers)
            return quiesce(system, barriers, **kwargs)

        monkeypatch.setattr(System, "run_to_quiesce", counted)
        first = run_sampled_grid(self._grid(), self.POLICY, jobs=1)
        assert last_sweep_stats()["builds"] == 1
        assert holds == [1, 2, 3]
        again = run_sampled_grid(self._grid(), self.POLICY, jobs=1)
        assert last_sweep_stats()["builds"] == 0
        assert holds == [1, 2, 3]
        assert [s.to_dict() for s in again] == [s.to_dict() for s in first]

    def test_parallel_sampled_grid_bit_identical(
            self, tmp_path, monkeypatch, many_cpus) -> None:
        """At two workers the chain build is a pool task gating the
        region chunks; the sampled results equal the serial ones."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "pool"))
        parallel = run_sampled_grid(self._grid(), self.POLICY, jobs=2)
        assert last_sweep_stats()["workers"] == 2
        assert last_sweep_stats()["builds"] == 1
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        reset_worker_memo()
        serial = run_sampled_grid(self._grid(), self.POLICY, jobs=1)
        assert json.dumps([s.to_dict() for s in parallel]) == json.dumps(
            [s.to_dict() for s in serial])
