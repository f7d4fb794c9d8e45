"""Sampled-simulation tests: t math, policy, convergence, early stop.

The acceptance contract (ISSUE/ROADMAP): sampled estimates must
*statistically* agree with full measured runs — every scheme's full-run
reference lies within the sampled CI — and the early-stop machinery
must be deterministic: the region set consumed depends only on the
policy and the per-region results, never on worker count or on which
waves a previous run happened to cancel.
"""

from __future__ import annotations

import math

import pytest

from repro.sim.runner import run_workload
from repro.sim.sampling import (
    REGION_STATS,
    SampledResult,
    SamplingPolicy,
    StatEstimate,
    estimate_stat,
    region_points,
    run_sampled,
    run_sampled_grid,
    student_t_cdf,
    t_critical,
)
from repro.sim.statsdump import dump_sampled
from repro.sim.sweep import ResultCache, SweepPoint, last_sweep_stats

#: a 4-core shape whose array overflows the shrunken L2, so every
#: barrier phase re-misses and push schemes stay busy in every region
SIZES = dict(iters=5, array_lines=256, l2_kb=8, l1_kb=8)

#: every scheme of the paper's comparison matrix
SCHEMES = ("baseline", "coalesce", "msp", "pushack", "ordpush",
           "push_mc_filter")


def _point(config: str, seed: int = 1) -> SweepPoint:
    return SweepPoint.make("cachebw", config, num_cores=4, seed=seed,
                           **SIZES)


class TestStudentT:
    def test_cdf_basics(self) -> None:
        assert student_t_cdf(0.0, 5) == 0.5
        assert student_t_cdf(3.0, 5) + student_t_cdf(-3.0, 5) == \
            pytest.approx(1.0, abs=1e-12)
        assert student_t_cdf(50.0, 5) > 0.9999

    @pytest.mark.parametrize("df,expected", [
        (1, 12.706), (2, 4.303), (5, 2.571), (10, 2.228),
        (30, 2.042), (100, 1.984),
    ])
    def test_critical_values_match_the_table(self, df, expected) -> None:
        """95% two-sided values against the standard t table."""
        assert t_critical(df, 0.95) == pytest.approx(expected, abs=1e-3)

    def test_99_percent_is_wider(self) -> None:
        assert t_critical(10, 0.99) == pytest.approx(3.169, abs=1e-3)
        assert t_critical(10, 0.99) > t_critical(10, 0.95)

    def test_rejects_bad_inputs(self) -> None:
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)
        with pytest.raises(ValueError):
            t_critical(5, 1.0)


class TestEstimate:
    def test_known_small_sample(self) -> None:
        est = estimate_stat("ipc", [1.0, 2.0, 3.0], 0.95)
        assert est.mean == pytest.approx(2.0)
        assert est.stddev == pytest.approx(1.0)
        assert est.ci_half == pytest.approx(
            t_critical(2, 0.95) / math.sqrt(3), rel=1e-6)
        assert est.covers(2.0 + est.ci_half * 0.99)
        assert not est.covers(2.0 + est.ci_half * 1.01)

    def test_single_region_has_infinite_ci(self) -> None:
        est = estimate_stat("ipc", [4.2], 0.95)
        assert est.count == 1
        assert est.ci_half == math.inf
        assert est.covers(1e9)

    def test_zero_variance_has_zero_ci(self) -> None:
        est = estimate_stat("ipc", [2.5, 2.5, 2.5], 0.95)
        assert est.ci_half == 0.0
        assert est.relative_ci == 0.0

    def test_relative_ci_guards_zero_mean(self) -> None:
        est = estimate_stat("ipc", [-1.0, 1.0], 0.95)
        assert est.mean == 0.0
        assert est.relative_ci == math.inf


class TestPolicy:
    def test_barriers_advance_by_stride(self) -> None:
        policy = SamplingPolicy(samples=3, warmup_barriers=2,
                                barrier_stride=3)
        assert policy.barriers() == [2, 5, 8]

    def test_dict_roundtrip(self) -> None:
        policy = SamplingPolicy(samples=5, sample_cycles=1234,
                                ci_target=0.1, wave=2, headline="l2_mpki")
        assert SamplingPolicy.from_dict(policy.to_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self) -> None:
        with pytest.raises(ValueError, match="unknown sampling-policy"):
            SamplingPolicy.from_dict({"samples": 2, "typo": 1})

    @pytest.mark.parametrize("bad", [
        dict(samples=0),
        dict(sample_cycles=0),
        dict(warmup_barriers=0),
        dict(barrier_stride=0),
        dict(warmup_mode="magic"),
        dict(ci_target=-0.1),
        dict(confidence=1.5),
        dict(ci_target=0.1, min_samples=1),
        dict(wave=0),
        dict(headline="cycles"),
        dict(detach_cycles=-1),
    ])
    def test_validation(self, bad) -> None:
        with pytest.raises(ValueError):
            SamplingPolicy(**bad)

    def test_region_points_carry_the_window(self) -> None:
        policy = SamplingPolicy(samples=3, sample_cycles=777,
                                detach_cycles=120,
                                warmup_mode="functional")
        regions = region_points(_point("ordpush", seed=9), policy)
        assert [p.warmup_barriers for p in regions] == [1, 2, 3]
        assert all(p.measure_cycles == 777 for p in regions)
        assert all(p.detach_cycles == 120 for p in regions)
        assert all(p.warmup_mode == "functional" for p in regions)
        # regions sample phases of ONE execution: the seed is shared
        assert all(p.seed == 9 for p in regions)

    def test_grid_rejects_prewindowed_points(self) -> None:
        point = SweepPoint.make("cachebw", "baseline", num_cores=4,
                                warmup_barriers=2, **SIZES)
        with pytest.raises(ValueError, match="measurement"):
            run_sampled_grid([point], SamplingPolicy())


class TestConvergence:
    @pytest.mark.parametrize("config", SCHEMES)
    def test_sampled_ci_covers_the_full_run(self, config, tmp_path,
                                            monkeypatch) -> None:
        """Acceptance: for every scheme, every sampled rate statistic's
        CI covers the value measured by running the whole tail from the
        same anchor — the estimate is unbiased within its own error
        bars, not merely close."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Every region must measure its full 9000 cycles (a region that
        # ran out of trace is refused), so none reaches the end-of-run
        # drain.  The regions are spread evenly over a 20-phase run
        # (anchors 1, 5, 9 and 13), systematic sampling across the
        # timeline, so the drain weighs little in the full-run value.
        sizes = dict(SIZES, iters=20)
        policy = SamplingPolicy(samples=4, sample_cycles=9000,
                                barrier_stride=4,
                                warmup_mode="functional")
        sampled = run_sampled("cachebw", config, num_cores=4, seed=1,
                              policy=policy, **sizes)
        reference = run_workload("cachebw", config, num_cores=4, seed=1,
                                 warmup_barriers=1,
                                 warmup_mode="functional", **sizes)
        for name, fn in REGION_STATS.items():
            est = sampled.stats[name]
            assert est.covers(fn(reference)), (
                f"{config}/{name}: full-run {fn(reference):.4f} outside "
                f"{est.mean:.4f} +/- {est.ci_half:.4f}")

    def test_regions_are_tagged(self, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        policy = SamplingPolicy(samples=3, sample_cycles=1500)
        sampled = run_sampled("cachebw", "baseline", num_cores=4, seed=1,
                              policy=policy, **SIZES)
        assert [r.extra["region_index"] for r in sampled.regions] == [0, 1, 2]
        assert all(r.extra["measured_cycles"] == 1500
                   for r in sampled.regions)
        assert all(r.cycles <= 1500 for r in sampled.regions)

    def test_result_dict_roundtrip_and_dump(self, tmp_path,
                                            monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        policy = SamplingPolicy(samples=2, sample_cycles=1500)
        sampled = run_sampled("cachebw", "ordpush", num_cores=4, seed=1,
                              policy=policy, **SIZES)
        clone = SampledResult.from_dict(sampled.to_dict())
        assert clone.to_dict() == sampled.to_dict()
        text = dump_sampled(sampled)
        assert "sim.sampled.regions" in text
        assert "sim.sampled.ipc.mean" in text
        assert "sim.sampled.ipc.ci_half" in text
        assert f"{sampled.stats['ipc'].mean:.6f}" in text


class TestEarlyStop:
    #: stops coalesce after the first wave (rel CI ~0.05 < 0.3) while
    #: pushack (rel CI ~0.86 at n=2, ~0.16 at n=4) needs both waves —
    #: exercises the cancelled AND the full path with wide margins
    POLICY = SamplingPolicy(samples=4, sample_cycles=1500, wave=2,
                            min_samples=2, ci_target=0.3)

    def test_worker_count_is_invisible(self, tmp_path, monkeypatch,
                                       many_cpus) -> None:
        """Acceptance: the early-stop decision consumes the identical
        region set (and yields identical bytes) for any worker count —
        wave composition is a pure function of prior-wave results."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        points = [_point("coalesce"), _point("pushack")]
        serial = run_sampled_grid(points, self.POLICY,
                                  cache=ResultCache(tmp_path / "a"))
        parallel = run_sampled_grid(points, self.POLICY, jobs=2,
                                    cache=ResultCache(tmp_path / "b"))
        assert [s.to_dict() for s in serial] == [
            s.to_dict() for s in parallel]
        by_config = {s.config: s for s in serial}
        assert len(by_config["coalesce"].regions) == 2
        assert len(by_config["pushack"].regions) == 4
        assert all(s.converged for s in serial)

    def test_unreachable_target_reports_unconverged(self, tmp_path,
                                                    monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tight = SamplingPolicy(samples=4, sample_cycles=1500, wave=2,
                               min_samples=2, ci_target=0.001)
        (sampled,) = run_sampled_grid([_point("ordpush")], tight,
                                      cache=ResultCache(tmp_path / "r"))
        assert not sampled.converged
        assert len(sampled.regions) == 4  # budget fully spent

    def test_cancelled_wave_leaves_a_consistent_cache(
            self, tmp_path, monkeypatch) -> None:
        """A wave that early stop never dispatched must simply be
        absent — the later budget run of the same point replays the
        computed regions from cache byte-identically and executes
        only the cancelled remainder."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ResultCache(tmp_path / "shared")
        (stopped,) = run_sampled_grid([_point("coalesce")], self.POLICY,
                                      cache=cache)
        assert stopped.converged and len(stopped.regions) == 2

        budget = SamplingPolicy(samples=4, sample_cycles=1500, wave=2,
                                min_samples=2)
        (full,) = run_sampled_grid([_point("coalesce")], budget,
                                   cache=cache)
        stats = last_sweep_stats()
        assert stats["cache_hits"] == 2   # the early-stop run's regions
        assert stats["executed"] == 2     # only the cancelled wave
        assert len(full.regions) == 4
        assert [r.to_dict() for r in full.regions[:2]] == [
            r.to_dict() for r in stopped.regions]


class TestDeepWarmRegression:
    @pytest.mark.parametrize("mode", ["functional", "detailed"])
    def test_pushack_deep_warm_region_completes(self, mode, tmp_path,
                                                monkeypatch) -> None:
        """Regression: with the stationary shadow filter enabled and an
        L2 too small to hold the pushed lines, a GETS for a line whose
        push had already been delivered and capacity-evicted was
        swallowed by the home slice's shadow window and its MSHR hung
        forever.  Deep warm anchors (barrier 3+) made this reachable.
        Premise-keyed shadow release (LLCSlice.note_push_voided, fed
        by the private cache's drop/eviction reports) keeps the
        filter's guarantee exact in every backend."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = run_workload("cachebw", "pushack", num_cores=4, seed=1,
                              warmup_barriers=3, warmup_mode=mode,
                              measure_cycles=2000, **SIZES)
        assert result.cycles > 0
        assert result.extra["measured_cycles"] == 2000


class TestDetachWindow:
    def test_detach_requires_a_measured_region(self) -> None:
        with pytest.raises(ValueError, match="detach_cycles requires"):
            run_workload("cachebw", "baseline", num_cores=4, seed=1,
                         warmup_barriers=1, detach_cycles=500, **SIZES)

    def test_region_equals_long_region_minus_prefix(
            self, tmp_path, monkeypatch) -> None:
        """The detach window is pure repositioning: a D-detach,
        M-cycle region retires exactly the instructions of cycles
        [D, D+M] of an undetached run from the same anchor."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        common = dict(num_cores=4, seed=1, warmup_barriers=1,
                      warmup_mode="functional", **SIZES)
        detached = run_workload("cachebw", "ordpush", measure_cycles=1500,
                                detach_cycles=800, **common)
        long = run_workload("cachebw", "ordpush", measure_cycles=2300,
                            **common)
        prefix = run_workload("cachebw", "ordpush", measure_cycles=800,
                              **common)
        assert detached.cycles == 1500
        assert detached.extra["detach_cycles"] == 800
        assert (detached.instructions
                == long.instructions - prefix.instructions)

    def test_finishing_inside_the_window_is_an_error(
            self, tmp_path, monkeypatch) -> None:
        from repro.common.errors import SimulationError
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with pytest.raises(SimulationError, match="detach window"):
            run_workload("cachebw", "baseline", num_cores=4, seed=1,
                         warmup_barriers=1, warmup_mode="functional",
                         measure_cycles=1500, detach_cycles=10_000_000,
                         **SIZES)


class TestShortRegions:
    def test_region_that_ran_out_of_trace_is_rejected(
            self, tmp_path, monkeypatch) -> None:
        """Anchor 3 is this trace's last barrier: its region retires
        nothing and stops after 1 of its 1000 cycles.  Averaging it
        with full weight would put a ~0 IPC into the estimate, so the
        aggregation names the region and refuses."""
        from repro.common.errors import SimulationError
        from repro.sim.config import bench_kwargs
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        point = SweepPoint.make("cachebw", "baseline", num_cores=4,
                                topology="mesh", **bench_kwargs())
        policy = SamplingPolicy(samples=3, sample_cycles=1000,
                                warmup_mode="functional")
        with pytest.raises(SimulationError,
                           match=r"region 2 \(anchor barrier 3\)"):
            run_sampled_grid([point], policy, cache=False)
        two = run_sampled_grid([point], SamplingPolicy(
            samples=2, sample_cycles=1000, warmup_mode="functional"),
            cache=False)[0]
        assert [r.cycles for r in two.regions] == [1000, 1000]
