"""Sampled simulation: short measured regions + statistical aggregation.

A figure point does not need one long contiguous measured region — it
needs a *statistically confident estimate* of each rate statistic (IPC,
MPKI, flits/cycle, ...).  This module implements the classic sampled-
simulation recipe (SimPoint/SMARTS lineage) on top of the repo's
existing machinery:

* **Regions**: K short measured regions fork from warm checkpoint
  images anchored at successive barrier crossings of the workload
  (``warmup_barriers + i*stride``), each capped at ``sample_cycles``
  post-restore cycles (the deterministic ``stop_at`` cut in
  :meth:`System.run`).  Each region is an ordinary
  :class:`~repro.sim.sweep.SweepPoint`, so the sweep executor spreads
  regions across workers in warm-affinity chunks, the worker checkpoint
  memo amortizes image restores, and every region result lands in the
  content-addressed result store individually — re-running a sampled
  point is all cache hits.

* **Warm chain**: this module builds nothing.  The sweep planner
  collects the regions' missing anchors per chain and schedules each
  chain as one build task, which builds the K warm images in **one**
  chained warm pass (:func:`repro.sim.runner.ensure_warm_states`
  re-arms the quiesce hold at every barrier and captures at the
  anchors on the way), so warm cost is ``O(max anchor)``, not ``O(sum
  of anchors)``.  The every-barrier hold makes the anchors *canonical*
  — the image at anchor i never depends on which anchor set was built
  first — and region anchors are keyed apart from plain single-hold
  warm images (``chained=True`` in
  :func:`~repro.sim.checkpoint.checkpoint_key`).

* **Aggregation**: per-region rate stats are aggregated into a
  :class:`SampledResult` carrying mean, sample stddev, and Student-t
  confidence intervals per stat.  Every region must measure its full
  ``sample_cycles``: one anchored too close to the end of the trace
  is refused, not averaged in.  The t critical value is computed
  from first principles (regularized incomplete beta + bisection) —
  no scipy dependency.

* **Early stop**: with ``ci_target`` > 0, regions dispatch in
  deterministic *waves*; sampling stops as soon as the headline stat's
  relative CI half-width drops below the target, and later waves are
  simply never dispatched (their regions stay uncomputed — the
  cancelled-wave path).  Because wave composition depends only on
  deterministic per-region results, the region set consumed is
  identical regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.errors import SimulationError
from repro.sim.results import SimResult
from repro.sim.sweep import SweepPoint, run_sweep

#: The rate (intensive) statistics a sampled run estimates.  Extensive
#: counters (total cycles, total flits) do not aggregate across regions
#: of different workload phases; rates do.
REGION_STATS: Dict[str, Callable[[SimResult], float]] = {
    "ipc": lambda r: r.ipc,
    "l2_mpki": lambda r: r.l2_mpki,
    "l2_miss_rate": lambda r: r.l2_miss_rate,
    "flits_per_cycle": lambda r: (r.total_flits / r.cycles
                                  if r.cycles else 0.0),
    "injection_load": lambda r: r.injection_load,
    "push_accuracy": lambda r: r.push_accuracy(),
}


# ---------------------------------------------------------------------------
# Student-t critical values (no scipy)
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
             + a * math.log(x) + b * math.log(1.0 - x))
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: int) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1: {df}")
    if t == 0.0:
        return 0.5
    p = 0.5 * _betai(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - p if t > 0 else p


def t_critical(df: int, confidence: float = 0.95) -> float:
    """Two-sided Student-t critical value: P(|T| <= t) = confidence.

    Bisection on the CDF — ~50 iterations of a closed-form evaluation,
    exact to ~1e-10, no lookup table and no scipy.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1): {confidence}")
    target = 1.0 - (1.0 - confidence) / 2.0
    lo, hi = 0.0, 1e6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the sampling policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPolicy:
    """How a point is sampled: region count, length, anchors, stopping.

    ``detach_cycles`` > 0 inserts a detailed-warming window between
    each region's restore and its measurement (SMARTS-style): the
    quiesced anchor hold drains all in-flight traffic, so the first
    post-release cycles overshoot steady state — detaching lets NoC
    contention re-stagger before counters start, trading a little
    extra detailed simulation for less per-region bias.

    ``ci_target`` > 0 enables confidence-driven early stop: regions
    dispatch in waves of ``wave`` and sampling stops once at least
    ``min_samples`` regions are in and the ``headline`` stat's relative
    CI half-width (half-width / |mean|, at ``confidence``) is at or
    below the target.  ``ci_target`` = 0 runs all ``samples`` regions.
    """

    samples: int = 8
    sample_cycles: int = 2000
    detach_cycles: int = 0
    warmup_barriers: int = 1
    barrier_stride: int = 1
    warmup_mode: str = "functional"
    ci_target: float = 0.0
    confidence: float = 0.95
    min_samples: int = 3
    wave: int = 4
    headline: str = "ipc"

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1: {self.samples}")
        if self.sample_cycles < 1:
            raise ValueError(
                f"sample_cycles must be >= 1: {self.sample_cycles}")
        if self.detach_cycles < 0:
            raise ValueError(
                f"detach_cycles must be >= 0: {self.detach_cycles}")
        if self.warmup_barriers < 1 or self.barrier_stride < 1:
            raise ValueError("region anchors must advance: "
                             f"warmup_barriers={self.warmup_barriers}, "
                             f"barrier_stride={self.barrier_stride}")
        if self.warmup_mode not in ("detailed", "functional"):
            raise ValueError(f"unknown warmup_mode {self.warmup_mode!r}")
        if self.ci_target < 0.0:
            raise ValueError(f"ci_target must be >= 0: {self.ci_target}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"confidence must be in (0, 1): {self.confidence}")
        if self.ci_target > 0.0 and self.min_samples < 2:
            raise ValueError("early stop needs min_samples >= 2 "
                             "(a single region has no variance estimate)")
        if self.wave < 1:
            raise ValueError(f"wave must be >= 1: {self.wave}")
        if self.headline not in REGION_STATS:
            raise ValueError(
                f"unknown headline stat {self.headline!r} "
                f"(choose from {sorted(REGION_STATS)})")

    def barriers(self) -> List[int]:
        """The warm anchor (barrier crossing) of every region."""
        return [self.warmup_barriers + i * self.barrier_stride
                for i in range(self.samples)]

    def to_dict(self) -> Dict:
        return {
            "samples": self.samples,
            "sample_cycles": self.sample_cycles,
            "detach_cycles": self.detach_cycles,
            "warmup_barriers": self.warmup_barriers,
            "barrier_stride": self.barrier_stride,
            "warmup_mode": self.warmup_mode,
            "ci_target": self.ci_target,
            "confidence": self.confidence,
            "min_samples": self.min_samples,
            "wave": self.wave,
            "headline": self.headline,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SamplingPolicy":
        if not isinstance(data, dict):
            raise ValueError(f"sampling policy must be a mapping, "
                             f"got {type(data).__name__}")
        fields = cls.__dataclass_fields__
        known = {f: data[f] for f in fields if f in data}
        unknown = set(data) - set(known)
        if unknown:
            raise ValueError(
                f"unknown sampling-policy fields: {sorted(unknown)}")
        for name, value in known.items():
            kind = type(fields[name].default)
            # a float field takes an int too; no field takes a bool
            accepted = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(
                    f"{name} must be of type {kind.__name__}, "
                    f"got {value!r}")
        return cls(**known)


def region_points(point: SweepPoint, policy: SamplingPolicy
                  ) -> List[SweepPoint]:
    """The K region :class:`SweepPoint`\\ s a sampled point expands to.

    Each region keeps the point's seed — regions sample different
    *phases* of one deterministic execution, not different executions
    (seed replication belongs one level up, in the experiment grid) —
    and differs only in its warm anchor and the ``measure_cycles`` cap.
    """
    return [replace(point,
                    warmup_barriers=barriers,
                    warmup_mode=policy.warmup_mode,
                    measure_cycles=policy.sample_cycles,
                    detach_cycles=policy.detach_cycles)
            for barriers in policy.barriers()]


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatEstimate:
    """One statistic's sampled estimate: mean ± t-based CI."""

    name: str
    mean: float
    stddev: float
    count: int
    #: absolute CI half-width at the policy's confidence level
    #: (infinite for a single region — no variance estimate exists)
    ci_half: float
    confidence: float

    @property
    def relative_ci(self) -> float:
        """CI half-width relative to |mean| (inf when mean is 0)."""
        if self.ci_half == 0.0:
            return 0.0
        if self.mean == 0.0:
            return math.inf
        return self.ci_half / abs(self.mean)

    def covers(self, value: float) -> bool:
        """Whether ``value`` lies within the confidence interval."""
        return abs(value - self.mean) <= self.ci_half

    def to_dict(self) -> Dict:
        return {"name": self.name, "mean": self.mean,
                "stddev": self.stddev, "count": self.count,
                "ci_half": self.ci_half, "confidence": self.confidence}

    @classmethod
    def from_dict(cls, data: Dict) -> "StatEstimate":
        return cls(**data)


def estimate_stat(name: str, values: Sequence[float],
                  confidence: float) -> StatEstimate:
    """Mean / sample stddev / t-based CI half-width for one stat."""
    n = len(values)
    if n < 1:
        raise ValueError("cannot estimate a stat from zero regions")
    mean = sum(values) / n
    if n == 1:
        return StatEstimate(name, mean, 0.0, 1, math.inf, confidence)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    stddev = math.sqrt(var)
    ci_half = (t_critical(n - 1, confidence) * stddev / math.sqrt(n)
               if stddev > 0.0 else 0.0)
    return StatEstimate(name, mean, stddev, n, ci_half, confidence)


@dataclass
class SampledResult:
    """Aggregate of K measured-region :class:`SimResult`\\ s.

    ``stats`` maps every :data:`REGION_STATS` name to its
    :class:`StatEstimate`; ``regions`` holds the per-region results
    (each tagged with ``extra["region_index"]``), and ``converged``
    records whether an early-stop policy met its CI target (always
    True when ``ci_target`` is 0 — exhausting the budget is the plan).
    """

    workload: str
    config: str
    num_cores: int
    seed: int
    policy: SamplingPolicy
    stats: Dict[str, StatEstimate]
    regions: List[SimResult] = field(default_factory=list)
    converged: bool = True

    @property
    def headline(self) -> StatEstimate:
        return self.stats[self.policy.headline]

    def summary(self) -> str:
        """One-line human-readable digest with the headline CI."""
        est = self.headline
        rel = est.relative_ci
        rel_text = "inf" if math.isinf(rel) else f"{rel * 100:.2f}%"
        return (f"{self.workload}/{self.config}/{self.num_cores}c: "
                f"{est.name}={est.mean:.4f} ±{est.ci_half:.4f} "
                f"({rel_text} @ {est.confidence:.0%}, "
                f"{est.count} regions)")

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "num_cores": self.num_cores,
            "seed": self.seed,
            "policy": self.policy.to_dict(),
            "stats": {name: est.to_dict()
                      for name, est in sorted(self.stats.items())},
            "regions": [r.to_dict() for r in self.regions],
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SampledResult":
        return cls(
            workload=data["workload"],
            config=data["config"],
            num_cores=data["num_cores"],
            seed=data["seed"],
            policy=SamplingPolicy.from_dict(data["policy"]),
            stats={name: StatEstimate.from_dict(est)
                   for name, est in data["stats"].items()},
            regions=[SimResult.from_dict(r)
                     for r in data.get("regions", [])],
            converged=data.get("converged", True),
        )


def aggregate(point: SweepPoint, policy: SamplingPolicy,
              regions: List[SimResult],
              converged: bool = True) -> SampledResult:
    """Fold per-region results into a :class:`SampledResult`.

    Raises :class:`SimulationError` if a region stopped short of
    ``sample_cycles`` (its anchor sits too close to the end of the
    trace): the estimator weighs every region alike, so a region that
    ran out of trace would skew every rate stat.
    """
    if not regions:
        raise ValueError("cannot aggregate zero regions")
    for index, (region, anchor) in enumerate(zip(regions,
                                                 policy.barriers())):
        if region.cycles < policy.sample_cycles:
            raise SimulationError(
                f"{point.label()}: region {index} (anchor barrier "
                f"{anchor}) ran out of trace after {region.cycles} of "
                f"{policy.sample_cycles} cycles — use fewer samples, "
                f"a shorter sample_cycles or a longer workload")
    stats = {name: estimate_stat(name, [fn(r) for r in regions],
                                 policy.confidence)
             for name, fn in REGION_STATS.items()}
    return SampledResult(
        workload=point.workload, config=point.config,
        num_cores=point.num_cores, seed=point.seed,
        policy=policy, stats=stats, regions=regions,
        converged=converged)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _tag_regions(results: List[SimResult],
                 indices: List[int]) -> List[SimResult]:
    """Region-index-tagged copies (cache-shared objects stay pristine)."""
    return [replace(r, extra={**r.extra, "region_index": index})
            for r, index in zip(results, indices)]


def run_sampled_grid(points: Sequence[SweepPoint],
                     policy: SamplingPolicy,
                     jobs: Optional[int] = 1, cache=None,
                     progress: Optional[Callable[[Dict], None]] = None
                     ) -> List[SampledResult]:
    """Sample every point of a grid; one :class:`SampledResult` each.

    All points share the policy and advance in lockstep waves: each
    round batches the next wave of every still-unconverged point into
    **one** :func:`run_sweep` call, so the executor sees the full
    cross-point region set at once (maximum parallelism, one warm-
    affinity plan) while wave composition stays a pure function of
    prior-wave results — the early-stop decision is bit-identical
    for any ``jobs``.  Without a CI target there is exactly one wave:
    every region of every point, in a single sweep.
    """
    points = list(points)
    for point in points:
        if point.warmup_barriers or point.measure_cycles:
            raise ValueError(
                f"point {point.label()} carries its own measurement "
                "window; the sampling policy owns the region anchors — "
                "leave the point's warmup/measure fields at default")
    all_regions = [region_points(point, policy) for point in points]

    collected: List[List[SimResult]] = [[] for _ in points]
    done: List[Optional[bool]] = [None] * len(points)

    wave_size = policy.wave if policy.ci_target > 0.0 else policy.samples

    def _converged(regions: List[SimResult]) -> bool:
        if len(regions) < policy.min_samples:
            return False
        est = estimate_stat(policy.headline,
                            [REGION_STATS[policy.headline](r)
                             for r in regions], policy.confidence)
        return est.relative_ci <= policy.ci_target

    while any(d is None for d in done):
        wave_slices = []
        batch: List[SweepPoint] = []
        for i, regions in enumerate(all_regions):
            if done[i] is not None:
                continue
            taken = len(collected[i])
            wave = regions[taken:taken + wave_size]
            wave_slices.append((i, taken, len(wave)))
            batch.extend(wave)
        results = run_sweep(batch, jobs=jobs, cache=cache,
                            progress=progress)
        cursor = 0
        for i, taken, count in wave_slices:
            per_wave = results[cursor:cursor + count]
            cursor += count
            collected[i].extend(
                _tag_regions(per_wave,
                             list(range(taken, taken + count))))
            if policy.ci_target <= 0.0 or _converged(collected[i]):
                done[i] = True
            elif len(collected[i]) >= len(all_regions[i]):
                done[i] = False  # budget exhausted short of the target

    return [aggregate(point, policy, regions, converged=bool(done[i]))
            for i, (point, regions) in enumerate(zip(points, collected))]


def run_sampled(workload: str, config: str = "baseline",
                num_cores: int = 16, seed: int = 1,
                policy: Optional[SamplingPolicy] = None,
                max_cycles: int = 100_000_000,
                jobs: Optional[int] = 1, cache=None,
                progress: Optional[Callable[[Dict], None]] = None,
                **kwargs) -> SampledResult:
    """Sample one point (see :func:`run_sampled_grid` for the grid)."""
    policy = policy if policy is not None else SamplingPolicy()
    point = SweepPoint.make(workload, config, num_cores=num_cores,
                            seed=seed, max_cycles=max_cycles, **kwargs)
    return run_sampled_grid([point], policy, jobs=jobs, cache=cache,
                            progress=progress)[0]
