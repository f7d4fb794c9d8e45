"""Declarative experiment engine: spec in, error-bar report out.

An *experiment spec* is a small YAML or JSON document describing a grid
of simulation points — schemes × topologies × core counts × workload
sizes × seeds — plus an optional sampling policy::

    name: cachebw-schemes
    workload: cachebw
    configs: [baseline, push_multicast, ordpush]
    num_cores: [16, 64]
    seeds: 3
    sizes:
      iters: 8
      array_lines: [512, 1024]     # list values become grid axes
    sampling:
      samples: 8
      sample_cycles: 4000
      ci_target: 0.05

:func:`load_spec` parses and validates the document (YAML only when a
parser is installed; JSON always works — every YAML example here has a
direct JSON equivalent).  :func:`expand_grid` turns it into the full
cartesian list of :class:`~repro.sim.sweep.SweepPoint`\\ s with
deterministic per-replica seeds (:func:`~repro.sim.sweep.derive_seed`).
:func:`run_experiment` executes the grid **incrementally and
resumably**: every point (or sampled region) routes through
:func:`~repro.sim.sweep.run_sweep` and the content-addressed result
store, so an interrupted experiment re-run costs only the missing
points, and a finished one is all cache hits.  Reports render through
:mod:`repro.report` — error-bar tables and whisker charts for sampled
grids, plain tables for full runs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.common.errors import ConfigError
from repro.sim.results import SimResult
from repro.sim.sampling import (REGION_STATS, SampledResult, SamplingPolicy,
                                run_sampled_grid)
from repro.sim.sweep import SweepPoint, derive_seed, run_sweep

_SPEC_KEYS = frozenset({
    "name", "workload", "workloads", "configs", "num_cores", "seeds",
    "sizes", "max_cycles", "warmup_barriers", "warmup_mode", "sampling",
    "report",
})


def _as_list(value) -> List:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _int(field: str, value) -> int:
    """``int(value)``, or a :class:`ConfigError` naming the spec field."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{field!r} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated experiment document, ready to expand."""

    name: str
    workloads: List[str]
    configs: List[str]
    num_cores: List[int]
    #: explicit seed list (already expanded from a ``seeds`` count)
    seeds: List[int]
    #: workload/hardware keywords; list values are grid axes
    sizes: Dict[str, object] = field(default_factory=dict)
    max_cycles: int = 100_000_000
    #: measurement window for *full* (non-sampled) runs
    warmup_barriers: int = 0
    warmup_mode: str = "detailed"
    sampling: Optional[SamplingPolicy] = None
    #: report options (``stat`` picks the table/chart statistic)
    report: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ConfigError(
                f"experiment spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigError(
                f"unknown experiment spec keys: {sorted(unknown)}")
        if ("workload" in data) == ("workloads" in data):
            raise ConfigError(
                "spec needs exactly one of 'workload' / 'workloads'")
        workloads = _as_list(data.get("workload", data.get("workloads")))
        configs = _as_list(data.get("configs", "baseline"))
        cores = [_int("num_cores", n)
                 for n in _as_list(data.get("num_cores", 16))]
        seeds_field = data.get("seeds", 1)
        if isinstance(seeds_field, int):
            # a replica count: derive deterministic well-spread seeds
            if seeds_field < 1:
                raise ConfigError(f"seeds count must be >= 1: {seeds_field}")
            seeds = [derive_seed(1, index) for index in range(seeds_field)]
        else:
            seeds = [_int("seeds", s) for s in _as_list(seeds_field)]
        sizes = data.get("sizes", {})
        if not isinstance(sizes, dict):
            raise ConfigError("'sizes' must be a mapping")
        sampling_data = data.get("sampling")
        try:
            sampling = (SamplingPolicy.from_dict(sampling_data)
                        if sampling_data is not None else None)
        except ValueError as exc:
            raise ConfigError(f"sampling: {exc}") from None
        if sampling is not None and data.get("warmup_barriers"):
            raise ConfigError(
                "'sampling' and 'warmup_barriers' are mutually exclusive: "
                "the sampling policy owns the measurement window")
        report = data.get("report", {})
        if not isinstance(report, dict):
            raise ConfigError("'report' must be a mapping")
        stat = report.get("stat")
        if stat is not None and stat not in REGION_STATS:
            raise ConfigError(
                f"unknown report stat {stat!r} "
                f"(choose from {sorted(REGION_STATS)})")
        return cls(
            name=str(data.get("name", "experiment")),
            workloads=[str(w) for w in workloads],
            configs=[str(c) for c in configs],
            num_cores=cores,
            seeds=seeds,
            sizes=dict(sizes),
            max_cycles=_int("max_cycles",
                            data.get("max_cycles", 100_000_000)),
            warmup_barriers=_int("warmup_barriers",
                                 data.get("warmup_barriers", 0)),
            warmup_mode=str(data.get("warmup_mode", "detailed")),
            sampling=sampling,
            report=report,
        )


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Parse a YAML or JSON experiment spec file.

    ``.json`` always works; anything else tries YAML first (when a
    parser is installed) and falls back to JSON — YAML is a superset,
    so a JSON document in a ``.yaml`` file loads either way.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    data = None
    if path.suffix.lower() != ".json":
        try:
            import yaml
        except ImportError:
            yaml = None
        if yaml is not None:
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(
                f"{path}: not valid JSON (install a YAML parser for "
                f"YAML specs): {exc}") from exc
    return ExperimentSpec.from_dict(data)


def expand_grid(spec: ExperimentSpec) -> List[SweepPoint]:
    """The full cartesian point list an experiment runs.

    Axes: workloads × configs × core counts × every list-valued entry
    in ``sizes`` × seeds, in that nesting order — deterministic, so
    the Nth point of a spec is always the same point.
    """
    axis_names = [name for name, value in spec.sizes.items()
                  if isinstance(value, (list, tuple))]
    axis_values = [list(spec.sizes[name]) for name in axis_names]
    fixed = {name: value for name, value in spec.sizes.items()
             if name not in axis_names}
    points: List[SweepPoint] = []
    for workload in spec.workloads:
        for config in spec.configs:
            for cores in spec.num_cores:
                for combo in itertools.product(*axis_values):
                    kwargs = dict(fixed)
                    kwargs.update(zip(axis_names, combo))
                    for seed in spec.seeds:
                        points.append(SweepPoint.make(
                            workload, config, num_cores=cores, seed=seed,
                            max_cycles=spec.max_cycles,
                            warmup_barriers=spec.warmup_barriers,
                            warmup_mode=spec.warmup_mode, **kwargs))
    return points


@dataclass
class ExperimentResult:
    """Everything :func:`run_experiment` produced for one spec."""

    spec: ExperimentSpec
    points: List[SweepPoint]
    #: one entry per point: :class:`SampledResult` for sampled
    #: experiments, :class:`SimResult` for full runs
    results: List[Union[SimResult, SampledResult]]

    @property
    def sampled(self) -> bool:
        return self.spec.sampling is not None

    def render(self) -> str:
        """The experiment's report: tables (+ error bars when sampled)."""
        from repro.report import (bar_chart, error_bar_chart,
                                  error_bar_table, format_table)

        stat = self.spec.report.get("stat", "ipc")
        title = f"{self.spec.name}: {stat}"
        if self.sampled:
            chart = error_bar_chart(
                {p.label(): (r.stats[stat].mean, r.stats[stat].ci_half)
                 for p, r in zip(self.points, self.results)})
            return (error_bar_table(self.results, stat=stat, title=title)
                    + "\n\n" + chart)
        fn = REGION_STATS[stat]
        rows = [[p.label(), f"{fn(r):.4f}", r.cycles, r.total_flits]
                for p, r in zip(self.points, self.results)]
        table = format_table(["point", stat, "cycles", "flits"], rows,
                             title=title)
        chart = bar_chart({p.label(): fn(r)
                           for p, r in zip(self.points, self.results)})
        return table + "\n\n" + chart

    def save_report(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.render() + "\n", encoding="utf-8")


def run_experiment(spec: Union[ExperimentSpec, str, Path],
                   jobs: Optional[int] = 1, cache=True,
                   progress: Optional[Callable[[Dict], None]] = None
                   ) -> ExperimentResult:
    """Run an experiment spec end to end; safe to interrupt and re-run.

    Every point (or sampled region) goes through the result store, so
    progress persists across invocations: a re-run of a half-finished
    experiment executes only what is missing, and a finished experiment
    replays entirely from cache.  Returns the grid's results in
    expansion order.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = load_spec(spec)
    points = expand_grid(spec)
    if spec.sampling is not None:
        results: List[Union[SimResult, SampledResult]] = list(
            run_sampled_grid(points, spec.sampling, jobs=jobs,
                             cache=cache, progress=progress))
    else:
        results = list(run_sweep(points, jobs=jobs, cache=cache,
                                 progress=progress))
    return ExperimentResult(spec=spec, points=points, results=results)
