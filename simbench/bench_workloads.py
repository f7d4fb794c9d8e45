"""The benchmark's workloads: their simulation points, how one grid
runs, and how its outputs are checked.

A workload is one *grid*: a fixed list of simulation points (or of
sampled points) run back to back through the sweep executor with
``jobs=1`` on an empty result store.  The timed section repeats the
grid until its time is up (a closed loop with one client); each
repetition starts from a fresh store, so none replays another's
results.

Sizes follow the repo's scaling rule (``repro.sim.config``): caches and
workload footprints shrink by the same factor, so every
footprint-to-cache ratio survives.  The bench profile is shrunk
further (L1 1 KB, L2 4 KB = 64 lines, LLC slices 16 KB: 4x, 8x, 8x),
which lets several grids fit into one run of a Python simulator.  The
sharer skew (``pair_skew``, each pass's random start offset) shrinks
with the footprints: at the generators' defaults it would outlast a
whole 96-line pass, and the seed would set most of a grid's length.

Nothing here imports the simulator at module level: ``run.py`` reads
the workload names without paying for the imports that set-up times.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

#: the seed whose outputs ``reference.json`` pins, digest by digest
DEFAULT_SEED = 1

#: cache sizes shared by every point (keywords of ``make_params``)
PROFILE = dict(l1_kb=1, l2_kb=4, llc_slice_kb=16)

REFERENCE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a grid of points and how to run it."""

    name: str
    why: str
    #: ``(workload, config, num_cores, keywords)`` per point
    specs: Tuple[Tuple[str, str, int, Dict], ...]
    #: ``SamplingPolicy`` keywords; None runs every point to completion
    sampling: Optional[Dict] = None
    #: trace seeds per spec, derived from the run's seed
    #: (``expand_seeds``); more than one averages out how much work a
    #: seed's traces happen to make
    replicas: int = 1

    def points(self, seed: int) -> List:
        from repro.sim.sweep import SweepPoint, expand_seeds

        points = [SweepPoint.make(workload, config, num_cores=cores,
                                  seed=seed, **PROFILE, **keywords)
                  for workload, config, cores, keywords in self.specs]
        if self.replicas == 1:
            return points
        return [replica for point in points
                for replica in expand_seeds(point, self.replicas)]

    def policy(self):
        from repro.sim.sampling import SamplingPolicy

        return SamplingPolicy(**self.sampling)

    @property
    def ops_per_grid(self) -> int:
        """Operations in one grid: one per point, or per sampled region."""
        per_point = self.sampling["samples"] if self.sampling else 1
        return len(self.specs) * self.replicas * per_point


#: the Table II subset of the figure grid, in the shapes of the figure
#: suite's QUICK_SIZES (streaming shared scan, irregular graph walk,
#: shrinking pivot panels) resized to the 64-line L2 of ``PROFILE``
FIGURE_SIZES = {
    "cachebw": dict(array_lines=96, iters=2, pair_skew=10),
    "bfs": dict(node_lines=256, visits_per_core=30, pair_skew=5),
    "lud": dict(matrix_lines=128, steps=4, pivot_lines=8, pair_skew=12),
}

WORKLOADS: Dict[str, Workload] = {wl.name: wl for wl in (
    Workload(
        "figure_grid",
        "16-core event-NoC full runs of cachebw/bfs/lud x "
        "baseline/pushack/ordpush: the figure path (event NoC, cache "
        "handlers, prefetcher)",
        tuple((workload, scheme, 16, sizes)
              for workload, sizes in FIGURE_SIZES.items()
              for scheme in ("baseline", "pushack", "ordpush"))),
    Workload(
        "fabric_64c",
        "64-core array-engine runs, one saturated streaming and one "
        "L2-resident with pushes and no prefetcher: array NoC and "
        "coherence fast path",
        (("cachebw", "ordpush", 64,
          dict(engine="array", array_lines=96, iters=2, pair_skew=10)),
         ("cachebw", "ordpush", 64,
          dict(engine="array", array_lines=48, iters=3, pair_skew=10))),
        # one seed's traces can take 13 % more simulated cycles, and so
        # more host time, than another's on these points
        replicas=2),
    Workload(
        "sampled_regions",
        "16-core cachebw x baseline/ordpush x mesh/torus/cmesh sampled "
        "from functional warm images: checkpoint writes and restores, "
        "functional NoC",
        # 3 passes past the last anchor: the last region never runs
        # out of trace, whatever the seed's stagger
        tuple(("cachebw", scheme, 16,
               dict(topology=topology, array_lines=96, iters=6,
                    pair_skew=10))
              for scheme in ("baseline", "ordpush")
              for topology in ("mesh", "torus", "cmesh")),
        sampling=dict(samples=3, sample_cycles=500, detach_cycles=250,
                      warmup_mode="functional")),
)}


def trace_args(point) -> Tuple[str, int, int, Tuple]:
    """``build_trace_buffers`` arguments for a point, resolved exactly
    as ``run_workload`` resolves them (hashable, for de-duplication)."""
    from repro.sim.runner import resolve_point

    _, sizes = resolve_point(point.workload, point.config, point.num_cores,
                             **dict(point.kwargs))
    return (point.workload, point.num_cores, point.seed,
            tuple(sorted(sizes.items())))


def compile_traces(points) -> None:
    """Compile (or fetch) the trace buffers of every point, once each."""
    from repro.workloads import registry

    for name, cores, seed, sizes in dict.fromkeys(map(trace_args, points)):
        registry.build_trace_buffers(name, num_cores=cores, seed=seed,
                                     **dict(sizes))


@dataclass
class Outcome:
    """What one grid produced."""

    #: ``(label, SimResult)`` per operation, in grid order
    ops: List[Tuple[str, object]]
    #: ``(point label, aggregated stats)`` per sampled point
    estimates: List[Tuple[str, Dict]]


def _label(index: int, point) -> str:
    return f"{index:02d}:{point.label()}"


def run_grid(workload: Workload, points) -> Outcome:
    """Run one grid on the store that ``REPRO_CACHE_DIR`` names."""
    from repro.sim.sweep import ResultCache, run_sweep

    if workload.sampling is None:
        results = run_sweep(points, jobs=1, cache=ResultCache())
        return Outcome([(_label(i, point), result) for i, (point, result)
                        in enumerate(zip(points, results))], [])
    from repro.sim.sampling import run_sampled_grid

    sampled = run_sampled_grid(points, workload.policy(), jobs=1,
                               cache=ResultCache())
    ops, estimates = [], []
    for i, (point, result) in enumerate(zip(points, sampled)):
        label = _label(i, point)
        ops.extend((f"{label}#r{j}", region)
                   for j, region in enumerate(result.regions))
        estimates.append((label, result.to_dict()["stats"]))
    return Outcome(ops, estimates)


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(outcome: Outcome) -> Dict[str, str]:
    """SHA-256 of every ``SimResult.to_dict()`` and aggregated estimate."""
    table = {label: _digest(result.to_dict())
             for label, result in outcome.ops}
    table.update((f"est:{label}", _digest(stats))
                 for label, stats in outcome.estimates)
    return table


def failed_ops(outcome: Outcome, bad: Set[str]) -> int:
    """Operations that a set of failed digest labels accounts for: an
    op fails on its own digest, a region also on its point's estimate."""
    bad_points = {label[4:] for label in bad if label.startswith("est:")}
    return sum(1 for label, _ in outcome.ops
               if label in bad or label.split("#")[0] in bad_points)


def _trace_instructions(point) -> int:
    """Instructions a point's trace retires when run to completion
    (the rule ``Core._step_buffered`` counts by)."""
    from repro.workloads import registry

    name, cores, seed, sizes = trace_args(point)
    total = 0
    for buf in registry.build_trace_buffers(name, num_cores=cores,
                                            seed=seed, **dict(sizes)):
        for addr, insts, work in zip(buf.addr, buf.insts, buf.work):
            if addr >= 0:
                total += insts if insts > 0 else work + 1
    return total


def invariant_failures(workload: Workload, points,
                       outcome: Outcome) -> Set[str]:
    """Labels that break the seed-independent invariants.

    A full run retires every core's whole trace: its instruction count
    equals the trace's (a core can retire at most its own trace, so
    equal totals mean every core finished).  A sampled region measures
    exactly ``sample_cycles`` after exactly ``detach_cycles`` and
    retires part of the trace; each estimate aggregates every region.
    """
    expected = [_trace_instructions(point) for point in points]
    bad: Set[str] = set()
    if workload.sampling is None:
        for (label, result), want in zip(outcome.ops, expected):
            if result.cycles <= 0 or result.instructions != want:
                bad.add(label)
        return bad
    policy = workload.policy()
    for k, (label, result) in enumerate(outcome.ops):
        if not (result.cycles == policy.sample_cycles
                and result.extra.get("measured_cycles")
                == policy.sample_cycles
                and result.extra.get("detach_cycles")
                == policy.detach_cycles
                and 0 < result.instructions
                <= expected[k // policy.samples]):
            bad.add(label)
    for label, stats in outcome.estimates:
        if any(est["count"] != policy.samples
               or not math.isfinite(est["mean"])
               for est in stats.values()):
            bad.add(f"est:{label}")
    return bad


def load_reference(name: str) -> Optional[Dict[str, str]]:
    """The committed default-seed digests of a workload, if recorded."""
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(name)


def save_reference(name: str, table: Dict[str, str]) -> None:
    """Replace one workload's entry in ``reference.json``."""
    data = (json.loads(REFERENCE.read_text(encoding="utf-8"))
            if REFERENCE.is_file() else {})
    data[name] = table
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
