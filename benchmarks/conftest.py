"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
prints the corresponding rows.  Simulations are expensive, so results
are cached twice: in a session-scoped memo, and in the on-disk
content-addressed result cache (:mod:`repro.sim.sweep`), so figures
that share runs (e.g. Fig. 11's speedups and Fig. 13's traffic
breakdowns use the same simulations) pay for them once — across the
whole suite and across sessions.  Set ``REPRO_CACHE_DIR`` to relocate
the store; pointing it at an empty directory forces fresh simulations.

All benchmarks run on the scaled cache profile (see
``repro.sim.config.BENCH_PROFILE``): caches and workload footprints are
shrunk by the same 8x factor so every working-set-to-cache ratio of the
paper's setup is preserved while one simulation completes in seconds.

Every test collected here is marked ``bench`` so the tier-1 suite
(``pytest tests/``) never pays for a figure reproduction by accident.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, Tuple

import pytest

from repro.sim.config import bench_kwargs
from repro.sim.results import SimResult
from repro.sim.sweep import ResultCache, SweepPoint, run_point


def pytest_collection_modifyitems(items) -> None:
    """Tag every figure benchmark with the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)

#: reduced workload sizes for the wide parameter sweeps
QUICK_SIZES: Dict[str, dict] = {
    "cachebw": dict(array_lines=768, iters=2),
    "multilevel": dict(level_lines=768, iters=2),
    "backprop": dict(iters=2),
    "mlp": dict(batch_chunks=2),
    "mv": dict(rows_per_core=8),
    "conv3d": dict(out_channels=3),
    "particlefilter": dict(frames=3),
    "lud": dict(steps=6),
    "pathfinder": dict(iters=6),
    "bfs": dict(visits_per_core=300),
}

#: further-reduced sizes for 64-core runs
SIZES_64: Dict[str, dict] = {
    "cachebw": dict(array_lines=768, iters=2),
    "multilevel": dict(level_lines=768, iters=2),
    "particlefilter": dict(frames=2),
    "conv3d": dict(out_channels=2),
    "bfs": dict(visits_per_core=150),
}

_CACHE: Dict[Tuple, SimResult] = {}


def _disk_cache() -> ResultCache:
    default = pathlib.Path(__file__).resolve().parent.parent / ".repro_cache"
    return ResultCache(os.environ.get("REPRO_CACHE_DIR", default))


_DISK_CACHE = _disk_cache()


def run_cached(workload: str, config: str, num_cores: int = 16,
               quick: bool = False, **overrides) -> SimResult:
    """Run one (workload, config) cell through both cache layers."""
    sizes: Dict = {}
    if quick:
        sizes.update(QUICK_SIZES.get(workload, {}))
    if num_cores >= 64:
        sizes.update(SIZES_64.get(workload, {}))
    sizes.update(overrides)
    merged = bench_kwargs()
    merged.update(sizes)  # overrides may replace profile values
    key = (workload, config, num_cores, tuple(sorted(merged.items())))
    result = _CACHE.get(key)
    if result is None:
        point = SweepPoint.make(workload, config, num_cores=num_cores,
                                **merged)
        result = run_point(point, cache=_DISK_CACHE)
        _CACHE[key] = result
    return result


@pytest.fixture
def cell():
    """The memoized simulation runner, as a fixture."""
    return run_cached
#: every rendered figure table is also appended here, so the rows
#: survive pytest's output capturing (truncated at session start)
FIGURES_LOG = pathlib.Path(__file__).with_name("figures_output.txt")
_log_reset = False


def _append_to_log(text: str) -> None:
    global _log_reset
    mode = "a" if _log_reset else "w"
    _log_reset = True
    with FIGURES_LOG.open(mode, encoding="utf-8") as handle:
        handle.write(text + "\n")


def print_table(title: str, header, rows) -> None:
    """Render one paper-style table to stdout and the figures log."""
    lines = [f"\n=== {title} ==="]
    widths = [max(len(str(h)), *(len(str(row[i])) for row in rows))
              for i, h in enumerate(header)]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    lines.append(line)
    lines.append("-" * len(line))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(w)
                               for cell, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    _append_to_log(text)


def once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
