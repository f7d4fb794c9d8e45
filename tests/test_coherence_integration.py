"""Randomized full-system coherence invariant tests.

These run small random multi-core workloads with reads and writes under
every protocol configuration.  Two invariants are machine-checked:

* **data-value** — enforced continuously inside the private caches
  (installing a payload older than the newest invalidation raises
  ProtocolError), so simply completing the run is the assertion;
* **SWMR** — after the run drains, no two private caches may hold the
  same line with one of them writable.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.coherence import STATE_OBJS, PrivState
from repro.cpu.traces import BARRIER, MemAccess
from repro.sim.config import make_params
from repro.sim.system import System

CONFIGS = ["noprefetch", "baseline", "coalesce", "msp", "pushack",
           "ordpush", "push_only", "push_multicast", "push_mc_filter"]


def random_traces(num_cores: int, seed: int, accesses: int = 300,
                  lines: int = 96, write_frac: float = 0.2):
    """Random shared read/write mix over a small hot line set."""
    def trace(core: int):
        rng = random.Random(seed * 100 + core)
        for _ in range(accesses):
            line = rng.randrange(lines)
            is_write = rng.random() < write_frac
            yield MemAccess(addr=0x40000 + line * 64, is_write=is_write,
                            work=rng.randrange(0, 6))
        yield BARRIER

    return [trace(core) for core in range(num_cores)]


def check_swmr(system: System) -> None:
    """Single-Writer Multiple-Reader invariant over final cache state."""
    holders = {}
    for cache in system.caches:
        for line_addr, _, code, *_ in cache.l2.state()["lines"]:
            holders.setdefault(line_addr, []).append(
                (cache.tile, STATE_OBJS[code]))
    for line_addr, entries in holders.items():
        writable = [t for t, s in entries
                    if s in (PrivState.M, PrivState.E)]
        if writable:
            assert len(entries) == 1, (
                f"SWMR violated on 0x{line_addr:x}: {entries}")


@pytest.mark.parametrize("config", CONFIGS)
def test_random_sharing_mix_is_coherent(config: str) -> None:
    params = make_params(config, num_cores=4, l2_kb=8, llc_slice_kb=32,
                         l1_kb=4)
    system = System(params)
    system.attach_workload(random_traces(4, seed=7))
    system.run()  # data-value invariant checked inside the caches
    check_swmr(system)


@pytest.mark.parametrize("config", ["pushack", "ordpush", "msp"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_push_write_races_preserve_invariants(config: str,
                                              seed: int) -> None:
    """Write-heavy sharing maximizes push-vs-invalidation races."""
    params = make_params(config, num_cores=4, l2_kb=8, llc_slice_kb=32,
                         l1_kb=4)
    system = System(params)
    system.attach_workload(random_traces(4, seed=seed, accesses=400,
                                         lines=32, write_frac=0.4))
    system.run()
    check_swmr(system)


@pytest.mark.parametrize("config", ["pushack", "ordpush"])
def test_16core_push_heavy_coherent(config: str) -> None:
    params = make_params(config, num_cores=16, l2_kb=8, llc_slice_kb=32,
                         l1_kb=4)
    system = System(params)
    system.attach_workload(random_traces(16, seed=11, accesses=200,
                                         lines=64, write_frac=0.25))
    system.run()
    check_swmr(system)


def test_version_monotonicity_at_llc() -> None:
    """Line versions at the LLC only ever grow."""
    params = make_params("ordpush", num_cores=4, l2_kb=8,
                         llc_slice_kb=32, l1_kb=4)
    system = System(params)
    system.attach_workload(random_traces(4, seed=3, write_frac=0.5))
    system.run()
    assert all(version >= 0 for version in system.versions.values())
    assert any(version > 0 for version in system.versions.values())
