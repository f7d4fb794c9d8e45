#!/usr/bin/env python3
"""Build a custom workload against the raw System API.

Shows the lower-level interface the named-workload runner wraps: write
your own per-core trace generators (here, a producer-consumer-flavoured
pipeline where stage N's cores re-read what stage N-1 wrote), attach
them to a configured System, and inspect the statistics directly.

Each round the writers fill a stage buffer and the readers read it
twice.  The buffer is twice the scaled 32 KB L2, so the second pass
misses again, and its GETS comes from a core the directory already
lists as a sharer: the re-miss on which ``ordpush`` multicasts the line
to the other sharers.  Read once per round, no line would be pushed.

Usage::

    python examples/custom_workload.py
"""

from __future__ import annotations

import random

from repro.cpu.traces import BARRIER, MemAccess
from repro.sim.config import bench_kwargs, make_params
from repro.sim.results import collect_result
from repro.sim.system import System

NUM_CORES = 16
STAGE_LINES = 1024  # 64 KB: twice the scaled L2
ROUNDS = 3
BASE = 0x4000000


def pipeline_trace(core: int):
    """Two stage groups: writers produce a buffer, readers consume it."""
    rng = random.Random(42 + core)
    writer = core < NUM_CORES // 2
    for round_id in range(ROUNDS):
        # per-round jitter so the readers' shared re-reads spread out
        yield MemAccess(addr=BASE + 0x200000 + core * 64,
                        work=rng.randrange(0, 1500))
        if writer:
            for line in range(core, STAGE_LINES, NUM_CORES // 2):
                yield MemAccess(addr=BASE + line * 64, is_write=True,
                                work=3 + rng.randrange(0, 4))
        yield BARRIER
        if not writer:
            for _ in range(2):
                for line in range(STAGE_LINES):
                    yield MemAccess(addr=BASE + line * 64,
                                    work=2 + rng.randrange(0, 3))
        yield BARRIER


def run(config: str):
    params = make_params(config, num_cores=NUM_CORES, **bench_kwargs())
    system = System(params)
    system.attach_workload([pipeline_trace(c) for c in range(NUM_CORES)])
    cycles = system.run()
    return collect_result(system, "pipeline", config, cycles), system


def main() -> None:
    print("Producer-consumer pipeline on the raw System API\n")
    baseline, _ = run("noprefetch")
    ordpush, system = run("ordpush")

    print(f"noprefetch: {baseline.summary()}")
    print(f"ordpush   : {ordpush.summary()}")
    print()
    print(f"speedup      : {ordpush.speedup_over(baseline):.2f}x")
    print(f"traffic      : {ordpush.traffic_vs(baseline):.2f} of baseline")
    print(f"pushes       : {ordpush.pushes_triggered} triggered, "
          f"accuracy {ordpush.push_accuracy():.0%}")
    print()
    print("push usage breakdown:")
    for name, value in ordpush.push_usage.items():
        print(f"  {name:24s} {value}")
    print()
    print("per-router filter activity (registrations / filtered):")
    for router in system.network.routers[:4]:
        print(f"  router {router.id}: "
              f"{router.stats.get('filter_registrations')} / "
              f"{router.stats.get('requests_filtered')}")


if __name__ == "__main__":
    main()
