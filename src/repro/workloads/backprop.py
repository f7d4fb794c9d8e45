"""backprop — neural-network training layer (Rodinia [14]).

Each training step reads the shared weight matrix and per-core private
activations, then writes private deltas.  Cores touch *overlapping
halves* of the weight rows (their assigned output neurons), so sharer
lists are broad but any given push lands on several cores that will not
reuse the line before eviction — the cache-pollution case of Fig. 12,
where backprop shows a large Unused fraction yet still profits from the
multicast traffic savings.

Paper input: 64K units.  Scaled default: weights at ~1.5x the bench L2.
"""

from __future__ import annotations

import random
from typing import List

from repro.cpu.traces import BARRIER
from repro.workloads.base import AddressSpace, access, jittered, scan, stagger


def build(num_cores: int, seed: int = 1, weight_lines: int = 768,
          private_lines: int = 256, iters: int = 3, work: int = 2,
          pair_skew: int = 80) -> List:
    """Per-core traces for backprop."""
    space = AddressSpace(arena=3)
    weights = space.region("weights", weight_lines)
    privates = [space.region(f"act{c}", private_lines)
                for c in range(num_cores)]
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        mine = privates[core]
        for _ in range(iters):
            yield stagger(core, rng, pair_skew, scratch)
            # Forward pass: every core strides through its half of the
            # weight rows (odd/even split overlaps across core pairs).
            parity = core % 2
            for row in range(parity, weight_lines, 2):
                yield access(weights.addr(row), jittered(work, rng), 0x30)
                if row % 8 == parity:
                    yield access(mine.addr(row // 8),
                                 jittered(work, rng), 0x31)
            # Backward pass: write private deltas.
            yield from scan(mine, 0, private_lines, work, rng,
                            pc=0x32, is_write=True)
            yield BARRIER

    return [trace(core) for core in range(num_cores)]
