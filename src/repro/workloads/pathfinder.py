"""pathfinder — dynamic-programming grid traversal (Rodinia [14]).

Row-by-row wavefront: each core owns a column segment, reads the
previous row's segment plus one halo line on each side (neighbour
sharing, degree 2-3) and writes the current row's segment.  Low sharing
degree makes pushes nearly neutral here, as in the paper.

Paper input: 1.5M entries, 8 iterations.  Scaled default: rows of
``num_cores * seg_lines`` lines over 8 iterations.
"""

from __future__ import annotations

import random
from typing import List

from repro.cpu.traces import BARRIER
from repro.workloads.base import AddressSpace, access, jittered, scan, stagger


def build(num_cores: int, seed: int = 1, seg_lines: int = 24,
          iters: int = 8, work: int = 3, pair_skew: int = 60) -> List:
    """Per-core traces for pathfinder."""
    space = AddressSpace(arena=9)
    row_lines = num_cores * seg_lines
    rows = [space.region(f"row{i}", row_lines) for i in range(2)]
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        for it in range(iters):
            prev, cur = rows[it % 2], rows[(it + 1) % 2]
            yield stagger(core, rng, pair_skew, scratch)
            start = core * seg_lines
            # Halo reads from the neighbours' segments.
            yield access(prev.addr(start - 1), jittered(work, rng), 0x90)
            yield from scan(prev, start, seg_lines, work, rng, pc=0x91)
            yield access(prev.addr(start + seg_lines),
                         jittered(work, rng), 0x92)
            yield from scan(cur, start, seg_lines, work, rng, pc=0x93,
                            is_write=True)
            yield BARRIER

    return [trace(core) for core in range(num_cores)]
