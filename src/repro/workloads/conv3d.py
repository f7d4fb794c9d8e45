"""conv3d — 3D convolution (Gem Forge kernel [58]).

Every output channel re-reads the shared input activation tile; threads
work on neighbouring output rows, so their input windows overlap.  The
input exceeds the private L2 once weights and partial sums occupy it,
producing repeated read-shared misses across channels — a push-friendly
medium-to-high-sharing workload.

Paper input: 256x256, 16 in / 64 out channels.  Scaled default: a
768-line input tile re-read over 4 output channels.
"""

from __future__ import annotations

import random
from typing import List

from repro.cpu.traces import BARRIER
from repro.workloads.base import AddressSpace, access, jittered, scan, stagger


def build(num_cores: int, seed: int = 1, input_lines: int = 768,
          out_channels: int = 4, window_frac: float = 0.8, work: int = 2,
          pair_skew: int = 160) -> List:
    """Per-core traces for conv3d."""
    space = AddressSpace(arena=6)
    tile = space.region("input_tile", input_lines)
    kernels = space.region("kernels", 32)
    outs = [space.region(f"out{c}", 128) for c in range(num_cores)]
    scratch = space.region("scratch", num_cores)
    window = max(1, int(input_lines * window_frac))

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        mine = outs[core]
        # Each core's window slides with its rank: neighbours overlap.
        start = (core * (input_lines - window)) // max(num_cores - 1, 1)
        for channel in range(out_channels):
            yield stagger(core, rng, pair_skew, scratch)
            yield from scan(kernels, 0, kernels.lines, work, rng, pc=0x60)
            for offset in range(window):
                yield access(tile.addr(start + offset),
                             jittered(work, rng), 0x61)
                if offset % 8 == 0:
                    yield access(mine.addr(offset // 8),
                                 jittered(work, rng), 0x62, is_write=True)
            yield BARRIER

    return [trace(core) for core in range(num_cores)]
