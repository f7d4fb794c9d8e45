"""bfs — breadth-first search over an irregular graph (Rodinia [14]).

Frontier expansion touches node records essentially at random; a node's
line accumulates sharers over time, but re-references by the same core
are rare and reuse distances are long, so speculative pushes mostly
install lines that die unused.  This is the paper's push-*hostile*
workload: the dynamic knob must pause pushing (Fig. 17), while the
baseline's prefetchers still win on the sequential adjacency-list runs.

Paper input: 1M-4M nodes.  Scaled default: 2048 node lines, 600 visits
per core.
"""

from __future__ import annotations

import random
from typing import List

from repro.cpu.traces import BARRIER
from repro.workloads.base import AddressSpace, access, jittered, stagger

#: pointer chasing limits memory-level parallelism
SUGGESTED_WINDOW = 6


def build(num_cores: int, seed: int = 1, node_lines: int = 2048,
          visits_per_core: int = 400, hub_fraction: float = 0.1,
          work: int = 3, pair_skew: int = 40) -> List:
    """Per-core traces for bfs.

    Node degrees are power-law-ish: most nodes have short adjacency
    runs, a ``hub_fraction`` have long sequential ones — the lists the
    paper notes Bingo/stride can prefetch effectively, giving the
    baseline its bfs advantage.
    """
    space = AddressSpace(arena=10)
    nodes = space.region("nodes", node_lines)
    adjacency = space.region("adjacency", node_lines * 8)
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        yield stagger(core, rng, pair_skew, scratch)
        for _ in range(visits_per_core):
            node = rng.randrange(node_lines)
            yield access(nodes.addr(node), jittered(work, rng), 0xA0)
            if rng.random() < hub_fraction:
                run = rng.randrange(12, 25)  # hub node: long list
            else:
                run = rng.randrange(1, 7)
            for i in range(run):
                yield access(adjacency.addr(node * 8 + i),
                             jittered(work, rng), 0xA1)
        yield BARRIER

    return [trace(core) for core in range(num_cores)]
