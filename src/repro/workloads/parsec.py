"""PARSEC simlarge proxies — the paper's low-load general workloads.

The five PARSEC benchmarks the paper runs (blackscholes, bodytrack,
fluidanimate, freqmine, swaptions) all show low NoC load and little
read-sharing pressure; Push Multicast is neutral on them because the
dynamic knob keeps pushing paused.  Each proxy reproduces the
benchmark's qualitative memory profile at low injection rates (large
compute gaps).
"""

from __future__ import annotations

import random
from typing import List

from repro.cpu.traces import BARRIER
from repro.workloads.base import AddressSpace, access, jittered, scan, stagger


def _blackscholes(num_cores: int, seed: int, space: AddressSpace,
                  options_per_core: int, work: int) -> List:
    """Independent option pricing: private streaming, no sharing."""
    regions = [space.region(f"opts{c}", options_per_core)
               for c in range(num_cores)]
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        yield stagger(core, rng, 30, scratch)
        yield from scan(regions[core], 0, options_per_core, work, rng,
                        pc=0xB0)
        yield from scan(regions[core], 0, options_per_core, work, rng,
                        pc=0xB1, is_write=True)
        yield BARRIER

    return [trace(core) for core in range(num_cores)]


def _bodytrack(num_cores: int, seed: int, space: AddressSpace,
               frame_lines: int, work: int) -> List:
    """Small shared frame re-read by all cores + private particles."""
    frame = space.region("frame", frame_lines)
    privates = [space.region(f"part{c}", 64) for c in range(num_cores)]
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        for _ in range(3):
            yield stagger(core, rng, 60, scratch)
            yield from scan(frame, 0, frame_lines, work, rng, pc=0xB2)
            yield from scan(privates[core], 0, 64, work, rng, pc=0xB3,
                            is_write=True)
            yield BARRIER

    return [trace(core) for core in range(num_cores)]


def _fluidanimate(num_cores: int, seed: int, space: AddressSpace,
                  cell_lines: int, work: int) -> List:
    """Spatial cells: own partition + neighbour halo, light writes."""
    cells = space.region("cells", cell_lines * num_cores)
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        start = core * cell_lines
        for _ in range(3):
            yield stagger(core, rng, 50, scratch)
            yield from scan(cells, start - 4, cell_lines + 8, work, rng,
                            pc=0xB4)
            yield from scan(cells, start, cell_lines, work, rng,
                            pc=0xB5, is_write=True)
            yield BARRIER

    return [trace(core) for core in range(num_cores)]


def _freqmine(num_cores: int, seed: int, space: AddressSpace,
              tree_lines: int, work: int) -> List:
    """Irregular reads of a shared FP-tree, low intensity."""
    tree = space.region("fptree", tree_lines)
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        yield stagger(core, rng, 40, scratch)
        for _ in range(600):
            node = rng.randrange(tree_lines)
            yield access(tree.addr(node), jittered(work, rng, 8), 0xB6)
        yield BARRIER

    return [trace(core) for core in range(num_cores)]


def _swaptions(num_cores: int, seed: int, space: AddressSpace,
               path_lines: int, work: int) -> List:
    """Monte-Carlo simulation: tiny working set, compute-bound."""
    privates = [space.region(f"paths{c}", path_lines)
                for c in range(num_cores)]
    scratch = space.region("scratch", num_cores)

    def trace(core: int):
        rng = random.Random(seed * 1000 + core)
        yield stagger(core, rng, 30, scratch)
        for _ in range(8):
            yield from scan(privates[core], 0, path_lines, work, rng,
                            pc=0xB7)
        yield BARRIER

    return [trace(core) for core in range(num_cores)]


def build_blackscholes(num_cores: int, seed: int = 1,
                       options_per_core: int = 256,
                       work: int = 30) -> List:
    return _blackscholes(num_cores, seed, AddressSpace(arena=11),
                         options_per_core, work)


def build_bodytrack(num_cores: int, seed: int = 1, frame_lines: int = 320,
                    work: int = 25) -> List:
    return _bodytrack(num_cores, seed, AddressSpace(arena=12),
                      frame_lines, work)


def build_fluidanimate(num_cores: int, seed: int = 1, cell_lines: int = 96,
                       work: int = 20) -> List:
    return _fluidanimate(num_cores, seed, AddressSpace(arena=13),
                         cell_lines, work)


def build_freqmine(num_cores: int, seed: int = 1, tree_lines: int = 512,
                   work: int = 18) -> List:
    return _freqmine(num_cores, seed, AddressSpace(arena=14),
                     tree_lines, work)


def build_swaptions(num_cores: int, seed: int = 1, path_lines: int = 96,
                    work: int = 35) -> List:
    return _swaptions(num_cores, seed, AddressSpace(arena=15),
                      path_lines, work)
