"""Building blocks shared by the workload generators.

The generators reproduce the paper's traffic structure, which rests on
three ingredients:

* **capacity re-misses** — shared regions sized beyond the private L2,
  so previously-read shared lines are evicted before reuse (§II-B);
* **inter-sharer skew** — consecutive accesses to the same shared line
  from different cores land hundreds to thousands of cycles apart
  (Fig. 4), which is what lets a push cross later readers' requests in
  the network.  ``stagger`` emits the per-iteration scheduling jitter
  that produces this spread;
* **compute gaps** — per-access ``work`` controls network load (small
  gaps saturate the NoC; large gaps give the PARSEC-like low-load
  profile).

Addresses are handed out from disjoint 64 MiB arenas so regions never
alias across (or within) workloads.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.common.params import LINE_BYTES
from repro.cpu.traces import MemAccess

ARENA_BYTES = 64 * 1024 * 1024

_new = tuple.__new__


class Region:
    """A contiguous range of cache lines with a base byte address."""

    __slots__ = ("name", "base_line", "lines")

    def __init__(self, name: str, base_line: int, lines: int) -> None:
        self.name = name
        self.base_line = base_line
        self.lines = lines

    def addr(self, line_index: int) -> int:
        """Byte address of the given line within the region (wraps)."""
        return (self.base_line + line_index % self.lines) * LINE_BYTES

    def __repr__(self) -> str:
        return f"Region({self.name}, lines={self.lines})"


class AddressSpace:
    """Allocates non-overlapping regions inside one workload's arena."""

    def __init__(self, arena: int = 1) -> None:
        self._next_line = arena * (ARENA_BYTES // LINE_BYTES)

    def region(self, name: str, lines: int) -> Region:
        if lines < 1:
            raise ValueError("region must have at least one line")
        region = Region(name, self._next_line, lines)
        # Pad to keep regions set-index-decorrelated.
        self._next_line += lines + 64
        return region


#: Fig. 4's cumulative first-to-last sharer spread is "several thousand
#: cycles" on 16 cores; the spread reflects OoO/NUCA drift and does NOT
#: grow linearly with the core count, so offsets are drawn from a fixed
#: window of ``pair_skew * STAGGER_REF_CORES`` cycles.
STAGGER_REF_CORES = 16


def access(addr: int, work: int, pc: int,
           is_write: bool = False) -> MemAccess:
    """One trace record: ``MemAccess(addr, is_write, work, 0, pc)``.

    Built with ``tuple.__new__``: the same object the NamedTuple's
    constructor returns, without the Python frame of its keyword
    ``__new__``.
    """
    return _new(MemAccess, (addr, is_write, work, 0, pc))


def stagger(core: int, rng: random.Random, pair_skew: int,
            scratch: Region) -> MemAccess:
    """Per-iteration start offset reproducing the Fig. 4 sharer spread.

    ``pair_skew`` is the expected gap between consecutive sharers on a
    16-core system; each core draws a uniform offset from the implied
    total window, modelling random thread-speed variation.
    """
    spread = max(pair_skew, 1) * STAGGER_REF_CORES
    delay = rng.randrange(0, spread)
    return access(scratch.addr(core), delay, 0xFFFF)


def jittered(base_work: int, rng: random.Random, spread: int = 3) -> int:
    """A per-access compute gap with small random jitter."""
    return base_work + rng.randrange(0, max(spread, 1))


def scan(region: Region, start: int, count: int, base_work: int,
         rng: random.Random, pc: int, stride: int = 1,
         is_write: bool = False) -> Iterator[MemAccess]:
    """Sequentially scan ``count`` lines of a region.

    Most of every trace's records come from here, so :func:`access`,
    ``region.addr`` and :func:`jittered` are inlined over locals.
    """
    base = region.base_line
    lines = region.lines
    randrange = rng.randrange
    for i in range(count):
        yield _new(MemAccess, (
            (base + (start + i * stride) % lines) * LINE_BYTES, is_write,
            base_work + randrange(0, 3), 0, pc))
