"""Precompiled trace buffers: workload traces as flat integer columns.

Running a workload generator is pure Python executed access by access —
``next()`` through nested generators, a ``NamedTuple`` allocation per
record — and a sweep re-pays it for every configuration sharing the
same ``(workload, num_cores, seed, sizes)`` point.  A
:class:`TraceBuffer` materializes one core's trace once into parallel
``array('q')`` columns; the :class:`~repro.cpu.core.Core` then drives
its issue loop from an integer cursor over the columns, never touching
a record object.

Row *i* of a buffer is one trace record.  ``addr[i] < 0`` is the
barrier sentinel (real addresses are non-negative byte addresses); the
other columns are zero on a barrier row.

Compilation works in bulk, not record by record: :meth:`TraceBuffer.compile`
pulls :data:`COMPILE_CHUNK` records at a time, maps :data:`BARRIER` to
its row, transposes the chunk with ``zip(*rows)`` and extends each
column with it, so the per-record work runs in C and transient memory
is one chunk, never the whole trace.  What is left per record is the
generator itself; :func:`repro.workloads.base.access` and ``scan`` keep
that to the random draws and one ``tuple.__new__``.

:class:`TraceCache` stores compiled buffers in two layers: an
in-process memo keyed by the trace's content hash, and the unified
content-addressed store's ``traces`` namespace (:mod:`repro.store`) —
the same root as the sweep's result cache (``.repro_cache/``,
relocatable with ``REPRO_CACHE_DIR``) — so sweep worker processes and
later sessions share one compilation per point.  Serialization is a
fixed little-endian layout, so the same ``(workload, num_cores, seed,
sizes)`` produces byte-identical objects across processes; corrupt or
truncated entries are treated as misses.
"""

from __future__ import annotations

import array
import hashlib
import json
import struct
import sys
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Union

from repro.cpu.traces import BARRIER, MemAccess, TraceRecord
from repro.store import TRACE_SCHEMA_VERSION, Store

__all__ = ["TRACE_SCHEMA_VERSION", "TraceBuffer", "TraceCache",
           "dump_buffers", "load_buffers", "trace_key"]

_MAGIC = b"RTB1"
_COLUMNS = ("addr", "is_write", "work", "insts", "pc")
#: the row a :data:`BARRIER` compiles to
_BARRIER_ROW = (-1, 0, 0, 0, 0)
#: records :meth:`TraceBuffer.compile` transposes per step
COMPILE_CHUNK = 4096


class TraceBuffer:
    """One core's trace as parallel ``array('q')`` columns.

    Immutable once compiled: the consuming core keeps its own cursor,
    so one buffer is shared freely across runs and configurations.
    """

    __slots__ = _COLUMNS

    def __init__(self, addr: array.array, is_write: array.array,
                 work: array.array, insts: array.array,
                 pc: array.array) -> None:
        self.addr = addr
        self.is_write = is_write
        self.work = work
        self.insts = insts
        self.pc = pc

    @classmethod
    def compile(cls, records: Iterable[TraceRecord]) -> "TraceBuffer":
        """Materialize a record iterable (e.g. a live generator).

        Records are pulled :data:`COMPILE_CHUNK` at a time, transposed
        with ``zip(*rows)`` and appended column by column, so the
        per-record work runs in C and the transient rows never exceed
        one chunk, however long the trace.
        """
        addr, is_write, work, insts, pc = (array.array("q")
                                           for _ in _COLUMNS)
        records = iter(records)
        while True:
            rows = [_BARRIER_ROW if record is BARRIER else record
                    for record in islice(records, COMPILE_CHUNK)]
            if not rows:
                return cls(addr, is_write, work, insts, pc)
            chunk_addr, chunk_write, chunk_work, chunk_insts, chunk_pc = (
                zip(*rows))
            addr.extend(chunk_addr)
            is_write.extend(map(bool, chunk_write))  # any truthy flag -> 1
            work.extend(chunk_work)
            insts.extend(chunk_insts)
            pc.extend(chunk_pc)

    def __len__(self) -> int:
        return len(self.addr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceBuffer):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in _COLUMNS)

    def records(self) -> Iterator[TraceRecord]:
        """Decode back into record objects (tests and debugging)."""
        for i in range(len(self.addr)):
            a = self.addr[i]
            if a < 0:
                yield BARRIER
            else:
                yield MemAccess(a, bool(self.is_write[i]), self.work[i],
                                self.insts[i], self.pc[i])

    def __repr__(self) -> str:
        return f"TraceBuffer({len(self)} records)"


# ---------------------------------------------------------------------
# serialization (one file = every core's buffer for one trace point)
# ---------------------------------------------------------------------

def dump_buffers(buffers: List[TraceBuffer]) -> bytes:
    """Serialize per-core buffers to a deterministic byte string."""
    parts = [_MAGIC, struct.pack("<I", len(buffers))]
    for buf in buffers:
        parts.append(struct.pack("<Q", len(buf)))
        for name in _COLUMNS:
            col = getattr(buf, name)
            if sys.byteorder != "little":
                col = array.array("q", col)
                col.byteswap()
            parts.append(col.tobytes())
    return b"".join(parts)


def load_buffers(blob: bytes) -> List[TraceBuffer]:
    """Inverse of :func:`dump_buffers`; raises ValueError on corruption."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a trace-buffer file")
    (count,) = struct.unpack_from("<I", blob, 4)
    offset = 8
    buffers = []
    for _ in range(count):
        if offset + 8 > len(blob):
            raise ValueError("truncated trace-buffer file")
        (n,) = struct.unpack_from("<Q", blob, offset)
        offset += 8
        nbytes = n * 8
        columns = []
        for _name in _COLUMNS:
            chunk = blob[offset:offset + nbytes]
            if len(chunk) != nbytes:
                raise ValueError("truncated trace-buffer file")
            col = array.array("q")
            col.frombytes(chunk)
            if sys.byteorder != "little":
                col.byteswap()
            offset += nbytes
            columns.append(col)
        buffers.append(TraceBuffer(*columns))
    return buffers


# ---------------------------------------------------------------------
# content addressing and the two-layer cache
# ---------------------------------------------------------------------

def trace_key(workload: str, num_cores: int, seed: int,
              sizes: Dict) -> str:
    """Stable content hash of everything that determines a trace."""
    spec = {
        "schema": TRACE_SCHEMA_VERSION,
        "workload": workload,
        "num_cores": num_cores,
        "seed": seed,
        "sizes": sizes,
    }
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                           default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TraceCache:
    """In-process memo + on-disk store of compiled trace buffers.

    ``builds`` counts actual generator materializations;
    ``memo_hits`` / ``disk_hits`` count reuse, which is how the sweep
    tests prove each point's trace is compiled exactly once.

    The memo is unbounded: a sweep's pool workers live for that one
    sweep, so a worker's memo holds no more traces than the in-process
    (``jobs=1``) path holds for the same grid.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._root = root
        self.memo: Dict[str, List[TraceBuffer]] = {}
        self.builds = 0
        self.memo_hits = 0
        self.disk_hits = 0

    def get_or_build(self, key: str,
                     build: Callable[[], List[TraceBuffer]]
                     ) -> List[TraceBuffer]:
        """The cached buffers for ``key``, compiling on first use."""
        buffers = self.memo.get(key)
        if buffers is not None:
            self.memo_hits += 1
            return buffers
        # resolved per call, so a repointed REPRO_CACHE_DIR takes effect
        store = Store(self._root)
        blob = store.get("traces", key)
        if blob is not None:
            try:
                buffers = load_buffers(blob)
            except ValueError:
                buffers = None
        if buffers is not None:
            self.disk_hits += 1
            self.memo[key] = buffers
            return buffers
        buffers = build()
        self.builds += 1
        self.memo[key] = buffers
        store.set("traces", key, dump_buffers(buffers))
        return buffers

