"""Precompiled trace buffers: fidelity, determinism, and the cache."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc

import repro

from repro.cpu.tracebuf import (COMPILE_CHUNK, TraceBuffer, TraceCache,
                                dump_buffers, load_buffers, trace_key)
from repro.cpu.traces import BARRIER, MemAccess
from repro.sim.runner import run_system, run_workload
from repro.sim.config import make_params
from repro.store import Store
from repro.workloads.registry import build_trace_buffers, build_traces

RECORDS = [
    MemAccess(addr=0x1000, is_write=False, work=3, pc=0x10),
    MemAccess(addr=0x1040, is_write=True, work=0, insts=7, pc=0x14),
    BARRIER,
    MemAccess(addr=0x2000, work=12, pc=0x20),
]


class TestTraceBuffer:
    def test_roundtrips_records(self) -> None:
        buf = TraceBuffer.compile(RECORDS)
        assert len(buf) == len(RECORDS)
        assert list(buf.records()) == RECORDS

    def test_barrier_sentinel_is_negative_addr(self) -> None:
        buf = TraceBuffer.compile(RECORDS)
        assert buf.addr[2] < 0
        assert all(a >= 0 for i, a in enumerate(buf.addr) if i != 2)

    def test_serialization_roundtrip(self) -> None:
        buffers = [TraceBuffer.compile(RECORDS), TraceBuffer.compile([])]
        loaded = load_buffers(dump_buffers(buffers))
        assert loaded == buffers

    def test_corrupt_blob_raises(self) -> None:
        blob = dump_buffers([TraceBuffer.compile(RECORDS)])
        for bad in (b"junk", blob[:-8]):
            try:
                load_buffers(bad)
            except ValueError:
                continue
            raise AssertionError("corruption not detected")


def _lazy_trace(n: int):
    """``n`` records made on demand: large addresses (no small-int
    cache), a barrier every 1000th row."""
    for i in range(n):
        if i % 1000 == 999:
            yield BARRIER
        else:
            yield MemAccess((1 << 40) + 64 * i, i % 3 == 0, i % 11,
                            i % 5, 0x100 + i % 7)


class TestCompile:
    def test_roundtrips_across_chunk_boundaries(self) -> None:
        """Chunk boundaries (short, exact, ragged) change nothing."""
        for n in (0, 1, COMPILE_CHUNK - 1, COMPILE_CHUNK,
                  2 * COMPILE_CHUNK + 5):
            records = list(_lazy_trace(n))
            buf = TraceBuffer.compile(iter(records))
            assert len(buf) == n
            assert list(buf.records()) == records

    def test_truthy_is_write_compiles_to_one(self) -> None:
        buf = TraceBuffer.compile([MemAccess(0x40, is_write=7)])
        assert list(buf.is_write) == [1]

    def test_peak_memory_bounded_by_one_chunk(self) -> None:
        """A long lazy trace never sits in memory as records: the peak
        stays within 2x the finished columns (a whole-trace transpose
        would hold every record object at once, several times that)."""
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            buf = TraceBuffer.compile(_lazy_trace(200_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        column_bytes = sum(
            getattr(buf, name).buffer_info()[1] * 8
            for name in ("addr", "is_write", "work", "insts", "pc"))
        assert len(buf) == 200_000
        assert peak <= 2 * column_bytes, (peak, column_bytes)


class TestDeterminism:
    POINT = ("mv", 8, 3, {"rows_per_core": 4})

    def _digest_in_process(self) -> str:
        name, cores, seed, sizes = self.POINT
        buffers = [TraceBuffer.compile(t)
                   for t in build_traces(name, cores, seed=seed, **sizes)]
        return hashlib.sha256(dump_buffers(buffers)).hexdigest()

    def test_byte_identical_across_processes(self) -> None:
        """Same (workload, seed, cores, sizes) -> same bytes anywhere."""
        name, cores, seed, sizes = self.POINT
        script = (
            "import hashlib\n"
            "from repro.workloads.registry import build_traces\n"
            "from repro.cpu.tracebuf import TraceBuffer, dump_buffers\n"
            f"traces = build_traces({name!r}, {cores}, seed={seed}, "
            f"**{sizes!r})\n"
            "blob = dump_buffers([TraceBuffer.compile(t) for t in traces])\n"
            "print(hashlib.sha256(blob).hexdigest())\n")
        env = dict(os.environ)
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, check=True, env=env)
        assert child.stdout.strip() == self._digest_in_process()

    def test_key_covers_all_inputs(self) -> None:
        base = trace_key("mv", 8, 3, {"rows_per_core": 4})
        assert base != trace_key("mv", 8, 4, {"rows_per_core": 4})
        assert base != trace_key("mv", 16, 3, {"rows_per_core": 4})
        assert base != trace_key("mv", 8, 3, {"rows_per_core": 5})
        assert base != trace_key("lud", 8, 3, {"rows_per_core": 4})


class TestTraceCache:
    def test_memo_shares_one_build_across_configs(self, tmp_path) -> None:
        cache = TraceCache(tmp_path)
        first = build_trace_buffers("mv", 4, seed=2, cache=cache,
                                    rows_per_core=4)
        second = build_trace_buffers("mv", 4, seed=2, cache=cache,
                                     rows_per_core=4)
        assert second is first  # same compiled object, not a copy
        assert (cache.builds, cache.memo_hits) == (1, 1)

    def test_disk_layer_shared_across_cache_instances(self,
                                                      tmp_path) -> None:
        """A second process (modelled by a fresh cache) reloads, not
        rebuilds."""
        writer = TraceCache(tmp_path)
        built = build_trace_buffers("mv", 4, seed=2, cache=writer,
                                    rows_per_core=4)
        reader = TraceCache(tmp_path)
        loaded = build_trace_buffers("mv", 4, seed=2, cache=reader,
                                     rows_per_core=4)
        assert (reader.builds, reader.disk_hits) == (0, 1)
        assert loaded == built

    def test_corrupt_file_rebuilds(self, tmp_path) -> None:
        cache = TraceCache(tmp_path)
        build_trace_buffers("mv", 4, seed=2, cache=cache, rows_per_core=4)
        key = trace_key("mv", 4, 2, {"rows_per_core": 4})
        Store(tmp_path).entry_path("traces", key).write_bytes(b"garbage")
        fresh = TraceCache(tmp_path)
        build_trace_buffers("mv", 4, seed=2, cache=fresh, rows_per_core=4)
        assert fresh.builds == 1 and fresh.disk_hits == 0


class TestBufferedCoreEquivalence:
    def test_buffered_run_matches_generator_run(self) -> None:
        """A core given live generators compiles them itself and runs
        exactly as one given pre-built buffers."""
        params = make_params("ordpush", num_cores=4)
        generator_run = run_system(
            params, build_traces("pathfinder", 4, seed=1, iters=4),
            workload="pathfinder", config="ordpush")
        buffered_run = run_system(
            params,
            [TraceBuffer.compile(t)
             for t in build_traces("pathfinder", 4, seed=1, iters=4)],
            workload="pathfinder", config="ordpush")
        assert buffered_run.to_dict() == generator_run.to_dict()

    def test_run_workload_uses_buffers(self, tmp_path, monkeypatch) -> None:
        from repro.workloads import registry

        monkeypatch.setattr(registry, "TRACE_CACHE", TraceCache(tmp_path))
        result = run_workload("pathfinder", "ordpush", num_cores=4,
                              iters=4, seed=7)
        assert result.cycles > 0
        assert registry.TRACE_CACHE.builds == 1
