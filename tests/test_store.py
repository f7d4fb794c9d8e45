"""Unified content-addressed store: objects, indexes, sync, GC.

The contracts under test (see :mod:`repro.store`): objects are
immutable blobs named by the SHA-256 of their stored bytes (verified
on every read); typed indexes own schema versions and the single
fallback path; stats, GC and clear touch only the ``index/`` and
``objects/`` trees, never a foreign file under the root; push/pull
between two roots moves only the objects the other side lacks.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

import pytest

from repro.sim.checkpoint import CheckpointStore
from repro.sim.sweep import ResultCache
from repro.store import (RESULT_SCHEMA_VERSION, LocalBackend, ObjectStore,
                         Store, cache_root, open_backend, pull, push)


class TestCacheRoot:
    def test_env_fallback_chain(self, tmp_path, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(cache_root()) == ".repro_cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert cache_root() == tmp_path
        assert cache_root(tmp_path / "x") == tmp_path / "x"

    def test_every_cache_resolves_through_it(self, tmp_path,
                                             monkeypatch) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert ResultCache().root == tmp_path
        assert Store().root == tmp_path
        ckpt_entry = CheckpointStore().path_for("a" * 64)
        assert ckpt_entry is not None and tmp_path in ckpt_entry.parents


class TestObjectStore:
    def test_raw_round_trip_and_digest(self, tmp_path) -> None:
        objects = ObjectStore(LocalBackend(tmp_path))
        payload = b"some payload bytes"
        digest, size = objects.put_bytes(payload)
        assert digest == hashlib.sha256(payload).hexdigest()
        assert size == len(payload)
        assert objects.get_bytes(digest) == payload
        assert (tmp_path / "objects" / digest[:2] / digest[2:]).is_file()

    def test_gzip_round_trip(self, tmp_path) -> None:
        objects = ObjectStore(LocalBackend(tmp_path))
        payload = b"x" * 10_000
        digest, size = objects.put_bytes(payload, "gzip")
        assert size < len(payload)  # actually compressed
        assert objects.get_bytes(digest, "gzip") == payload

    def test_stream_equals_bytes(self, tmp_path) -> None:
        """Chunked and one-shot writes of equal payloads produce the
        same object (deterministic streaming gzip)."""
        objects = ObjectStore(LocalBackend(tmp_path))
        payload = bytes(range(256)) * 64
        whole = objects.put_bytes(payload, "gzip")
        chunked = objects.put_stream(
            (payload[i:i + 100] for i in range(0, len(payload), 100)),
            "gzip")
        assert whole == chunked
        raw_whole = objects.put_bytes(payload, "raw")
        raw_chunked = objects.put_stream(
            (payload[:1000], payload[1000:]), "raw")
        assert raw_whole == raw_chunked

    def test_read_verifies_digest(self, tmp_path) -> None:
        objects = ObjectStore(LocalBackend(tmp_path))
        digest, _ = objects.put_bytes(b"trusted")
        (tmp_path / "objects" / digest[:2] / digest[2:]).write_bytes(
            b"tampered")
        with pytest.raises(ValueError, match="corrupt object"):
            objects.get_bytes(digest)

    def test_dedup_one_object_many_keys(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b"shared payload"
        store.index("results").put_bytes("k" * 64, payload)
        store.index("results").put_bytes("j" * 64, payload)
        assert len(list(store.objects.digests())) == 1


class TestIndexTyping:
    @pytest.mark.parametrize("bad", ["", "a/b", "../escape", "a" * 129,
                                     "sp ace", "nul\0"])
    def test_rejects_malformed_keys(self, tmp_path, bad) -> None:
        index = Store(tmp_path).index("results")
        with pytest.raises(ValueError, match="bad index key"):
            index.put_bytes(bad, b"x")
        with pytest.raises(ValueError, match="bad index key"):
            index.get_bytes(bad)

    def test_namespaces_are_disjoint(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.index("results").put_bytes("k" * 64, b"a result")
        assert store.index("traces").get_bytes("k" * 64) is None
        assert list(store.index("traces").keys()) == []

    def test_entry_records_namespace_schema(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.index("results").put_bytes("k" * 64, b"payload")
        entry = store.index("results").read_entry("k" * 64)
        assert entry["schema"] == RESULT_SCHEMA_VERSION
        assert entry["codec"] == "raw"


class TestEntryMeta:
    def test_meta_round_trips_through_entry(self, tmp_path) -> None:
        index = Store(tmp_path).index("results")
        entry = index.put_bytes("m" * 64, b"{}",
                                meta={"wall": 1.25, "cost": "c" * 64})
        assert entry["wall"] == 1.25
        read = index.read_entry("m" * 64)
        assert read["wall"] == 1.25 and read["cost"] == "c" * 64
        # meta never leaks into the payload
        assert index.get_bytes("m" * 64) == b"{}"

    def test_meta_cannot_shadow_store_fields(self, tmp_path) -> None:
        index = Store(tmp_path).index("results")
        with pytest.raises(ValueError, match="shadow"):
            index.put_bytes("m" * 64, b"{}", meta={"digest": "forged"})

    def test_entries_iterates_trusted_only(self, tmp_path) -> None:
        index = Store(tmp_path).index("results")
        index.put_bytes("a" * 64, b"{}", meta={"wall": 2.0})
        index.put_bytes("b" * 64, b"{}")
        (tmp_path / "index" / "results" / ("x" * 64 + ".json")
         ).write_text("{corrupt")
        entries = dict(index.entries())
        assert set(entries) == {"a" * 64, "b" * 64}
        assert entries["a" * 64]["wall"] == 2.0

    def test_has_is_entry_level(self, tmp_path) -> None:
        index = Store(tmp_path).index("ckpt")
        assert not index.has("h" * 64)
        index.put_bytes("h" * 64, b'{"version": 1}')
        assert index.has("h" * 64)


class TestFallbackPolicy:
    def test_corrupt_entry_misses_silently_for_results(self,
                                                       tmp_path) -> None:
        import warnings as warnmod
        index = Store(tmp_path).index("results")
        index.put_bytes("k" * 64, b"payload")
        index.entry_path("k" * 64).write_text("{not json")
        with warnmod.catch_warnings(record=True) as caught:
            warnmod.simplefilter("always")
            assert index.get_bytes("k" * 64) is None
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_corrupt_entry_warns_for_ckpt(self, tmp_path) -> None:
        index = Store(tmp_path).index("ckpt")
        index.put_bytes("k" * 64, b'{"version": 1}')
        index.entry_path("k" * 64).write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert index.get_bytes("k" * 64) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path) -> None:
        index = Store(tmp_path).index("results")
        index.put_bytes("k" * 64, b"payload")
        path = index.entry_path("k" * 64)
        entry = json.loads(path.read_text())
        entry["schema"] += 1
        path.write_text(json.dumps(entry))
        assert index.get_bytes("k" * 64) is None

    def test_missing_object_warns_for_ckpt(self, tmp_path) -> None:
        store = Store(tmp_path)
        index = store.index("ckpt")
        index.put_bytes("k" * 64, b'{"version": 1}')
        entry = index.read_entry("k" * 64)
        store.object_path(entry["digest"]).unlink()
        with pytest.warns(RuntimeWarning, match="missing object"):
            assert index.get_bytes("k" * 64) is None


class TestAtomicity:
    def test_no_tmp_leak_on_write_failure(self, tmp_path) -> None:
        backend = LocalBackend(tmp_path)
        backend.write("objects/ab/cd", b"fine")
        with pytest.raises(TypeError):
            backend.write("objects/ab/ef", object())  # not bytes
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert not leftovers

    def test_concurrent_writers_never_tear(self, tmp_path) -> None:
        """Racing writers to one key: every read returns a complete
        payload from the written set, never a splice."""
        store = Store(tmp_path)
        payloads = [bytes([n]) * 4096 for n in range(4)]
        valid = set(payloads)
        errors = []
        stop = threading.Event()

        def writer(payload: bytes) -> None:
            index = Store(tmp_path).index("results")
            for _ in range(30):
                index.put_bytes("k" * 64, payload)

        def reader() -> None:
            index = Store(tmp_path).index("results")
            while not stop.is_set():
                data = index.get_bytes("k" * 64)
                if data is not None and data not in valid:
                    errors.append(len(data))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors
        assert store.index("results").get_bytes("k" * 64) in valid
        assert not list(tmp_path.rglob("*.tmp"))


class TestForeignFiles:
    """The store owns ``index/`` and ``objects/`` and nothing else: a
    stray file elsewhere under the root is never read, counted or
    deleted, even where the pre-unification layout kept its caches."""

    FOREIGN = ("settings.json", "ckpt/notes.json.gz")

    def _tree(self, root) -> Store:
        store = Store(root)
        store.index("results").put_bytes("r" * 64, b'{"cycles": 1}')
        store.index("traces").put_bytes("t" * 64, b"buffers")
        store.index("ckpt").put_bytes("c" * 64, b'{"version": 1}')
        (root / "ckpt").mkdir()
        for rel in self.FOREIGN:
            (root / rel).write_bytes(b"not the store's")
        return store

    def _assert_foreign_intact(self, root) -> None:
        for rel in self.FOREIGN:
            assert (root / rel).read_bytes() == b"not the store's"

    def test_stats_count_only_entries(self, tmp_path) -> None:
        store = self._tree(tmp_path)
        stats = store.stats()
        object_bytes = sum(store.objects.stat(d)[0]
                           for d in store.objects.digests())
        assert stats["total"] == {"entries": 3, "bytes": object_bytes}
        for section in ("results", "traces", "checkpoints"):
            assert stats[section]["entries"] == 1

    def test_gc_evicts_only_entries(self, tmp_path) -> None:
        store = self._tree(tmp_path)
        report = store.gc(0)
        assert report["removed"] == 3
        assert report["remaining_bytes"] == 0
        assert store.stats()["total"] == {"entries": 0, "bytes": 0}
        self._assert_foreign_intact(tmp_path)

    def test_result_cache_clear_leaves_foreign_files(self, tmp_path) -> None:
        store = self._tree(tmp_path)
        assert ResultCache(tmp_path).clear() == 1
        assert store.stats()["total"]["entries"] == 2
        self._assert_foreign_intact(tmp_path)

    def test_lookup_never_adopts_a_foreign_file(self, tmp_path) -> None:
        store = self._tree(tmp_path)
        assert store.index("results").get_bytes("settings") is None
        assert not store.index("ckpt").has("notes")
        self._assert_foreign_intact(tmp_path)


class TestPushPull:
    def test_push_then_pull_round_trip(self, tmp_path) -> None:
        a, b = tmp_path / "a", tmp_path / "b"
        sa = Store(a)
        sa.index("results").put_bytes("k" * 64, b"record")
        sa.index("ckpt").put_bytes("c" * 64, b'{"version": 1}')
        report = push(sa, b)
        assert report["total"]["entries"] == 2
        assert report["total"]["objects"] == 2
        assert report["total"]["bytes"] > 0
        assert Store(b).index("results").get_bytes("k" * 64) == b"record"
        c = tmp_path / "c"
        pull(Store(c), b)
        assert Store(c).index("ckpt").get_bytes("c" * 64) == \
            b'{"version": 1}'

    def test_only_missing_objects_transfer(self, tmp_path) -> None:
        a, b = tmp_path / "a", tmp_path / "b"
        sa, sb = Store(a), Store(b)
        sa.index("results").put_bytes("k" * 64, b"shared")
        # the destination already holds the object under another key
        sb.index("results").put_bytes("j" * 64, b"shared")
        report = push(sa, sb)
        assert report["results"]["entries"] == 1  # the new key's entry
        assert report["results"]["objects"] == 0  # but no object moved
        assert report["results"]["bytes"] == 0
        # and a repeat push moves nothing at all
        assert push(sa, sb)["total"] == {"entries": 0, "objects": 0,
                                         "bytes": 0}

    def test_remote_url_and_unknown_scheme(self, tmp_path) -> None:
        backend = open_backend(f"file://{tmp_path}/remote")
        assert isinstance(backend, LocalBackend)
        assert backend.local_root() == tmp_path / "remote"
        backend.write("index/results/probe.json", b"{}")
        assert (tmp_path / "remote" / "index" / "results" /
                "probe.json").read_bytes() == b"{}"
        with pytest.raises(ValueError, match="unsupported remote scheme"):
            open_backend("s3://bucket/prefix")


class TestGCRefcounting:
    def test_object_survives_until_last_reference(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b"z" * 1000
        store.index("results").put_bytes("k" * 64, payload)
        store.index("results").put_bytes("j" * 64, payload)
        os.utime(store.index("results").entry_path("k" * 64), (1, 1))
        digest = store.index("results").read_entry("k" * 64)["digest"]
        # Evicting one of two same-payload entries frees no bytes: the
        # shared object stays while a reference remains.
        report = store.gc(len(payload))
        assert report["removed"] == 1
        assert store.objects.has(digest)
        assert store.gc(0)["remaining_bytes"] == 0
        assert not store.objects.has(digest)

    def test_clear_respects_cross_namespace_refs(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b'{"version": 1}'
        store.index("results").put_bytes("k" * 64, payload)
        digest = store.index("results").read_entry("k" * 64)["digest"]
        store.index("results").clear()
        assert not store.objects.has(digest)
