"""The content-addressed store: objects, typed namespaces, sync, GC.

The contracts under test (see :mod:`repro.store`): objects are
immutable blobs named by the SHA-256 of their stored bytes (verified
on every read); namespaces own schema versions and the single
fallback path; stats, GC and clear touch only the ``index/`` and
``objects/`` trees, never a foreign file under the root; push/pull
between two roots moves only the objects the other side lacks, and
only objects that hash back to their name.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from pathlib import Path

import pytest

from repro.cpu.tracebuf import TraceCache, load_buffers
from repro.sim.checkpoint import CheckpointStore
from repro.sim.sweep import ResultCache
from repro.store import (RESULT_SCHEMA_VERSION, Store, cache_root, pull,
                         push)

#: A store written by the commit before the store became one module:
#: one ``results`` entry with the ``wall``/``cost`` scheduling meta
#: sweeps stamped then, one ``traces`` entry and one gzip ``ckpt``
#: entry.  Regenerate it (with the code of the day) only when a schema
#: version bump makes its entries stale.
PARENT_STORE = Path(__file__).parent / "data" / "store_parent"


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
        CheckpointStore().put("a" * 64, {})
        assert Store(tmp_path).entry_path("ckpt", "a" * 64).is_file()


class TestObjectStore:
    def test_raw_round_trip_and_digest(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b"some payload bytes"
        entry = store.set("results", "k" * 64, payload)
        digest = entry["digest"]
        assert digest == hashlib.sha256(payload).hexdigest()
        assert entry["size"] == len(payload)
        assert store.get("results", "k" * 64) == payload
        assert (tmp_path / "objects" / digest[:2] / digest[2:]).is_file()

    def test_gzip_round_trip(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b"x" * 10_000
        entry = store.set("ckpt", "k" * 64, payload)
        assert entry["codec"] == "gzip"
        assert entry["size"] < len(payload)  # actually compressed
        assert store.get("ckpt", "k" * 64) == payload

    def test_stream_equals_bytes(self, tmp_path) -> None:
        """Chunked and one-shot writes of equal payloads produce the
        same object (deterministic streaming gzip)."""
        store = Store(tmp_path)
        payload = bytes(range(256)) * 64
        whole = store.set("ckpt", "a" * 64, payload)
        chunked = store.set(
            "ckpt", "b" * 64,
            (payload[i:i + 100] for i in range(0, len(payload), 100)))
        assert whole == chunked
        raw_whole = store.set("results", "a" * 64, payload)
        raw_chunked = store.set("results", "b" * 64,
                                (payload[:1000], payload[1000:]))
        assert raw_whole == raw_chunked

    def test_read_verifies_digest(self, tmp_path) -> None:
        store = Store(tmp_path)
        digest = store.set("results", "k" * 64, b"trusted")["digest"]
        store.set("ckpt", "c" * 64, b"trusted")
        ckpt_digest = store.entry("ckpt", "c" * 64)["digest"]
        for name in (digest, ckpt_digest):
            store.object_path(name).write_bytes(b"tampered")
        assert store.get("results", "k" * 64) is None
        assert dict(store.get_many([digest])) == {digest: None}
        with pytest.warns(RuntimeWarning, match="does not match its digest"):
            assert store.get("ckpt", "c" * 64) is None
        # the failed read dropped the bad object, so a rebuild heals it
        store.set("ckpt", "c" * 64, b"trusted")
        assert store.get("ckpt", "c" * 64) == b"trusted"

    def test_dedup_one_object_many_keys(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b"shared payload"
        store.set("results", "k" * 64, payload)
        store.set("results", "j" * 64, payload)
        assert len([p for p in (tmp_path / "objects").rglob("*")
                    if p.is_file()]) == 1
        assert store.stats()["results"] == {"entries": 2,
                                            "bytes": 2 * len(payload)}


class TestIndexTyping:
    @pytest.mark.parametrize("bad", ["", "a/b", "../escape", "a" * 129,
                                     "sp ace", "nul\0"])
    def test_rejects_malformed_keys(self, tmp_path, bad) -> None:
        store = Store(tmp_path)
        with pytest.raises(ValueError, match="bad index key"):
            store.set("results", bad, b"x")
        with pytest.raises(ValueError, match="bad index key"):
            store.get("results", bad)
        assert not (tmp_path / "objects").exists()  # nothing written

    def test_namespaces_are_disjoint(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("results", "k" * 64, b"a result")
        assert store.get("traces", "k" * 64) is None
        assert list(store.entries("traces")) == []

    def test_entry_records_namespace_schema(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("results", "k" * 64, b"payload")
        entry = store.entry("results", "k" * 64)
        assert entry["schema"] == RESULT_SCHEMA_VERSION
        assert entry["codec"] == "raw"


class TestEntryMeta:
    def test_meta_round_trips_through_entry(self, tmp_path) -> None:
        store = Store(tmp_path)
        entry = store.set("results", "m" * 64, b"{}",
                          meta={"wall": 1.25, "cost": "c" * 64})
        assert entry["wall"] == 1.25
        read = store.entry("results", "m" * 64)
        assert read["wall"] == 1.25 and read["cost"] == "c" * 64
        # meta never leaks into the payload
        assert store.get("results", "m" * 64) == b"{}"

    def test_meta_cannot_shadow_store_fields(self, tmp_path) -> None:
        store = Store(tmp_path)
        with pytest.raises(ValueError, match="shadow"):
            store.set("results", "m" * 64, b"{}", meta={"digest": "forged"})
        assert not (tmp_path / "objects").exists()  # nothing written

    def test_entries_iterates_trusted_only(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("results", "a" * 64, b"{}", meta={"wall": 2.0})
        store.set("results", "b" * 64, b"{}")
        (tmp_path / "index" / "results" / ("x" * 64 + ".json")
         ).write_text("{corrupt")
        entries = dict(store.entries("results"))
        assert set(entries) == {"a" * 64, "b" * 64}
        assert entries["a" * 64]["wall"] == 2.0

    def test_has_is_entry_level(self, tmp_path) -> None:
        store = Store(tmp_path)
        assert store.entry("ckpt", "h" * 64) is None
        store.set("ckpt", "h" * 64, b'{"version": 1}')
        assert store.entry("ckpt", "h" * 64) is not None


class TestFallbackPolicy:
    def test_corrupt_entry_misses_silently_for_results(self,
                                                       tmp_path) -> None:
        import warnings as warnmod
        store = Store(tmp_path)
        store.set("results", "k" * 64, b"payload")
        store.entry_path("results", "k" * 64).write_text("{not json")
        with warnmod.catch_warnings(record=True) as caught:
            warnmod.simplefilter("always")
            assert store.get("results", "k" * 64) is None
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_corrupt_entry_warns_for_ckpt(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("ckpt", "k" * 64, b'{"version": 1}')
        store.entry_path("ckpt", "k" * 64).write_text("{not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get("ckpt", "k" * 64) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("results", "k" * 64, b"payload")
        path = store.entry_path("results", "k" * 64)
        entry = json.loads(path.read_text())
        entry["schema"] += 1
        path.write_text(json.dumps(entry))
        assert store.get("results", "k" * 64) is None
        assert store.entry("results", "k" * 64) is None

    def test_missing_object_warns_for_ckpt(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("ckpt", "k" * 64, b'{"version": 1}')
        entry = store.entry("ckpt", "k" * 64)
        store.object_path(entry["digest"]).unlink()
        with pytest.warns(RuntimeWarning, match="missing object"):
            assert store.get("ckpt", "k" * 64) is None


class TestAtomicity:
    def test_no_tmp_leak_on_write_failure(self, tmp_path,
                                          monkeypatch) -> None:
        store = Store(tmp_path)
        store.set("results", "a" * 64, b"fine")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            store.set("results", "b" * 64, b"never lands")
        monkeypatch.undo()
        leftovers = [p for p in tmp_path.rglob("*.tmp")]
        assert not leftovers
        assert store.get("results", "b" * 64) is None
        assert store.get("results", "a" * 64) == b"fine"

    def test_concurrent_writers_never_tear(self, tmp_path) -> None:
        """Racing writers to one key: every read returns a complete
        payload from the written set, never a splice."""
        store = Store(tmp_path)
        payloads = [bytes([n]) * 4096 for n in range(4)]
        valid = set(payloads)
        errors = []
        stop = threading.Event()

        def writer(payload: bytes) -> None:
            mine = Store(tmp_path)
            for _ in range(30):
                mine.set("results", "k" * 64, payload)

        def reader() -> None:
            mine = Store(tmp_path)
            while not stop.is_set():
                data = mine.get("results", "k" * 64)
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
        assert store.get("results", "k" * 64) in valid
        assert not list(tmp_path.rglob("*.tmp"))


class TestForeignFiles:
    """The store owns ``index/`` and ``objects/`` and nothing else: a
    stray file elsewhere under the root — or one inside those trees
    that is not named like an entry or an object — is never read,
    counted or deleted."""

    FOREIGN = ("settings.json", "ckpt/notes.json.gz", "objects/README",
               "objects/ab/not-a-digest", "index/results/notes.txt",
               "index/other/x.json")

    def _tree(self, root) -> Store:
        store = Store(root)
        store.set("results", "r" * 64, b'{"cycles": 1}')
        store.set("traces", "t" * 64, b"buffers")
        store.set("ckpt", "c" * 64, b'{"version": 1}')
        for rel in self.FOREIGN:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_bytes(b"not the store's")
        return store

    def _assert_foreign_intact(self, root) -> None:
        for rel in self.FOREIGN:
            assert (root / rel).read_bytes() == b"not the store's"

    def test_stats_count_only_entries(self, tmp_path) -> None:
        store = self._tree(tmp_path)
        stats = store.stats()
        object_bytes = sum(
            store.object_path(entry["digest"]).stat().st_size
            for ns in ("results", "traces", "ckpt")
            for _, entry in store.entries(ns))
        assert stats["total"] == {"entries": 3, "bytes": object_bytes}
        for section in ("results", "traces", "checkpoints"):
            assert stats[section]["entries"] == 1
        assert stats["unreferenced"] == {"entries": 0, "bytes": 0}

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
        assert store.get("results", "settings") is None
        assert store.entry("ckpt", "notes") is None
        assert store.get("results", "notes") is None
        self._assert_foreign_intact(tmp_path)

    def test_forged_digest_never_reaches_outside_objects(self,
                                                         tmp_path) -> None:
        """An entry whose digest is not a SHA-256 name is untrusted, so
        neither a read nor gc follows it out of the object tree."""
        store = self._tree(tmp_path)
        store.entry_path("results", "f" * 64).write_text(json.dumps(
            {"schema": RESULT_SCHEMA_VERSION, "digest": "../settings.json",
             "size": 15, "codec": "raw"}))
        assert store.get("results", "f" * 64) is None
        store.gc(0)
        self._assert_foreign_intact(tmp_path)


class TestPushPull:
    def test_push_then_pull_round_trip(self, tmp_path) -> None:
        a, b = tmp_path / "a", tmp_path / "b"
        sa = Store(a)
        sa.set("results", "k" * 64, b"record")
        sa.set("ckpt", "c" * 64, b'{"version": 1}')
        report = push(sa, b)
        assert report["total"]["entries"] == 2
        assert report["total"]["objects"] == 2
        assert report["total"]["bytes"] > 0
        assert Store(b).get("results", "k" * 64) == b"record"
        c = tmp_path / "c"
        pull(Store(c), b)
        assert Store(c).get("ckpt", "c" * 64) == b'{"version": 1}'

    def test_only_missing_objects_transfer(self, tmp_path) -> None:
        a, b = tmp_path / "a", tmp_path / "b"
        sa, sb = Store(a), Store(b)
        sa.set("results", "k" * 64, b"shared")
        # the destination already holds the object under another key
        sb.set("results", "j" * 64, b"shared")
        report = push(sa, sb)
        assert report["results"]["entries"] == 1  # the new key's entry
        assert report["results"]["objects"] == 0  # but no object moved
        assert report["results"]["bytes"] == 0
        # and a repeat push moves nothing at all
        assert push(sa, sb)["total"] == {"entries": 0, "objects": 0,
                                         "bytes": 0}

    def test_remote_url_and_unknown_scheme(self, tmp_path) -> None:
        store = Store(f"file://{tmp_path}/remote")
        assert store.root == tmp_path / "remote"
        store.set("results", "probe", b"{}")
        assert Store(tmp_path / "remote").get("results", "probe") == b"{}"
        with pytest.raises(ValueError, match="unsupported remote scheme"):
            Store("s3://bucket/prefix")
        with pytest.raises(ValueError, match="unsupported remote scheme"):
            push(store, "s3://bucket/prefix")

    @pytest.mark.parametrize("url", ["file://store-b", "file://host/x/y",
                                     "file://", "file://localhost"])
    def test_file_url_without_a_local_path_is_refused(self, url) -> None:
        with pytest.raises(ValueError, match="names no local path"):
            Store(url)

    def test_localhost_file_url_is_a_local_path(self, tmp_path) -> None:
        assert Store(f"file://localhost{tmp_path}").root == tmp_path

    def test_corrupt_source_object_is_not_copied(self, tmp_path) -> None:
        """A source object that fails verification moves nothing — not
        the object, not its entry — so a push after the source is
        repaired still delivers a hit."""
        src, dst = Store(tmp_path / "a"), Store(tmp_path / "b")
        src.set("results", "k" * 64, b"good record")
        src.set("results", "j" * 64, b"another record")
        digest = src.entry("results", "k" * 64)["digest"]
        good = src.object_path(digest).read_bytes()
        src.object_path(digest).write_bytes(b"bit rot")
        with pytest.warns(RuntimeWarning, match="skipped 1 results"):
            report = push(src, dst)
        assert report["results"]["entries"] == 1
        assert report["results"]["objects"] == 1
        assert not dst.object_path(digest).exists()
        assert dst.entry("results", "k" * 64) is None
        assert dst.get("results", "j" * 64) == b"another record"

        src.object_path(digest).write_bytes(good)
        report = push(src, dst)
        assert report["results"] == {"entries": 1, "objects": 1,
                                     "bytes": len(good)}
        assert dst.get("results", "k" * 64) == b"good record"


class TestGCRefcounting:
    def test_object_survives_until_last_reference(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b"z" * 1000
        store.set("results", "k" * 64, payload)
        store.set("results", "j" * 64, payload)
        digest = store.entry("results", "k" * 64)["digest"]
        # Evicting one of two same-payload entries frees no bytes: the
        # shared object stays while a reference remains.
        report = store.gc(len(payload))
        assert report["removed"] == 1
        assert store.object_path(digest).is_file()
        assert store.gc(0)["remaining_bytes"] == 0
        assert not store.object_path(digest).exists()

    def test_clear_respects_cross_namespace_refs(self, tmp_path) -> None:
        store = Store(tmp_path)
        payload = b"same bytes in two raw namespaces"
        store.set("results", "k" * 64, payload)
        store.set("traces", "t" * 64, payload)
        digest = store.entry("results", "k" * 64)["digest"]
        assert store.clear("results") == 1
        assert store.object_path(digest).is_file()  # traces still needs it
        assert store.get("traces", "t" * 64) == payload
        assert store.clear("traces") == 1
        assert not store.object_path(digest).exists()

    def test_gc_evicts_oldest_across_namespaces(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("ckpt", "c" * 64, b"c" * 500)
        store.set("results", "r" * 64, b"r" * 500)
        old = store.entry("ckpt", "c" * 64)["digest"]
        os.utime(store.object_path(old), (1, 1))
        report = store.gc(store.stats()["total"]["bytes"] - 1)
        assert report["removed"] == 1
        assert store.entry("ckpt", "c" * 64) is None
        assert store.entry("results", "r" * 64) is not None


class TestGarbage:
    """Stale-schema entries, dangling entries and unreferenced objects
    can only ever read as misses: stats shows them and gc reclaims them
    first, whatever the byte budget."""

    def _garbage(self, root) -> Store:
        store = Store(root)
        store.set("results", "s" * 64, b"s" * 5000)
        path = store.entry_path("results", "s" * 64)
        entry = json.loads(path.read_text())
        entry["schema"] = RESULT_SCHEMA_VERSION - 1  # a schema bump ago
        path.write_text(json.dumps(entry, sort_keys=True))
        # a writer killed between its object write and its entry write
        orphan = b"o" * 7000
        digest = hashlib.sha256(orphan).hexdigest()
        store.object_path(digest).parent.mkdir(parents=True, exist_ok=True)
        store.object_path(digest).write_bytes(orphan)
        return store

    def test_stats_count_stale_entries_and_unreferenced_objects(
            self, tmp_path) -> None:
        stats = self._garbage(tmp_path).stats()
        assert stats["results"] == {"entries": 1, "bytes": 0}
        assert stats["unreferenced"] == {"entries": 2, "bytes": 12000}
        assert stats["total"] == {"entries": 3, "bytes": 12000}

    def test_gc_reclaims_garbage_before_anything_live(self,
                                                      tmp_path) -> None:
        store = self._garbage(tmp_path)
        store.set("ckpt", "c" * 64, b'{"version": 1}')
        live = store.stats()["checkpoints"]["bytes"]
        report = store.gc(10 ** 9)  # far under budget: garbage goes anyway
        assert report == {"removed": 3, "removed_bytes": 12000,
                          "remaining_bytes": live}
        files = sorted(p.relative_to(tmp_path).parts[0]
                       for p in tmp_path.rglob("*") if p.is_file())
        assert files == ["index", "objects"]  # just the live checkpoint
        assert store.get("ckpt", "c" * 64) == b'{"version": 1}'
        assert store.gc(0)["remaining_bytes"] == 0
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    def test_dangling_entry_is_garbage(self, tmp_path) -> None:
        store = Store(tmp_path)
        store.set("traces", "t" * 64, b"buffers")
        store.object_path(store.entry("traces", "t" * 64)["digest"]).unlink()
        assert store.stats()["traces"] == {"entries": 1, "bytes": 0}
        assert store.gc(10 ** 9)["removed"] == 1
        assert not store.entry_path("traces", "t" * 64).exists()


class TestParentLayout:
    """A store written by the previous store implementation reads back
    as all hits, and re-writing its payloads reproduces it byte for
    byte: entry files, object names and object bytes."""

    def _files(self, root: Path) -> dict:
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    def _keys(self, ns: str) -> list:
        return sorted(p.stem for p in (PARENT_STORE / "index" / ns).iterdir())

    def test_every_entry_reads_back_a_hit(self, tmp_path) -> None:
        root = tmp_path / "store"
        shutil.copytree(PARENT_STORE, root)
        store = Store(root)
        for ns in ("results", "traces", "ckpt"):
            (key,) = self._keys(ns)
            entry = store.entry(ns, key)
            assert entry is not None
            payload = store.get(ns, key)
            assert payload is not None
            assert len(store.object_path(entry["digest"]).read_bytes()) \
                == entry["size"]
        (rkey,) = self._keys("results")
        results = ResultCache(root)
        record = results.get(rkey)
        assert record is not None and record.cycles > 0
        assert results.hits == 1
        assert store.entry("results", rkey)["wall"] == 0.3125
        (tkey,) = self._keys("traces")
        traces = TraceCache(root)
        buffers = traces.get_or_build(tkey, lambda: pytest.fail("rebuilt"))
        assert traces.disk_hits == 1 and len(buffers) == 4
        (ckey,) = self._keys("ckpt")
        ckpt = CheckpointStore(root)
        assert ckpt.has(ckey)
        assert ckpt.get(ckey)["cycle"] == 4242
        assert (ckpt.hits, ckpt.misses) == (1, 0)

    def test_rewrite_is_byte_identical(self, tmp_path) -> None:
        parent = Store(PARENT_STORE)
        fresh = tmp_path / "fresh"
        (rkey,) = self._keys("results")
        entry = parent.entry("results", rkey)
        Store(fresh).set("results", rkey, parent.get("results", rkey),
                         meta={"wall": entry["wall"], "cost": entry["cost"]})
        (tkey,) = self._keys("traces")
        buffers = load_buffers(parent.get("traces", tkey))
        TraceCache(fresh).get_or_build(tkey, lambda: buffers)
        (ckey,) = self._keys("ckpt")
        CheckpointStore(fresh).put(ckey, CheckpointStore(PARENT_STORE)
                                   .get(ckey))
        assert self._files(fresh) == self._files(PARENT_STORE)
        # ResultCache.put encodes the payload exactly as the fixture's
        # but no longer stamps the fixture's wall/cost scheduling meta.
        ResultCache(tmp_path / "put").put(
            rkey, ResultCache(PARENT_STORE).get(rkey))
        written = Store(tmp_path / "put").entry("results", rkey)
        assert "wall" not in written and "cost" not in written
        assert written["digest"] == entry["digest"]

    def test_stats_count_the_fixture(self) -> None:
        stats = Store(PARENT_STORE).stats()
        sizes = {ns: Store(PARENT_STORE).entry(ns, self._keys(ns)[0])["size"]
                 for ns in ("results", "traces", "ckpt")}
        assert stats["results"] == {"entries": 1, "bytes": sizes["results"]}
        assert stats["traces"] == {"entries": 1, "bytes": sizes["traces"]}
        assert stats["checkpoints"] == {"entries": 1,
                                        "bytes": sizes["ckpt"]}
        assert stats["unreferenced"] == {"entries": 0, "bytes": 0}
        assert stats["total"] == {"entries": 3,
                                  "bytes": sum(sizes.values())}
