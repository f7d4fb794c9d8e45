"""The content-addressed cache store: one root, typed namespaces.

Everything the simulator memoizes — sweep results, compiled trace
buffers, warm-state checkpoints — lives under one root directory::

    objects/<digest[:2]>/<digest[2:]>   immutable blobs, named by the
                                        SHA-256 of their stored bytes
    index/<namespace>/<key>.json        {"schema": 7, "digest": ...,
                                         "size": 1234, "codec": "raw"}

Naming an object by the hash of its stored bytes makes every read
verifiable (a flipped bit is a miss, never bad data), dedups equal
payloads (``gc`` and ``clear`` refcount before deleting), and lets
:func:`push`/:func:`pull` move only the objects the other side lacks.

Each namespace in :data:`NAMESPACES` owns its schema version, codec,
fallback warning and ``stats`` label.  An untrusted entry — corrupt,
version-mismatched, or pointing at an object that is missing or fails
verification — reads as a miss: at worst a cold rebuild, never a crash
and never stale data replayed under new semantics.  Every write is
atomic (``*.tmp`` staging file + ``os.replace``).  Only the ``index/``
and ``objects/`` trees are read, counted or deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import warnings
import zlib
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union
from urllib.parse import urlsplit

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Result-record schema.  Bump when simulator behavior changes in any
#: result-visible way; every previously cached entry becomes
#: unreachable (a miss) under the new version.  2: pluggable
#: topologies.  3: precompiled trace buffers + pooled coherence
#: messages.  4: the measurement window (``warmup_barriers`` /
#: ``warmup_mode``) joined the key, fixing measured-region aliasing.
#: 5: the NoC ``engine`` selector joined the params — the backends are
#: statistically, not bit-, equivalent.  6: the sampling window
#: (``measure_cycles``) joined the key — a cycle-capped sampled region
#: must never alias the run-to-completion region from the same anchor.
#: 7: the detach window (``detach_cycles``) joined the key — a region
#: measured after detailed warming never aliases an undetached one.
RESULT_SCHEMA_VERSION = 7

#: Compiled trace-buffer layout version; bump when buffer layout or
#: compilation semantics change.
TRACE_SCHEMA_VERSION = 1

#: Warm-state snapshot layout version; mismatched stored checkpoints
#: are treated as misses (cold rebuild), never as errors.
CKPT_SCHEMA_VERSION = 1

#: namespace -> (schema version, object codec, warn when an entry is
#: discarded, ``stats`` label).  The checkpoint store has always
#: warned; results and traces miss quietly.
NAMESPACES: Dict[str, Tuple[int, str, bool, str]] = {
    "results": (RESULT_SCHEMA_VERSION, "raw", False, "results"),
    "traces": (TRACE_SCHEMA_VERSION, "raw", False, "traces"),
    "ckpt": (CKPT_SCHEMA_VERSION, "gzip", True, "checkpoints"),
}

#: entry fields owned by the store itself; ``meta`` cannot shadow them
RESERVED_FIELDS = frozenset({"schema", "digest", "size", "codec"})

#: keys are content hashes or test stand-ins: filesystem-safe, no
#: separators, bounded length
_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")
_GZIP_WBITS = 16 + zlib.MAX_WBITS


def cache_root(root: Union[str, Path, None] = None) -> Path:
    """The cache root: ``root``, else ``REPRO_CACHE_DIR``, else
    ``.repro_cache``.

    The one place root resolution happens — the result cache, trace
    cache, checkpoint store, and cache management all resolve through
    here.
    """
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    return Path(root)


def warn_fallback(namespace: str, key: str, reason: str) -> None:
    """The single untrusted-entry warning path for every namespace."""
    warnings.warn(
        f"discarding {namespace} cache entry {key[:16]}: {reason}; "
        "falling back to a cold rebuild", RuntimeWarning, stacklevel=4)


def _write_atomic(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _gzip(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Deterministic streaming gzip: zlib's gzip container writes a
    zero mtime, so equal payloads give byte-equal streams."""
    comp = zlib.compressobj(9, zlib.DEFLATED, _GZIP_WBITS)
    for chunk in chunks:
        out = comp.compress(chunk)
        if out:
            yield out
    yield comp.flush()


def _decode(stored: bytes, codec: str) -> bytes:
    """Stored object bytes -> payload bytes; ValueError on corruption."""
    if codec == "raw":
        return stored
    if codec == "gzip":
        try:
            return zlib.decompress(stored, _GZIP_WBITS)
        except zlib.error as exc:
            raise ValueError(f"corrupt gzip object: {exc}") from exc
    raise ValueError(f"unknown object codec {codec!r}")


def _listdir(path: Path) -> List[str]:
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


class Store:
    """A content-addressed cache universe at one root.

    ``root`` is a path, a ``file://`` URL, or None (resolved by
    :func:`cache_root`).  Any other URL scheme is a ``ValueError``, and
    so is a ``file://`` URL naming a host other than ``localhost`` or no
    path (``file://name`` puts ``name`` in the host field, not the path).
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        if root is not None and "://" in str(root):
            parts = urlsplit(str(root))
            if parts.scheme != "file":
                raise ValueError(
                    f"unsupported remote scheme {parts.scheme!r} in "
                    f"{str(root)!r}; known: file")
            if parts.netloc not in ("", "localhost") or not parts.path:
                raise ValueError(
                    f"{str(root)!r} names no local path; write "
                    f"file:///absolute/path or a plain path")
            root = parts.path
        self.root = cache_root(root)

    def __repr__(self) -> str:
        return f"Store({str(self.root)!r})"

    # -- paths ------------------------------------------------------------

    def entry_path(self, namespace: str, key: str) -> Path:
        """The entry file for ``key``; ValueError on a malformed key."""
        NAMESPACES[namespace]  # KeyError on an unknown namespace
        if not isinstance(key, str) or not _KEY_RE.match(key):
            raise ValueError(
                f"bad index key {key!r}: keys are filesystem-safe "
                "content-hash strings (1-128 chars of [A-Za-z0-9._-])")
        return self.root / "index" / namespace / f"{key}.json"

    def object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest[2:]

    # -- reads ------------------------------------------------------------

    def _keys(self, namespace: str) -> List[str]:
        names = _listdir(self.root / "index" / namespace)
        return [name[:-5] for name in names
                if name.endswith(".json") and _KEY_RE.match(name[:-5])]

    def _fallback(self, namespace: str, key: str, reason: str) -> None:
        if NAMESPACES[namespace][2]:
            warn_fallback(namespace, key, reason)

    def entry(self, namespace: str, key: str,
              quiet: bool = True) -> Optional[Dict]:
        """The trusted entry for ``key``, or None (missing, corrupt, or
        version-mismatched) — without reading the object.

        ``quiet=False`` sends an untrusted entry through the
        namespace's fallback policy, as a lookup does.
        """
        try:
            data = self.entry_path(namespace, key).read_bytes()
        except OSError:
            return None
        try:
            entry = json.loads(data)
            if not isinstance(entry, dict) or \
                    not _DIGEST_RE.fullmatch(str(entry.get("digest"))):
                raise ValueError("not an entry record")
        except ValueError as exc:
            reason = f"corrupt index entry: {exc}"
        else:
            schema = NAMESPACES[namespace][0]
            if entry.get("schema") == schema:
                return entry
            reason = f"entry schema {entry.get('schema')} (want {schema})"
        if not quiet:
            self._fallback(namespace, key, reason)
        return None

    def entries(self, namespace: str) -> Iterator[Tuple[str, Dict]]:
        """``(key, entry)`` per trusted entry, read lazily so a capped
        scan stops early.  Untrusted entries are skipped quietly: a scan
        replays nothing from them."""
        for key in self._keys(namespace):
            entry = self.entry(namespace, key)
            if entry is not None:
                yield key, entry

    def _read_object(self, digest: str) -> bytes:
        """The verified stored bytes; OSError when missing, ValueError
        when the content does not hash back to its name."""
        stored = self.object_path(digest).read_bytes()
        if hashlib.sha256(stored).hexdigest() != digest:
            raise ValueError(f"corrupt object {digest[:16]}: content "
                             "does not match its digest")
        return stored

    def get(self, namespace: str, key: str) -> Optional[bytes]:
        """The payload for ``key``, or None on any miss.

        Misses are silent when nothing was there; anything present but
        untrusted goes through the namespace's fallback policy.  An
        object that fails verification is deleted, so the rebuild's
        :meth:`set` writes it anew instead of keeping the bad bytes.
        """
        entry = self.entry(namespace, key, quiet=False)
        if entry is None:
            return None
        try:
            return _decode(self._read_object(entry["digest"]),
                           entry.get("codec", NAMESPACES[namespace][1]))
        except (OSError, ValueError) as exc:
            if isinstance(exc, ValueError):
                self.object_path(entry["digest"]).unlink(missing_ok=True)
            self._fallback(namespace, key,
                           f"corrupt or missing object: {exc}")
            return None

    def get_many(self, digests: Iterable[str]
                 ) -> Iterator[Tuple[str, Optional[bytes]]]:
        """``(digest, verified stored bytes)`` per digest; None when the
        object is missing or fails verification."""
        for digest in digests:
            try:
                yield digest, self._read_object(digest)
            except (OSError, ValueError):
                yield digest, None

    # -- writes -----------------------------------------------------------

    def _put_entry(self, namespace: str, key: str, entry: Dict) -> None:
        _write_atomic(self.entry_path(namespace, key),
                      json.dumps(entry, sort_keys=True).encode("utf-8"))

    def set(self, namespace: str, key: str,
            payload: Union[bytes, Iterable[Union[bytes, str]]],
            meta: Optional[Dict] = None) -> Dict:
        """Store a payload (bytes, or bytes/str chunks streamed through
        the codec) under ``key``; returns the written entry.

        ``meta`` is a small JSON dict merged into the entry (e.g. the
        wall seconds a result cost), scannable without reading objects;
        it cannot shadow store-owned fields.  The object lands before
        its entry; an existing object is never rewritten (:meth:`get`
        deletes one that fails verification).
        """
        schema, codec, _, _ = NAMESPACES[namespace]
        self.entry_path(namespace, key)  # a bad key fails before any write
        entry = dict(meta) if meta else {}
        shadowed = RESERVED_FIELDS & entry.keys()
        if shadowed:
            raise ValueError(f"meta fields {sorted(shadowed)} shadow "
                             "store-owned entry fields")
        chunks = (payload,) if isinstance(payload, bytes) else payload
        raw = (chunk.encode("utf-8") if isinstance(chunk, str) else chunk
               for chunk in chunks)
        stored = b"".join(_gzip(raw) if codec == "gzip" else raw)
        digest = hashlib.sha256(stored).hexdigest()
        if not self.object_path(digest).is_file():
            _write_atomic(self.object_path(digest), stored)
        entry.update(schema=schema, digest=digest, size=len(stored),
                     codec=codec)
        self._put_entry(namespace, key, entry)
        return entry

    def set_many(self, objects: Iterable[Tuple[str, Optional[bytes]]]
                 ) -> Dict[str, int]:
        """Write ``(digest, stored bytes)`` pairs as objects, skipping
        ``None`` (what :meth:`get_many` yields for a bad object);
        returns digest -> bytes written."""
        written = {}
        for digest, stored in objects:
            if stored is not None:
                _write_atomic(self.object_path(digest), stored)
                written[digest] = len(stored)
        return written

    # -- inventory / clear / stats / gc -----------------------------------

    def _inventory(self) -> Tuple[List[Tuple[str, str, Optional[str]]],
                                  Dict[str, Tuple[int, float]]]:
        """Every entry file as ``(namespace, key, digest)`` — digest None
        when the entry is untrusted or its object is gone — and every
        object as digest -> ``(size, mtime)``."""
        objects: Dict[str, Tuple[int, float]] = {}
        base = self.root / "objects"
        for prefix in _listdir(base):
            for name in _listdir(base / prefix):
                digest = prefix + name
                if len(prefix) == 2 and _DIGEST_RE.fullmatch(digest):
                    try:
                        info = (base / prefix / name).stat()
                    except OSError:
                        continue
                    objects[digest] = (info.st_size, info.st_mtime)
        entries = []
        for namespace in NAMESPACES:
            for key in self._keys(namespace):
                entry = self.entry(namespace, key)
                digest = entry["digest"] if entry else None
                entries.append((namespace, key,
                                digest if digest in objects else None))
        return entries, objects

    def clear(self, namespace: str) -> int:
        """Remove every entry in a namespace plus the objects no other
        namespace's entry references; returns entries removed."""
        entries, _ = self._inventory()
        mine, others = set(), set()
        removed = 0
        for ns, key, digest in entries:
            if ns == namespace:
                self.entry_path(ns, key).unlink(missing_ok=True)
                mine.add(digest)
                removed += 1
            else:
                others.add(digest)
        for digest in mine - others - {None}:
            self.object_path(digest).unlink(missing_ok=True)
        return removed

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-section ``{"entries": n, "bytes": n}`` plus ``total``.

        Every entry file counts in its namespace's row (bytes are its
        object's, zero when it is untrusted); objects no trusted entry
        references count in the ``unreferenced`` row.
        """
        entries, objects = self._inventory()
        out = {label: {"entries": 0, "bytes": 0}
               for _, _, _, label in NAMESPACES.values()}
        out["unreferenced"] = {"entries": 0, "bytes": 0}
        for namespace, _, digest in entries:
            row = out[NAMESPACES[namespace][3]]
            row["entries"] += 1
            row["bytes"] += objects[digest][0] if digest else 0
        referenced = {digest for _, _, digest in entries}
        for digest, (size, _) in objects.items():
            if digest not in referenced:
                out["unreferenced"]["entries"] += 1
                out["unreferenced"]["bytes"] += size
        out["total"] = {
            field: sum(row[field] for row in out.values())
            for field in ("entries", "bytes")
        }
        return out

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Reclaim garbage, then evict LRU entries (oldest object mtime
        first, any namespace) until the rest fits under ``max_bytes``.

        Garbage — untrusted entries and objects no trusted entry
        references — goes first and always: it can only read as a miss.
        (An object whose writer has not yet written its entry counts as
        unreferenced; reclaiming it costs that entry one miss.)  Live
        objects go with the last entry referencing them.  Returns
        ``{"removed", "removed_bytes", "remaining_bytes"}``.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries, objects = self._inventory()
        removed = removed_bytes = 0
        live = []
        for namespace, key, digest in entries:
            if digest is None:
                self.entry_path(namespace, key).unlink(missing_ok=True)
                removed += 1
            else:
                live.append((objects[digest][1], namespace, key, digest))
        refs = Counter(digest for _, _, _, digest in live)
        for digest, (size, _) in objects.items():
            if digest not in refs:
                self.object_path(digest).unlink(missing_ok=True)
                removed += 1
                removed_bytes += size
        total = sum(objects[digest][0] for _, _, _, digest in live)
        for _, namespace, key, digest in sorted(live):
            if total <= max_bytes:
                break
            self.entry_path(namespace, key).unlink(missing_ok=True)
            refs[digest] -= 1
            if not refs[digest]:
                self.object_path(digest).unlink(missing_ok=True)
            size = objects[digest][0]
            total -= size
            removed += 1
            removed_bytes += size
        return {"removed": removed, "removed_bytes": removed_bytes,
                "remaining_bytes": total}


# -- push / pull -----------------------------------------------------------

def _sync(src: Store, dst: Store) -> Dict[str, Dict[str, int]]:
    """Copy the entries ``dst`` lacks (or holds differently) from
    ``src``: their missing objects move first through
    ``set_many(get_many(missing))``, which re-hashes each one; then the
    entries whose object is in place.  An entry whose source object is
    missing or corrupt is skipped with a warning, so a push after a
    repair still moves it."""
    report: Dict[str, Dict[str, int]] = {}
    for namespace, (_, _, _, label) in NAMESPACES.items():
        have = dict(dst.entries(namespace))
        todo = {key: entry for key, entry in src.entries(namespace)
                if have.get(key) != entry}
        wanted = sorted({entry["digest"] for entry in todo.values()})
        missing = [d for d in wanted if not dst.object_path(d).is_file()]
        moved = dst.set_many(src.get_many(missing))
        for digest in moved:
            try:  # carry the LRU age over, best effort
                mtime = src.object_path(digest).stat().st_mtime
                os.utime(dst.object_path(digest), (mtime, mtime))
            except OSError:
                pass
        arrived = set(wanted) - set(missing) | moved.keys()
        written = 0
        for key, entry in todo.items():
            if entry["digest"] in arrived:
                dst._put_entry(namespace, key, entry)
                written += 1
        if written < len(todo):
            warnings.warn(
                f"skipped {len(todo) - written} {label} entries whose "
                f"object is missing or corrupt in {src.root}",
                RuntimeWarning, stacklevel=3)
        report[label] = {"entries": written, "objects": len(moved),
                         "bytes": sum(moved.values())}
    report["total"] = {
        field: sum(row[field] for row in report.values())
        for field in ("entries", "objects", "bytes")
    }
    return report


def _as_store(target: Union[Store, str, Path, None]) -> Store:
    return target if isinstance(target, Store) else Store(target)


def push(local: Union[Store, str, Path, None],
         remote: Union[Store, str, Path]) -> Dict[str, Dict[str, int]]:
    """Copy this root's missing entries/objects into a remote store."""
    return _sync(_as_store(local), _as_store(remote))


def pull(local: Union[Store, str, Path, None],
         remote: Union[Store, str, Path]) -> Dict[str, Dict[str, int]]:
    """Fetch a remote store's missing entries/objects into this root."""
    return _sync(_as_store(remote), _as_store(local))
