"""Typed index namespaces: structured keys -> object digests.

The object layer stores anonymous blobs; an :class:`Index` gives them
meaning.  Each namespace — ``results`` (sweep result records),
``traces`` (compiled trace buffers), ``ckpt`` (warm-state snapshots) —
maps content keys to small JSON entry files under
``index/<namespace>/<key>.json``::

    {"schema": 5, "digest": "<sha256 of the stored object>",
     "size": 1234, "codec": "raw"}

This is the one place that owns per-namespace **schema versions** and
the **fallback policy** for entries that cannot be trusted: a corrupt
entry, a version-mismatched entry, or an object that fails digest
verification all funnel through a single :func:`warn_fallback` path
and read as a cache miss — at worst a cold rebuild, never a crash and
never stale data replayed under new semantics.  (The three stores each
used to carry their own copy of this logic; the per-store constants
below are the authoritative ones now, re-exported by the old modules.)

The ``index/`` and ``objects/`` trees are the only layout an index
reads, writes or deletes; nothing else under the root is touched.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Union

from repro.store.backend import Backend
from repro.store.objects import ObjectStore

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

#: index keys are content hashes or test stand-ins: filesystem-safe,
#: no separators, bounded length
_KEY_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def warn_fallback(namespace: str, key: str, reason: str) -> None:
    """The single untrusted-entry warning path for every namespace."""
    warnings.warn(
        f"discarding {namespace} cache entry {key[:16]}: {reason}; "
        "falling back to a cold rebuild", RuntimeWarning, stacklevel=4)


@dataclass(frozen=True)
class Namespace:
    """One typed index namespace and its on-disk conventions."""

    name: str
    #: authoritative schema version stamped into every entry
    schema: int
    #: object codec for this namespace's payloads
    codec: str
    #: emit a RuntimeWarning when an entry is discarded (the
    #: checkpoint store has always warned; results/traces miss quietly)
    warn_on_fallback: bool = False


NAMESPACES: Dict[str, Namespace] = {
    ns.name: ns for ns in (
        Namespace("results", RESULT_SCHEMA_VERSION, "raw"),
        Namespace("traces", TRACE_SCHEMA_VERSION, "raw"),
        Namespace("ckpt", CKPT_SCHEMA_VERSION, "gzip", warn_on_fallback=True),
    )
}


def referenced_digests(backend: Backend) -> set:
    """Digests referenced by any readable index entry, any namespace."""
    digests = set()
    for rel in backend.list("index"):
        data = backend.read_or_none(rel)
        if data is None:
            continue
        try:
            entry = json.loads(data)
        except ValueError:
            continue
        digest = entry.get("digest") if isinstance(entry, dict) else None
        if digest:
            digests.add(digest)
    return digests


class Index:
    """One namespace's key -> entry -> object mapping."""

    PREFIX = "index"

    def __init__(self, namespace: Union[Namespace, str], backend: Backend,
                 objects: Optional[ObjectStore] = None) -> None:
        if isinstance(namespace, str):
            namespace = NAMESPACES[namespace]
        self.namespace = namespace
        self.backend = backend
        self.objects = objects if objects is not None else ObjectStore(backend)

    def __repr__(self) -> str:
        return f"Index({self.namespace.name!r}, {self.backend!r})"

    # -- paths ------------------------------------------------------------

    @staticmethod
    def check_key(key: str) -> str:
        if not isinstance(key, str) or not _KEY_RE.match(key):
            raise ValueError(
                f"bad index key {key!r}: keys are filesystem-safe "
                "content-hash strings (1-128 chars of [A-Za-z0-9._-])")
        return key

    def entry_rel(self, key: str) -> str:
        return f"{self.PREFIX}/{self.namespace.name}/{self.check_key(key)}.json"

    def entry_path(self, key: str) -> Optional[Path]:
        """Local path of the entry file (None for true remotes)."""
        root = self.backend.local_root()
        return None if root is None else root / self.entry_rel(key)

    # -- reads ------------------------------------------------------------

    def keys(self) -> Iterator[str]:
        prefix = f"{self.PREFIX}/{self.namespace.name}"
        for rel in self.backend.list(prefix):
            name = rel.rsplit("/", 1)[-1]
            if name.endswith(".json"):
                yield name[:-5]

    def _fallback(self, key: str, reason: str) -> None:
        if self.namespace.warn_on_fallback:
            warn_fallback(self.namespace.name, key, reason)

    def has(self, key: str) -> bool:
        """Whether ``key`` resolves to a trusted entry, without reading
        the payload."""
        self.check_key(key)
        return self.read_entry(key, quiet=True) is not None

    def entries(self) -> Iterator:
        """``(key, entry)`` for every trusted entry in this namespace.

        Untrusted entries are skipped quietly — this is a scan, not a
        lookup, so nothing is being replayed from them.
        """
        for key in self.keys():
            entry = self.read_entry(key, quiet=True)
            if entry is not None:
                yield key, entry

    def read_entry(self, key: str, quiet: bool = False) -> Optional[Dict]:
        """The parsed entry for ``key`` after schema validation, or
        None (missing, corrupt, or version-mismatched)."""
        data = self.backend.read_or_none(self.entry_rel(key))
        if data is None:
            return None
        try:
            entry = json.loads(data)
            if not isinstance(entry, dict) or "digest" not in entry:
                raise ValueError("not an entry record")
        except ValueError as exc:
            if not quiet:
                self._fallback(key, f"corrupt index entry: {exc}")
            return None
        if entry.get("schema") != self.namespace.schema:
            if not quiet:
                self._fallback(
                    key, f"entry schema {entry.get('schema')} "
                    f"(want {self.namespace.schema})")
            return None
        return entry

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The payload for ``key``, or None on any miss.

        Misses are silent when nothing was there; anything present but
        untrusted goes through the namespace's fallback policy.
        """
        self.check_key(key)
        entry = self.read_entry(key)
        if entry is None:
            return None
        try:
            return self.objects.get_bytes(
                entry["digest"], entry.get("codec", self.namespace.codec))
        except (OSError, ValueError) as exc:
            self._fallback(key, f"corrupt or missing object: {exc}")
            return None

    # -- writes -----------------------------------------------------------

    #: entry fields owned by the store itself; ``meta`` cannot shadow them
    RESERVED_FIELDS = frozenset({"schema", "digest", "size", "codec"})

    def _write_entry(self, key: str, digest: str, size: int,
                     meta: Optional[Dict] = None) -> Dict:
        entry = dict(meta) if meta else {}
        shadowed = self.RESERVED_FIELDS & entry.keys()
        if shadowed:
            raise ValueError(f"meta fields {sorted(shadowed)} shadow "
                             "store-owned entry fields")
        entry.update({
            "schema": self.namespace.schema,
            "digest": digest,
            "size": size,
            "codec": self.namespace.codec,
        })
        self.backend.write(
            self.entry_rel(key),
            json.dumps(entry, sort_keys=True).encode("utf-8"))
        return entry

    def put_bytes(self, key: str, payload: bytes,
                  meta: Optional[Dict] = None) -> Dict:
        """Store a payload under ``key``; returns the written entry.

        ``meta`` is a small JSON dict merged into the entry file — side
        information about the payload (e.g. the wall seconds a result
        cost to produce) that readers can scan without fetching
        objects.  Store-owned fields are reserved.
        """
        self.check_key(key)
        digest, size = self.objects.put_bytes(payload, self.namespace.codec)
        return self._write_entry(key, digest, size, meta)

    def put_stream(self, key: str, chunks: Iterable,
                   meta: Optional[Dict] = None) -> Dict:
        """Store a chunked payload (streaming gzip for ``gzip`` codecs)."""
        self.check_key(key)
        digest, size = self.objects.put_stream(chunks, self.namespace.codec)
        return self._write_entry(key, digest, size, meta)

    def delete(self, key: str) -> None:
        """Drop the entry (the object is reclaimed by GC, which knows
        about cross-key dedup)."""
        self.backend.delete(self.entry_rel(key))

    def clear(self) -> int:
        """Remove every entry in this namespace plus the objects nothing
        else references; returns entries removed."""
        removed = 0
        mine = set()
        for key in list(self.keys()):
            entry = self.read_entry(key, quiet=True)
            if entry is not None:
                mine.add(entry["digest"])
            self.backend.delete(self.entry_rel(key))
            removed += 1
        for digest in mine - referenced_digests(self.backend):
            self.objects.delete(digest)
        return removed
