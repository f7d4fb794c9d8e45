"""The store facade: one root, one object tree, typed indexes.

:class:`Store` bundles a :class:`~repro.store.backend.Backend`, its
:class:`~repro.store.objects.ObjectStore`, and the three typed
:class:`~repro.store.index.Index` namespaces behind a root path or
URL.  It is what the cache-management CLI and the push/pull sync work
against, and what the thin per-kind views (``ResultCache``,
``TraceCache``, ``CheckpointStore``) build on.

Accounting (``stats``) and LRU garbage collection (``gc``) run over
the typed indexes only: a file the store did not write is never
counted or evicted.  Reported bytes are object (payload) bytes; the
few-hundred-byte index entries are bookkeeping and ride along with
their entry on eviction.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.store.backend import Backend, open_backend
from repro.store.index import NAMESPACES, Index
from repro.store.objects import ObjectStore

#: namespace -> section label used by ``repro.cli cache stats``
SECTION_LABELS = {"results": "results", "traces": "traces",
                  "ckpt": "checkpoints"}


class _Item:
    """One reclaimable cache item: an indexed entry and its object."""

    __slots__ = ("namespace", "key", "size", "mtime", "digest")

    def __init__(self, namespace: str, key: str, size: int, mtime: float,
                 digest: Optional[str] = None) -> None:
        self.namespace = namespace
        self.key = key
        self.size = size
        self.mtime = mtime
        self.digest = digest


class Store:
    """A content-addressed cache universe at one root (or URL)."""

    def __init__(self, root: Union[Backend, str, Path, None] = None) -> None:
        self.backend = open_backend(root)
        self.objects = ObjectStore(self.backend)
        self._indexes: Dict[str, Index] = {}

    def __repr__(self) -> str:
        return f"Store({self.backend!r})"

    @property
    def root(self) -> Optional[Path]:
        """The local root directory, when there is one."""
        return self.backend.local_root()

    def index(self, namespace: str) -> Index:
        index = self._indexes.get(namespace)
        if index is None:
            index = Index(NAMESPACES[namespace], self.backend, self.objects)
            self._indexes[namespace] = index
        return index

    def entries(self, namespace: str) -> Dict[str, Dict]:
        """Every readable, schema-current entry in a namespace."""
        return dict(self.index(namespace).entries())

    def object_path(self, digest: str) -> Optional[Path]:
        """Local path of an object file (None for true remotes)."""
        root = self.backend.local_root()
        return None if root is None else root / ObjectStore.rel_for(digest)

    # -- inventory / stats / gc -------------------------------------------

    def inventory(self) -> List[_Item]:
        """Every cache item with its payload size and age."""
        items: List[_Item] = []
        for namespace in NAMESPACES:
            index = self.index(namespace)
            for key in index.keys():
                entry = index.read_entry(key, quiet=True)
                digest = entry.get("digest") if entry else None
                size, mtime = 0, 0.0
                if digest is not None:
                    try:
                        size, mtime = self.objects.stat(digest)
                    except OSError:
                        digest = None
                if not mtime:
                    try:
                        _, mtime = self.backend.stat(index.entry_rel(key))
                    except OSError:
                        pass
                items.append(_Item(namespace, key, size, mtime, digest))
        return items

    def stats(self) -> Dict[str, Dict]:
        """Per-section ``{"entries": n, "bytes": n}`` plus ``total``."""
        out = {label: {"entries": 0, "bytes": 0}
               for label in SECTION_LABELS.values()}
        for item in self.inventory():
            row = out[SECTION_LABELS[item.namespace]]
            row["entries"] += 1
            row["bytes"] += item.size
        out["total"] = {
            "entries": sum(row["entries"] for row in out.values()),
            "bytes": sum(row["bytes"] for row in out.values()),
        }
        return out

    def gc(self, max_bytes: int) -> Dict[str, int]:
        """Evict LRU items (oldest payload mtime first) until the tree
        fits under ``max_bytes``.

        Eviction spans every namespace — a stale checkpoint is
        reclaimed before a freshly used result, whatever their kind.
        Objects are deleted only when the last entry referencing them
        goes (content dedup means one object may serve many keys).
        Returns ``{"removed", "removed_bytes", "remaining_bytes"}``.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        items = self.inventory()
        refs: Dict[str, int] = {}
        for item in items:
            if item.digest is not None:
                refs[item.digest] = refs.get(item.digest, 0) + 1
        total = sum(item.size for item in items)
        items.sort(key=lambda item: (item.mtime, item.namespace, item.key))
        removed = 0
        removed_bytes = 0
        for item in items:
            if total <= max_bytes:
                break
            self.index(item.namespace).delete(item.key)
            if item.digest is not None:
                refs[item.digest] -= 1
                if not refs[item.digest]:
                    self.objects.delete(item.digest)
            total -= item.size
            removed += 1
            removed_bytes += item.size
        return {"removed": removed, "removed_bytes": removed_bytes,
                "remaining_bytes": total}
