"""Push/pull synchronization between two store roots.

Sync is an index diff followed by a bulk object transfer: for each
namespace, entries present (or different) at the source are the
work-list; the objects they reference are copied **only when the
destination's object tree lacks them** (content addressing makes this
exact — equal digest, equal bytes, nothing to move); finally the entry
files land, so a concurrent reader of the destination never sees an
entry whose object has not arrived yet.

``push`` moves local state to a remote, ``pull`` is the same diff run
the other way.  Only the ``index/`` and ``objects/`` trees take part.
Object timestamps carry over best-effort, keeping LRU eviction honest
on the receiving side.

The multi-host recipes this enables: a sweep fanned out across N
machines that each ``push`` into one shared store, and a laptop that
``pull``\\ s a lab machine's warm checkpoints instead of rebuilding
them (see ``docs/storage.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.store.index import NAMESPACES
from repro.store.objects import ObjectStore
from repro.store.store import SECTION_LABELS, Store


def _as_store(target: Union[Store, str, Path, None]) -> Store:
    return target if isinstance(target, Store) else Store(target)


def _sync(src: Store, dst: Store) -> Dict[str, Dict[str, int]]:
    """Copy index entries and missing objects from ``src`` to ``dst``."""
    report: Dict[str, Dict[str, int]] = {}
    for namespace in NAMESPACES:
        src_entries = src.entries(namespace)
        dst_entries = dst.entries(namespace)
        todo = {key: entry for key, entry in src_entries.items()
                if dst_entries.get(key) != entry}

        # Objects first: only digests the destination does not hold.
        needed: List[str] = []
        seen = set()
        for entry in todo.values():
            digest = entry["digest"]
            if digest not in seen:
                seen.add(digest)
                if not dst.objects.has(digest):
                    needed.append(digest)
        rels = [ObjectStore.rel_for(digest) for digest in needed]
        moved_bytes = 0
        arrived = set(seen - set(needed))
        pairs: List[Tuple[str, bytes]] = []
        for (rel, data), digest in zip(src.backend.get_many(rels), needed):
            if data is None:
                continue  # dangling source entry; skip it and its keys
            pairs.append((rel, data))
            moved_bytes += len(data)
            arrived.add(digest)
        dst.backend.set_many(pairs)
        for rel, _ in pairs:
            try:
                _, mtime = src.backend.stat(rel)
            except OSError:
                continue
            dst.backend.utime(rel, (mtime, mtime))

        # Entries last, and only for keys whose object is in place.
        index = dst.index(namespace)
        entry_pairs: List[Tuple[str, bytes]] = []
        for key, entry in todo.items():
            if entry["digest"] in arrived:
                entry_pairs.append(
                    (index.entry_rel(key),
                     json.dumps(entry, sort_keys=True).encode("utf-8")))
        dst.backend.set_many(entry_pairs)

        report[SECTION_LABELS[namespace]] = {
            "entries": len(entry_pairs),
            "objects": len(pairs),
            "bytes": moved_bytes,
        }
    report["total"] = {
        field: sum(row[field] for row in report.values())
        for field in ("entries", "objects", "bytes")
    }
    return report


def push(local: Union[Store, str, Path, None],
         remote: Union[Store, str, Path]) -> Dict[str, Dict[str, int]]:
    """Copy this root's missing entries/objects into a remote store."""
    return _sync(_as_store(local), _as_store(remote))


def pull(local: Union[Store, str, Path, None],
         remote: Union[Store, str, Path]) -> Dict[str, Dict[str, int]]:
    """Fetch a remote store's missing entries/objects into this root."""
    return _sync(_as_store(remote), _as_store(local))
