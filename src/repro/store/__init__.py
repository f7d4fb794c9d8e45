"""Unified content-addressed object store for every repro cache.

One storage layer now serves the three caches that grew up separately
(sweep results, compiled trace buffers, warm-state checkpoints):

* :mod:`repro.store.backend` — pluggable blob storage (local
  directory, ``file://``-style remotes) with atomic writes;
* :mod:`repro.store.objects` — immutable blobs keyed by the SHA-256
  of their stored bytes, with verification, dedup, and deterministic
  streaming gzip;
* :mod:`repro.store.index` — typed key -> digest namespaces owning
  schema versions and fallback policy;
* :mod:`repro.store.store` — the :class:`Store` facade plus unified
  stats / LRU garbage collection;
* :mod:`repro.store.sync` — ``push``/``pull`` between two roots,
  moving only missing objects.

See ``docs/storage.md`` for the on-disk layout and multi-host
workflows.
"""

from repro.store.backend import (DEFAULT_CACHE_DIR, Backend, LocalBackend,
                                 cache_disabled, cache_root, open_backend)
from repro.store.index import (CKPT_SCHEMA_VERSION, NAMESPACES,
                               RESULT_SCHEMA_VERSION, TRACE_SCHEMA_VERSION,
                               Index, Namespace, warn_fallback)
from repro.store.objects import CODECS, ObjectStore
from repro.store.store import SECTION_LABELS, Store
from repro.store.sync import pull, push

__all__ = [
    "DEFAULT_CACHE_DIR",
    "Backend",
    "LocalBackend",
    "cache_disabled",
    "cache_root",
    "open_backend",
    "CODECS",
    "ObjectStore",
    "RESULT_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "CKPT_SCHEMA_VERSION",
    "NAMESPACES",
    "Index",
    "Namespace",
    "warn_fallback",
    "SECTION_LABELS",
    "Store",
    "push",
    "pull",
]
