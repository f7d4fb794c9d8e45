"""Pluggable storage backends for the unified object store.

A :class:`Backend` is a flat keyed-blob namespace addressed by
POSIX-style relative paths (``objects/ab/cdef...``,
``index/results/<key>.json``).  The object and index layers above it
never touch the filesystem directly.

The one implementation is :class:`LocalBackend`, a directory on the
local filesystem.  Every write is atomic (``*.tmp`` staging file +
``os.replace``), so a killed sweep worker can never leave a torn object
that a later read mistakes for content.  :func:`open_backend` maps a
plain path or a ``file://`` URL (an NFS mount, a USB disk, a second
checkout) onto it.

``get_many``/``set_many`` are the bulk-transfer hooks the push/pull
sync uses; backends with a real wire protocol can override them to
batch round trips.
"""

from __future__ import annotations

import os
import tempfile
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union
from urllib.parse import urlsplit

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro_cache"


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


def cache_disabled() -> bool:
    """Whether ``REPRO_NO_CACHE`` turns off every on-disk cache layer.

    Resolved per call, never at construction, so flipping the variable
    mid-process takes effect immediately.  This is the one place the
    variable is interpreted: the result cache, trace cache, checkpoint
    store, and the sweep executor's warm-build planning all consult it,
    so ``cache=True`` under ``REPRO_NO_CACHE`` degrades consistently to
    a no-op across all three namespaces.
    """
    return bool(os.environ.get("REPRO_NO_CACHE"))


class Backend(ABC):
    """Keyed blob storage addressed by POSIX-style relative paths."""

    @abstractmethod
    def read(self, rel: str) -> bytes:
        """The blob at ``rel``; raises ``OSError`` when missing."""

    @abstractmethod
    def write(self, rel: str, data: bytes) -> None:
        """Atomically replace the blob at ``rel``."""

    @abstractmethod
    def exists(self, rel: str) -> bool:
        """Whether a blob exists at ``rel``."""

    @abstractmethod
    def delete(self, rel: str) -> None:
        """Remove the blob at ``rel`` (missing is not an error)."""

    @abstractmethod
    def list(self, prefix: str = "") -> Iterator[str]:
        """All blob paths under ``prefix``, deterministically ordered.

        Staging files (``*.tmp``) are never listed: an interrupted
        writer leaves garbage invisible to every reader.
        """

    @abstractmethod
    def stat(self, rel: str) -> Tuple[int, float]:
        """``(size_bytes, mtime)`` of the blob at ``rel``."""

    def local_root(self) -> Optional[Path]:
        """The local directory backing this store, if there is one.

        Only backends that answer expose local entry and object paths
        (:meth:`Index.entry_path`, :meth:`Store.object_path`).
        """
        return None

    def utime(self, rel: str, times: Tuple[float, float]) -> None:
        """Best-effort timestamp override (LRU age carry-over)."""

    def read_or_none(self, rel: str) -> Optional[bytes]:
        try:
            return self.read(rel)
        except OSError:
            return None

    def get_many(self, rels: Iterable[str]
                 ) -> Iterator[Tuple[str, Optional[bytes]]]:
        """Bulk read; yields ``(rel, data-or-None)`` per request."""
        for rel in rels:
            yield rel, self.read_or_none(rel)

    def set_many(self, pairs: Iterable[Tuple[str, bytes]]) -> int:
        """Bulk write; returns the number of blobs written."""
        count = 0
        for rel, data in pairs:
            self.write(rel, data)
            count += 1
        return count


class LocalBackend(Backend):
    """A directory tree on the local filesystem."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def __repr__(self) -> str:
        return f"LocalBackend({str(self.root)!r})"

    def _path(self, rel: str) -> Path:
        return self.root / rel

    def read(self, rel: str) -> bytes:
        return self._path(rel).read_bytes()

    def write(self, rel: str, data: bytes) -> None:
        path = self._path(rel)
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

    def exists(self, rel: str) -> bool:
        return self._path(rel).is_file()

    def delete(self, rel: str) -> None:
        self._path(rel).unlink(missing_ok=True)

    def list(self, prefix: str = "") -> Iterator[str]:
        base = self._path(prefix) if prefix else self.root
        if not base.is_dir():
            return
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".tmp"):
                    continue
                rel = (Path(dirpath) / name).relative_to(self.root)
                yield rel.as_posix()

    def stat(self, rel: str) -> Tuple[int, float]:
        info = self._path(rel).stat()
        return info.st_size, info.st_mtime

    def local_root(self) -> Optional[Path]:
        return self.root

    def utime(self, rel: str, times: Tuple[float, float]) -> None:
        try:
            os.utime(self._path(rel), times)
        except OSError:
            pass


def open_backend(target: Union[Backend, str, Path, None] = None) -> Backend:
    """A backend for ``target``: a Backend passes through, a
    ``file://`` URL or a path (or None, via :func:`cache_root`) opens a
    :class:`LocalBackend`; any other URL scheme is a ``ValueError``."""
    if isinstance(target, Backend):
        return target
    if target is not None and "://" in str(target):
        url = str(target)
        parts = urlsplit(url)
        if parts.scheme != "file":
            raise ValueError(
                f"unsupported remote scheme {parts.scheme!r} in "
                f"{url!r}; known: file")
        return LocalBackend(parts.path)
    return LocalBackend(cache_root(target))
