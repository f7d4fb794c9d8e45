"""Content-addressed object storage: immutable blobs keyed by digest.

An object is the stored byte string itself — its name is the SHA-256 of
exactly the bytes on disk, laid out dvc-style as
``objects/<digest[:2]>/<digest[2:]>``.  Hash-over-stored-bytes keeps
three properties cheap:

* **verification** — every read re-hashes and rejects silent
  corruption (a flipped bit becomes a cache miss, never bad data);
* **dedup** — identical content is written once, however many index
  keys point at it;
* **sync** — two roots compare objects by name alone, so push/pull
  copies exactly the digests the other side lacks.

Compression is a *codec* recorded by the index entry, not baked into
the object name: ``raw`` stores payload bytes verbatim, ``gzip``
stores a deterministic gzip stream (fixed header, no mtime) so equal
payloads always produce equal objects.  :meth:`ObjectStore.put_stream`
compresses incrementally — a multi-megabyte checkpoint is gzipped
chunk by chunk without ever materializing payload and stream
side by side.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Iterable, Iterator, Tuple, Union

from repro.store.backend import Backend

#: codecs an index entry may record for its object
CODECS = ("raw", "gzip")

_GZIP_WBITS = 16 + zlib.MAX_WBITS


def _gzip_chunks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """Deterministic streaming gzip: zlib's gzip container writes a
    zero mtime, so equal payloads give byte-equal streams."""
    comp = zlib.compressobj(9, zlib.DEFLATED, _GZIP_WBITS)
    for chunk in chunks:
        out = comp.compress(chunk)
        if out:
            yield out
    yield comp.flush()


def decode(stored: bytes, codec: str) -> bytes:
    """Stored object bytes -> payload bytes; ValueError on corruption."""
    if codec == "raw":
        return stored
    if codec == "gzip":
        try:
            return zlib.decompress(stored, _GZIP_WBITS)
        except zlib.error as exc:
            raise ValueError(f"corrupt gzip object: {exc}") from exc
    raise ValueError(f"unknown object codec {codec!r}")


class ObjectStore:
    """Immutable content-addressed blobs over a :class:`Backend`."""

    PREFIX = "objects"

    def __init__(self, backend: Backend) -> None:
        self.backend = backend

    @classmethod
    def rel_for(cls, digest: str) -> str:
        if len(digest) < 4:
            raise ValueError(f"implausible object digest {digest!r}")
        return f"{cls.PREFIX}/{digest[:2]}/{digest[2:]}"

    # -- writes -----------------------------------------------------------

    def put_stored(self, stored: bytes) -> Tuple[str, int]:
        """Insert already-encoded bytes; returns ``(digest, size)``.

        Existing objects are never rewritten — equal digest means equal
        content, so a racing writer's copy is just as good.
        """
        digest = hashlib.sha256(stored).hexdigest()
        rel = self.rel_for(digest)
        if not self.backend.exists(rel):
            self.backend.write(rel, stored)
        return digest, len(stored)

    def put_bytes(self, payload: bytes, codec: str = "raw"
                  ) -> Tuple[str, int]:
        """Encode and store a payload; returns ``(digest, size)``."""
        if codec == "raw":
            return self.put_stored(payload)
        return self.put_stream((payload,), codec)

    def put_stream(self, chunks: Iterable[Union[bytes, str]],
                   codec: str = "gzip") -> Tuple[str, int]:
        """Store a payload produced chunk-by-chunk (streaming gzip)."""
        raw = (chunk.encode("utf-8") if isinstance(chunk, str) else chunk
               for chunk in chunks)
        if codec == "gzip":
            encoded: Iterable[bytes] = _gzip_chunks(raw)
        elif codec == "raw":
            encoded = raw
        else:
            raise ValueError(f"unknown object codec {codec!r}")
        hasher = hashlib.sha256()
        parts = []
        for piece in encoded:
            hasher.update(piece)
            parts.append(piece)
        stored = b"".join(parts)
        digest = hasher.hexdigest()
        rel = self.rel_for(digest)
        if not self.backend.exists(rel):
            self.backend.write(rel, stored)
        return digest, len(stored)

    # -- reads ------------------------------------------------------------

    def get_stored(self, digest: str) -> bytes:
        """The verified stored bytes; OSError when missing, ValueError
        when the content does not hash back to its name."""
        stored = self.backend.read(self.rel_for(digest))
        if hashlib.sha256(stored).hexdigest() != digest:
            raise ValueError(f"corrupt object {digest[:16]}: content "
                             "does not match its digest")
        return stored

    def get_bytes(self, digest: str, codec: str = "raw") -> bytes:
        return decode(self.get_stored(digest), codec)

    # -- bookkeeping ------------------------------------------------------

    def has(self, digest: str) -> bool:
        return self.backend.exists(self.rel_for(digest))

    def delete(self, digest: str) -> None:
        self.backend.delete(self.rel_for(digest))

    def stat(self, digest: str) -> Tuple[int, float]:
        return self.backend.stat(self.rel_for(digest))

    def digests(self) -> Iterator[str]:
        """Every object digest present in the store."""
        for rel in self.backend.list(self.PREFIX):
            parts = rel.split("/")
            if len(parts) == 3 and len(parts[1]) == 2:
                yield parts[1] + parts[2]
