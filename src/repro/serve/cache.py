"""LRU model cache keyed by checkpoint digest.

Serving many models from one process needs the host-side analogue of
WarpLDA's cache-efficiency argument (PAPERS.md): keep the hot φ
matrices resident, evict cold ones. The cache key is the checkpoint's
**content digest** — the embedded SHA-256 that format-v3 checkpoints
carry (:mod:`repro.core.serialization`) — so two paths to the same
bytes share one entry, and a checkpoint file that is *rewritten* under
the same name is treated as a different model rather than served
stale.

Hits return the exact object a cold load would produce (bit-identical
φ; tested as a property). Pre-v3 checkpoints lack the embedded digest
and fall back to hashing the file bytes.
"""

from __future__ import annotations

import hashlib
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.serialization import ModelCheckpoint, load_model
from repro.telemetry.context import emit_counter, emit_gauge

__all__ = ["checkpoint_digest", "ModelCache"]


def checkpoint_digest(path: str | Path) -> str:
    """Content digest of a checkpoint file.

    Format-v3 files embed a SHA-256 over their canonical contents; read
    it straight from the archive (cheap — no array decompression).
    Older files (v1/v2, or any non-npz payload a test loader fakes)
    hash the raw file bytes instead.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if "checksum" in data.files:
                return str(data["checksum"])
    except (zipfile.BadZipFile, ValueError, OSError):
        pass
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class ModelCache:
    """A bounded LRU of loaded models.

    Parameters
    ----------
    capacity: max resident models (>= 1).
    loader: checkpoint deserializer (defaults to
        :func:`repro.core.serialization.load_model`; property tests
        inject counters here).
    digest_fn: path → content-digest function (defaults to
        :func:`checkpoint_digest`).
    """

    def __init__(
        self,
        capacity: int = 2,
        loader: Callable[[str], ModelCheckpoint] = load_model,
        digest_fn: Callable[[str], str] = checkpoint_digest,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._loader = loader
        self._digest_fn = digest_fn
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, path: str | Path) -> tuple[object, str, bool]:
        """Resolve *path* to ``(model, digest, hit)``.

        The digest is recomputed from the file on every call (metadata
        read, not a full load), so a rewritten checkpoint misses and
        reloads rather than serving the stale bytes that used to live
        at that path.
        """
        digest = self._digest_fn(str(path))
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            self.hits += 1
            return entry, digest, True
        model = self._loader(str(path))
        self.misses += 1
        self._entries[digest] = model
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            emit_counter(
                "serve_cache_evictions_total", 1,
                help="Models evicted from the LRU cache.",
            )
        emit_gauge(
            "serve_cache_resident_models", len(self._entries),
            help="Models currently resident in the cache.",
        )
        return model, digest, False

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def resident_digests(self) -> list[str]:
        """Digests currently cached, LRU-first."""
        return list(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ModelCache(size={len(self)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
