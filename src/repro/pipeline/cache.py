"""Content-addressed compile cache for the ``synthesize`` stage.

Offline compilation dominates the real toolflow (AOC runs take hours),
and both the benchmark suite and the DSE sweeps re-synthesize identical
kernel systems dozens of times.  The cache is keyed on the content that
determines a bitstream — generated OpenCL source, channel topology,
board, AOC constants — so a hit returns a bitstream equal to what a
fresh synthesis would produce.

Two backends compose: an in-process :class:`LRU` (always on by default)
and an optional pickle-per-entry :class:`DiskBackend` that survives
process restarts.  Deterministic synthesis *failures* (fit/routing) are
cached too, as :class:`CachedFailure` entries, so a DSE sweep does not
re-synthesize known-infeasible points.

:class:`LRU` is also the one bounded memo behind every other process
cache: the per-kernel lower cache (:mod:`repro.flow.incremental`), the
equivalence-certificate cache (:mod:`repro.verify.equiv`) and the
serving logits memo (:class:`repro.serve.replica.LogitsCache`).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: environment variable enabling the on-disk backend of the default cache
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_MISS = object()


@dataclass
class CachedFailure:
    """A deterministic synthesis failure, replayable from the cache."""

    kind: str  # exception class name within repro.errors
    message: str
    #: placement seeds the resilient synthesize stage attempted before
    #: giving up (empty when no seed sweep ran)
    seeds_tried: Tuple[int, ...] = ()


class LRU:
    """A bounded, recency-ordered map.

    :meth:`get` on a present key refreshes its recency; a membership
    test (``key in lru``) does not, and neither does a :meth:`put` that
    refills a key already present.  A :meth:`put` of a new key past
    :attr:`capacity` evicts the least recently used entry.  Callers
    keep their own hit/miss counters.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()

    def get(self, key: Hashable, default: object = None) -> object:
        if key not in self._data:
            return default
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: Hashable, value: object) -> None:
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present."""
        self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)


class DiskBackend:
    """One pickle file per entry under a cache directory."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str, default: object = None) -> object:
        path = self._path(key)
        if not path.exists():
            return default
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # corrupt/partial entry: drop it and treat as a miss
            try:
                path.unlink()
            except OSError:
                pass
            return default

    def put(self, key: str, value: object) -> None:
        # atomic publish: write to a temp file, verify it round-trips,
        # then rename into place — a torn or unpicklable entry must never
        # become visible under the final name
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                with open(tmp, "rb") as fh:
                    pickle.load(fh)
            except Exception as err:
                raise ReproError(
                    f"compile-cache entry {key!r} failed round-trip "
                    f"verification after write: {err}"
                ) from err
            os.replace(tmp, self._path(key))
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


class CompileCache:
    """Content-addressed cache with layered backends + hit/miss stats."""

    def __init__(
        self,
        backends: Optional[Sequence[object]] = None,
        max_entries: int = 128,
        disk_dir: Optional[os.PathLike] = None,
    ) -> None:
        if backends is None:
            backends = [LRU(max_entries)]
            if disk_dir:
                backends.append(DiskBackend(disk_dir))
        self.backends: List[object] = list(backends)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Tuple[bool, object]:
        """``(found, value)``; a hit is promoted into earlier backends."""
        for i, backend in enumerate(self.backends):
            value = backend.get(key, _MISS)
            if value is not _MISS:
                for earlier in self.backends[:i]:
                    earlier.put(key, value)
                self.hits += 1
                return True, value
        self.misses += 1
        return False, None

    def store(self, key: str, value: object) -> None:
        for backend in self.backends:
            backend.put(key, value)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:
        kinds = "+".join(type(b).__name__ for b in self.backends)
        return f"CompileCache({kinds}, {self.hits} hits / {self.misses} misses)"


_default: Optional[CompileCache] = None


def default_cache() -> CompileCache:
    """The process-wide cache used when no explicit cache is passed.

    Honors ``REPRO_CACHE_DIR`` for an on-disk backend; otherwise memory
    only.
    """
    global _default
    if _default is None:
        _default = CompileCache(disk_dir=os.environ.get(CACHE_DIR_ENV) or None)
    return _default


def set_default_cache(cache: Optional[CompileCache]) -> None:
    """Replace (or, with ``None``, reset) the process-wide default cache."""
    global _default
    _default = cache
