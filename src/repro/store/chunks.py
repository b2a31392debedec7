"""The tiered LRU chunk cache: byte-budgeted, pinnable, instrumented.

Every chunk a :class:`~repro.store.ChunkedRowArray` reads goes through
one :class:`ChunkCache`.  The cache holds loaded chunks (``mmap``-backed
read-only views) in two tiers:

* the **LRU tier** — plain entries, evicted least-recently-used when the
  cache's total bytes exceed ``budget_bytes``;
* the **pinned tier** — entries with a live pin count, never evicted.
  A gather pins the chunks it is copying from for the duration of the
  copy (see :meth:`pinned`), so an over-budget scan can stream through
  arbitrarily many chunks without ever evicting one mid-read.

The budget is a **soft high-water mark** over logical chunk bytes: the
most recently used entry always survives (evicting what was just loaded
would thrash), and pinned bytes can exceed the budget transiently.
Hits, misses and evictions are counted for observability
(:meth:`stats`), which is what cache-tuning in ``docs/storage.md``
works from.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager

from ..obs import hooks as _hooks
from ..obs.metrics import get_registry
from ..obs.stats import StatBlock

__all__ = ["ChunkCache", "DEFAULT_CACHE_BYTES"]

#: Default chunk-cache byte budget for :func:`repro.store.open_store`.
DEFAULT_CACHE_BYTES = 64 * 2**20


class ChunkCache(StatBlock):
    """Byte-budgeted LRU over loaded chunks, with a pinned tier.

    Keys are caller-chosen hashables (the row arrays use
    ``(array_name, chunk_index)``); values are the loaded numpy views.
    Its ``hits`` / ``misses`` / ``evictions`` are a
    :class:`~repro.obs.stats.StatBlock` over the
    ``repro_store_chunk_*_total`` counters.
    """

    PREFIX = "repro_store_chunk"
    COUNTERS = {
        "hits": "chunk-cache reads served from a resident chunk",
        "misses": "chunk-cache reads that loaded a chunk from disk",
        "evictions": "chunks evicted by the byte-budget LRU",
    }

    def __init__(self, budget_bytes: int = DEFAULT_CACHE_BYTES):
        if budget_bytes < 0:
            raise ValueError(
                f"budget_bytes must be >= 0, got {budget_bytes}")
        super().__init__()
        self.budget_bytes = int(budget_bytes)
        self._entries: OrderedDict = OrderedDict()  # key -> (array, nbytes)
        self._pins: dict = {}                       # key -> pin count
        self._bytes = 0
        # delta-tracked so several caches in one process sum correctly
        self._obs_bytes = get_registry().gauge(
            "repro_store_cached_bytes",
            "logical bytes currently resident in chunk caches")

    # -- core ------------------------------------------------------------- #
    def get(self, key, loader):
        """The cached chunk for ``key``, loading via ``loader()`` on a miss.

        The entry moves to most-recently-used either way; after a miss
        the LRU tier is trimmed back under the byte budget (pinned
        entries and the entry just loaded are never eviction victims).
        A miss also fires the ``on_chunk_miss`` profiling hook with the
        loaded chunk's size.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self.bump("hits")
            self._entries.move_to_end(key)
            return entry[0]
        self.bump("misses")
        array = loader()
        nbytes = int(array.nbytes)
        _hooks.fire("on_chunk_miss", key=key, nbytes=nbytes)
        self._entries[key] = (array, nbytes)
        self._bytes += nbytes
        self._obs_bytes.add(nbytes)
        self._trim(keep=key)
        return array

    def _trim(self, keep=None) -> None:
        """Evict LRU unpinned entries until under budget (best effort)."""
        while self._bytes > self.budget_bytes:
            victim = None
            for key in self._entries:        # oldest first
                if key != keep and not self._pins.get(key):
                    victim = key
                    break
            if victim is None:               # everything left is held
                break
            _, nbytes = self._entries.pop(victim)
            self._bytes -= nbytes
            self._obs_bytes.add(-nbytes)
            self.bump("evictions")

    def evict(self, key) -> bool:
        """Drop one entry regardless of recency (not counted as an
        eviction — this is invalidation, e.g. after a chunk rewrite);
        pinned entries are left in place.  Returns whether it was
        cached."""
        if self._pins.get(key):
            return False
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes -= entry[1]
        self._obs_bytes.add(-entry[1])
        return True

    def clear(self) -> None:
        """Drop every unpinned entry (counters are kept)."""
        for key in [k for k in self._entries if not self._pins.get(k)]:
            _, nbytes = self._entries.pop(key)
            self._bytes -= nbytes
            self._obs_bytes.add(-nbytes)

    # -- pinning ----------------------------------------------------------- #
    def pin(self, key) -> None:
        """Hold ``key`` in the pinned tier (pins nest; see :meth:`unpin`)."""
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key) -> None:
        """Release one pin; the entry rejoins the LRU tier at zero pins."""
        count = self._pins.get(key, 0)
        if count <= 1:
            self._pins.pop(key, None)
        else:
            self._pins[key] = count - 1

    @contextmanager
    def pinned(self, keys):
        """Context manager pinning ``keys`` for the duration of a read.

        This is what keeps an in-flight gather's chunks resident even
        when the gather itself spans more bytes than the budget.
        """
        keys = list(keys)
        for key in keys:
            self.pin(key)
        try:
            yield self
        finally:
            for key in keys:
                self.unpin(key)

    def is_pinned(self, key) -> bool:
        """Whether ``key`` currently holds at least one pin."""
        return bool(self._pins.get(key))

    # -- introspection ------------------------------------------------------ #
    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def cached_bytes(self) -> int:
        """Total logical bytes of every cached chunk (both tiers)."""
        return self._bytes

    def stats(self) -> dict:
        """Counters + occupancy: the cache-tuning observability surface."""
        return {
            **self.snapshot(),
            "cached_chunks": len(self._entries),
            "cached_bytes": self._bytes,
            "pinned_chunks": len(self._pins),
            "budget_bytes": self.budget_bytes,
        }

    def __repr__(self) -> str:
        return (f"ChunkCache(chunks={len(self._entries)}, "
                f"bytes={self._bytes}/{self.budget_bytes}, "
                f"hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")
