"""The one keyed LRU cache.

Backs the per-connection prepared-plan cache (:mod:`repro.api`) and the
per-runtime lowered-plan cache (:mod:`repro.exec.runtime`).  The buffer
pool's LRU is keyed by page extents, not by single keys, and lives in
:mod:`repro.engine.buffer` (see docs/ARCHITECTURE.md).
"""

from collections import OrderedDict


class LruCache:
    """Least-recently-used map with hit/miss/eviction counters.

    A ``get`` refreshes recency; ``put`` is insert-if-absent (first build
    wins under races) and evicts the least recently *used* entry when
    full — a hot entry is never evicted by a stream of one-off keys.
    Callers provide their own locking.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def get(self, key):
        """The cached entry (refreshed as most-recent), or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry):
        """Insert *entry* unless *key* is already present; returns the
        canonical (cached) entry either way."""
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = entry
        return entry

    def clear(self):
        """Drop every entry (not counted as evictions)."""
        self._entries.clear()

    def stats(self):
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
