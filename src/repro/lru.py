"""The one keyed LRU cache.

Backs the per-connection prepared-plan cache (:mod:`repro.api`), the
per-runtime lowered-plan cache (:mod:`repro.exec.runtime`), the column
store's template-union memo (:mod:`repro.colstore.operators`) and the row
store's union-branch memo (:mod:`repro.rowstore.operators`), whose
entries are weighed by the rows they hold.  The buffer
pool's LRU is keyed by page extents, not by single keys, and lives in
:mod:`repro.engine.buffer` (see docs/ARCHITECTURE.md).
"""

from collections import OrderedDict


class LruCache:
    """Least-recently-used map with hit/miss/eviction counters.

    A ``get`` refreshes recency; ``put`` is insert-if-absent (first build
    wins under races) and evicts the least recently *used* entry when
    full — a hot entry is never evicted by a stream of one-off keys.
    *weigh* (``entry -> int``, every entry 1 by default) sets what
    *capacity* bounds: the total weight held, so an entry heavier than
    the whole capacity is returned and not kept.  Callers provide their
    own locking.
    """

    __slots__ = (
        "capacity", "weigh", "weight", "_entries", "hits", "misses",
        "evictions",
    )

    def __init__(self, capacity, weigh=None):
        self.capacity = capacity
        self.weigh = weigh
        #: Total weight of the entries held.
        self.weight = 0
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

    def get_many(self, keys):
        """The cached entries of *keys* in order, ``None`` where absent;
        each one found is refreshed as most-recent, in order."""
        entries = self._entries
        found = list(map(entries.get, keys))
        refresh = entries.move_to_end
        for key, entry in zip(keys, found):
            if entry is not None:
                refresh(key)
        missed = found.count(None)
        self.hits += len(found) - missed
        self.misses += missed
        return found

    def put(self, key, entry):
        """Insert *entry* unless *key* is already present; returns the
        canonical (cached) entry either way."""
        entries = self._entries
        existing = entries.get(key)
        if existing is not None:
            return existing
        weigh = self.weigh
        weight = 1 if weigh is None else weigh(entry)
        if weight > self.capacity:
            return entry
        while entries and self.weight + weight > self.capacity:
            _, evicted = entries.popitem(last=False)
            self.weight -= 1 if weigh is None else weigh(evicted)
            self.evictions += 1
        entries[key] = entry
        self.weight += weight
        return entry

    def clear(self):
        """Drop every entry (not counted as evictions)."""
        self._entries.clear()
        self.weight = 0

    def stats(self):
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
