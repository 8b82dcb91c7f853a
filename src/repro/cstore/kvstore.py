"""BerkeleyDB-like ordered key-value store.

One :class:`OrderedKV` instance is one "database" (in BerkeleyDB parlance):
an ordered multimap from integer-tuple keys to integer values, backed by a
B+tree whose nodes live in a disk segment.  Every node visit triggers a
64 KB synchronous read through the buffer pool — the small-request I/O
pattern whose consequences the paper measures in Section 3.
"""

from repro.errors import StorageError
from repro.rowstore.btree import BPlusTree

#: Pages fetched per synchronous read request (64 KB at 8 KB pages).
READAHEAD_PAGES = 8


class OrderedKV:
    """An ordered multimap backed by a B+tree in a disk segment."""

    #: Default node fan-out.  C-Store packs (and RLE-compresses) sorted
    #: columns densely: ~1425 entries per 8 KB page gives the ~5.7
    #: bytes/triple footprint that reproduces the paper's "not more than
    #: 270 MB on disk" for the 28-property load.
    DEFAULT_ORDER = 1500

    def __init__(self, name, keys, disk, pool, clock, node_cpu_cost,
                 order=DEFAULT_ORDER):
        """Bulk-load from *keys*, a list of key tuples in ascending order
        (not re-verified).  A database is keys only: every value is 0."""
        self.name = name
        self._tree = BPlusTree.from_sorted(
            keys, [0] * len(keys), order=order, fill_factor=0.95
        )
        self.segment = disk.create_segment(
            f"kv.{name}", max(1, self._tree.n_nodes()) * disk.page_size
        )
        n_pages = self.segment.num_pages()
        charge = clock.cpu_log()

        def on_access(page):
            first = min(page, max(0, n_pages - READAHEAD_PAGES))
            pool.read_pages(
                self.segment, range(first, min(first + READAHEAD_PAGES, n_pages))
            )
            charge(node_cpu_cost)

        self._tree.on_access = on_access

    def __len__(self):
        return len(self._tree)

    def get(self, key):
        """All values under exactly *key*."""
        return self._tree.search(tuple(key))

    def prefix(self, prefix):
        """Iterate ``(key, value)`` pairs whose key starts with *prefix*."""
        return self._tree.prefix_scan(tuple(prefix))

    def cursor(self):
        """Iterate every ``(key, value)`` pair in key order."""
        return self._tree.items()


class KVCatalog:
    """Named collection of KV databases (one per property table)."""

    def __init__(self):
        self._databases = {}

    def __contains__(self, name):
        return name in self._databases

    def add(self, name, database):
        if name in self._databases:
            raise StorageError(f"database already exists: {name!r}")
        self._databases[name] = database

    def get(self, name):
        try:
            return self._databases[name]
        except KeyError:
            raise StorageError(f"no such database: {name!r}") from None

    def names(self):
        return list(self._databases)
