"""A B+tree over integer-tuple keys.

Keys are tuples of ints (composite index keys); values are integer row ids.
Duplicate keys are allowed.  The tree supports bulk loading from sorted
pairs, point/prefix/range scans, and single-pair insertion (used by tests
and by incremental loads).

Each node corresponds to one simulated disk page.  The tree itself is a
pure data structure; callers that want I/O and CPU accounting set
``on_access`` to a callback invoked with the node's page number on every
node visit (descent steps and leaf hops alike).
"""

import bisect

from repro.errors import StorageError


class _Node:
    __slots__ = ("page", "keys")


class _Leaf(_Node):
    __slots__ = ("values", "next_leaf")

    def __init__(self, page):
        self.page = page
        self.keys = []
        self.values = []
        self.next_leaf = None

    is_leaf = True


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self, page):
        self.page = page
        self.keys = []      # separator keys; len(children) == len(keys) + 1
        self.children = []  # node page numbers

    is_leaf = False


class BPlusTree:
    """B+tree with configurable fan-out (max keys per node)."""

    def __init__(self, order=64, on_access=None):
        if order < 3:
            raise StorageError("B+tree order must be at least 3")
        self.order = order
        self.on_access = on_access
        #: Lifetime count of node visits (descent steps and leaf hops) by
        #: queries — the row store's per-probe work, surfaced in profiles.
        self.node_visits = 0
        self._nodes = []
        root = self._new_leaf()
        self._root_page = root.page
        self._n_entries = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def bulk_load(cls, pairs, order=64, fill_factor=0.7, on_access=None):
        """Build a tree from ``(key, value)`` pairs sorted by key."""
        pairs = list(pairs)
        keys = [tuple(k) for k, _ in pairs]
        if any(b < a for a, b in zip(keys, keys[1:])):
            raise StorageError("bulk_load requires key-sorted input")
        return cls.from_sorted(
            keys,
            [v for _, v in pairs],
            order=order,
            fill_factor=fill_factor,
            on_access=on_access,
        )

    @classmethod
    def from_sorted(cls, keys, values, order=64, fill_factor=0.7,
                    on_access=None):
        """Bottom-up constructor from pre-sorted parallel sequences.

        *keys* must be a sequence of key tuples already in ascending order
        (not re-verified) and *values* the parallel value sequence.  Leaves
        are packed directly from slices and each internal level is assembled
        from the level below with its separator keys taken from the tracked
        subtree minima — no per-pair inserts, no descent walks.  This is the
        fast path the storage builders use: loading a table's indexes this
        way is O(n) after the caller's sort instead of O(n log n) tree
        inserts with node splits.
        """
        tree = cls(order=order, on_access=on_access)
        n = len(keys)
        if n == 0:
            return tree
        if len(values) != n:
            raise StorageError("from_sorted needs parallel keys and values")

        tree._nodes = []
        per_node = max(2, int(order * fill_factor))
        leaves = []
        for start in range(0, n, per_node):
            leaf = tree._new_leaf()
            leaf.keys = list(keys[start : start + per_node])
            leaf.values = list(values[start : start + per_node])
            leaves.append(leaf)
        for a, b in zip(leaves, leaves[1:]):
            a.next_leaf = b.page

        level = leaves
        minima = [leaf.keys[0] for leaf in leaves]
        while len(level) > 1:
            parents = []
            parent_minima = []
            for start in range(0, len(level), per_node):
                chunk = level[start : start + per_node]
                node = tree._new_internal()
                node.children = [c.page for c in chunk]
                node.keys = minima[start + 1 : start + len(chunk)]
                parents.append(node)
                parent_minima.append(minima[start])
            level = parents
            minima = parent_minima
        tree._root_page = level[0].page
        tree._n_entries = n
        return tree

    def insert(self, key, value):
        """Insert one pair (duplicates allowed)."""
        key = tuple(key)
        path = []  # (internal node, index of the child descended into)
        node = self._node(self._root_page)
        while not node.is_leaf:
            index = bisect.bisect_right(node.keys, key)
            path.append((node, index))
            node = self._node(node.children[index])
        index = bisect.bisect_right(node.keys, key)
        node.keys.insert(index, key)
        node.values.insert(index, value)
        self._n_entries += 1
        if len(node.keys) > self.order:
            self._split(node, path)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self):
        return self._n_entries

    def height(self):
        """Number of levels (1 for a lone leaf)."""
        levels = 1
        node = self._node(self._root_page)
        while not node.is_leaf:
            levels += 1
            node = self._node(node.children[0])
        return levels

    def n_nodes(self):
        return len(self._nodes)

    def search(self, key):
        """All values stored under exactly *key*."""
        key = tuple(key)
        return [v for _, v in self.range_scan(key, _upper_bound(key))]

    def prefix_scan(self, prefix):
        """Yield ``(key, value)`` for every key starting with *prefix*."""
        prefix = tuple(prefix)
        return self.range_scan(prefix, _upper_bound(prefix))

    def prefix_values(self, prefix):
        """The values of :meth:`prefix_scan` as a list, a leaf at a time:
        the bounds are bisected inside each leaf and the values sliced
        out, visiting the same nodes in the same order as the
        pair-at-a-time scan."""
        prefix = tuple(prefix)
        hi = _upper_bound(prefix)
        values = []
        leaf, start = self._descend(prefix)
        while True:
            keys = leaf.keys
            stop = len(keys) if hi is None else bisect.bisect_left(
                keys, hi, start
            )
            values += leaf.values[start:stop]
            if stop < len(keys) or leaf.next_leaf is None:
                return values
            leaf = self._node(leaf.next_leaf)
            self._touch(leaf)
            start = 0

    def range_scan(self, lo, hi):
        """Yield ``(key, value)`` pairs with ``lo <= key < hi``.

        *lo* of ``None`` means unbounded below, *hi* of ``None`` unbounded
        above.  Key comparison is tuple comparison, so a short *lo* tuple
        acts as an inclusive prefix bound.
        """
        leaf, index = self._descend(lo)
        while leaf is not None:
            keys = leaf.keys
            while index < len(keys):
                key = keys[index]
                if hi is not None and not key < hi:
                    return
                yield key, leaf.values[index]
                index += 1
            if leaf.next_leaf is None:
                return
            leaf = self._node(leaf.next_leaf)
            self._touch(leaf)
            index = 0

    def items(self):
        """Every pair in key order."""
        return self.range_scan(None, None)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _descend(self, key):
        """Leaf and in-leaf position of the first key >= *key*."""
        node = self._node(self._root_page)
        self._touch(node)
        while not node.is_leaf:
            if key is None:
                index = 0
            else:
                # bisect_left: duplicates equal to a separator may live at
                # the end of the left sibling (bulk load packs contiguously),
                # so descend left and let the leaf hop move forward if empty.
                index = bisect.bisect_left(node.keys, tuple(key))
            node = self._node(node.children[index])
            self._touch(node)
        if key is None:
            return node, 0
        index = bisect.bisect_left(node.keys, tuple(key))
        if index == len(node.keys) and node.next_leaf is not None:
            nxt = self._node(node.next_leaf)
            self._touch(nxt)
            return nxt, 0
        return node, index

    def _touch(self, node):
        self.node_visits += 1
        if self.on_access is not None:
            self.on_access(node.page)

    def _node(self, page):
        return self._nodes[page]

    def _new_leaf(self):
        leaf = _Leaf(len(self._nodes))
        self._nodes.append(leaf)
        return leaf

    def _new_internal(self):
        node = _Internal(len(self._nodes))
        self._nodes.append(node)
        return node

    def _split(self, node, path):
        mid = len(node.keys) // 2
        if node.is_leaf:
            sibling = self._new_leaf()
            sibling.keys = node.keys[mid:]
            sibling.values = node.values[mid:]
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            sibling.next_leaf = node.next_leaf
            node.next_leaf = sibling.page
            separator = sibling.keys[0]
        else:
            sibling = self._new_internal()
            separator = node.keys[mid]
            sibling.keys = node.keys[mid + 1 :]
            sibling.children = node.children[mid + 1 :]
            node.keys = node.keys[:mid]
            node.children = node.children[: mid + 1]

        if not path:
            root = self._new_internal()
            root.keys = [separator]
            root.children = [node.page, sibling.page]
            self._root_page = root.page
            return
        # The sibling goes right after the child that split.  Searching
        # the parent for the separator instead would misplace it whenever
        # a run of duplicates already spans several children.
        parent, index = path[-1]
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, sibling.page)
        if len(parent.keys) > self.order:
            self._split(parent, path[:-1])


def _upper_bound(prefix):
    """Smallest tuple greater than every tuple starting with *prefix*."""
    prefix = tuple(prefix)
    if not prefix:
        return None
    return prefix[:-1] + (prefix[-1] + 1,)
