"""Row tables: clustered heaps plus B+tree indexes.

A :class:`RowTable` stores tuples in a heap ordered by the clustering key.
The clustered B+tree maps clustering-key tuples to heap positions; reading a
clustered range is one contiguous heap read.  Secondary indexes map their
key columns to heap row ids; reading through one pays a scattered heap-page
fetch per row — the physical difference that makes the paper's SPO-vs-PSO
clustering comparison come out the way it does.
"""

from operator import itemgetter

import numpy as np

from repro.errors import StorageError
from repro.rowstore.btree import BPlusTree

ROW_HEADER_BYTES = 8  # per-row tuple header in the heap


class RowIndex:
    """A B+tree index (clustered or secondary) with its disk segment."""

    def __init__(self, name, key_columns, tree, segment, clustered):
        self.name = name
        self.key_columns = list(key_columns)
        self.tree = tree
        self.segment = segment
        self.clustered = clustered

    def equality_prefix_length(self, bound_columns):
        """How many leading key columns appear in *bound_columns*."""
        length = 0
        for col in self.key_columns:
            if col in bound_columns:
                length += 1
            else:
                break
        return length


class RowTable:
    """A heap of tuples clustered on a key, with optional secondaries."""

    def __init__(self, name, columns, disk, clustering, indexes=(),
                 btree_order=64, presorted=False):
        if not columns:
            raise StorageError(f"table {name!r} needs at least one column")
        clustering = list(clustering or [])
        for col in clustering:
            if col not in columns:
                raise StorageError(
                    f"clustering column {col!r} not in table {name!r}"
                )

        names = list(columns)
        arrays = [np.asarray(columns[c], dtype=np.int64) for c in names]
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise StorageError(f"ragged columns in table {name!r}")

        position = {c: i for i, c in enumerate(names)}
        if clustering and arrays[0].size and not presorted:
            # np.lexsort sorts by the last key first; it is stable, so ties
            # keep input order exactly like the sort it replaces.
            order = np.lexsort(
                tuple(arrays[position[c]] for c in reversed(clustering))
            )
            arrays = [a[order] for a in arrays]
        rows = list(zip(*(a.tolist() for a in arrays))) if arrays[0].size else []

        self.name = name
        self.columns = names
        self.clustering = clustering
        self.rows = rows
        self.n_rows = len(rows)
        self.row_bytes = ROW_HEADER_BYTES + 8 * len(names)
        self.heap_segment = disk.create_segment(
            f"{name}.heap", self.n_rows * self.row_bytes
        )
        self._position = position
        self.indexes = {}

        if clustering:
            self._build_index(
                f"{name}_clustered", clustering, disk, clustered=True,
                order=btree_order, arrays=arrays,
            )
        for spec in indexes or ():
            self._build_index(
                spec["name"], spec["columns"], disk, clustered=False,
                order=btree_order, arrays=arrays,
            )

    def _build_index(self, index_name, key_columns, disk, clustered, order,
                     arrays=None):
        for col in key_columns:
            if col not in self._position:
                raise StorageError(
                    f"index {index_name!r}: no column {col!r} in {self.name!r}"
                )
        if index_name in self.indexes:
            raise StorageError(f"duplicate index name {index_name!r}")
        key_pos = [self._position[c] for c in key_columns]
        if arrays is None:
            arrays = [
                np.fromiter(
                    (row[i] for row in self.rows), dtype=np.int64,
                    count=self.n_rows,
                )
                for i in range(len(self.columns))
            ]
        if self.n_rows:
            key_arrays = [arrays[i] for i in key_pos]
            # Stable lexsort == the stable tuple sort it replaces: equal
            # keys keep ascending row-id order.
            row_ids = np.lexsort(tuple(reversed(key_arrays)))
            keys = list(zip(*(a[row_ids].tolist() for a in key_arrays)))
            values = row_ids.tolist()
        else:
            keys, values = [], []
        tree = BPlusTree.from_sorted(keys, values, order=order)
        # One page per node; size the segment accordingly.
        segment = disk.create_segment(
            f"{self.name}.{index_name}",
            max(1, tree.n_nodes()) * disk.page_size,
        )
        self.indexes[index_name] = RowIndex(
            index_name, key_columns, tree, segment, clustered
        )

    # ------------------------------------------------------------------
    # physical access helpers (I/O charging is the executor's job)
    # ------------------------------------------------------------------

    def column_position(self, column):
        try:
            return self._position[column]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def column_names(self):
        return list(self.columns)

    def array(self, column):
        """One column copied out of the heap tuples, in heap order."""
        return np.fromiter(
            map(itemgetter(self.column_position(column)), self.rows),
            dtype=np.int64, count=self.n_rows,
        )

    def definition(self):
        """``(sort_by, indexes)``: what ``create_table`` needs besides the
        columns to re-create this table, secondary indexes included."""
        return list(self.clustering), [
            {"name": index.name, "columns": list(index.key_columns)}
            for index in self.secondary_indexes()
        ]

    def clustered_index(self):
        if not self.clustering:
            return None
        return self.indexes.get(f"{self.name}_clustered")

    def secondary_indexes(self):
        return [i for i in self.indexes.values() if not i.clustered]

    def all_indexes(self):
        return list(self.indexes.values())

    def heap_page_of_row(self, row_id):
        """Segment-relative heap page number holding *row_id*."""
        return row_id * self.row_bytes // self.heap_segment.page_size

    def heap_pages_of_range(self, first_row, last_row):
        """Heap page span (inclusive-exclusive) of a contiguous row range."""
        if first_row >= last_row:
            return (0, 0)
        first = first_row * self.row_bytes // self.heap_segment.page_size
        last = ((last_row * self.row_bytes - 1)
                // self.heap_segment.page_size) + 1
        return (first, last)

    def bytes_on_disk(self):
        return self.heap_segment.nbytes + sum(
            i.segment.nbytes for i in self.indexes.values()
        )
