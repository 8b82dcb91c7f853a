"""Column tables: named BAT-style columns bound to disk segments."""

import numpy as np

from repro.errors import StorageError
from repro.storage.compress import choose_codec, note_column

VALUE_BYTES = 8  # int64 oids


class ColumnTable:
    """A table stored column-wise, optionally sorted on a column list.

    Each column lives in its own segment named ``<table>.<column>``, so the
    buffer pool accounts I/O per column — the mechanism behind the
    column-store's "read only what the query touches" advantage.

    With *compress* (a :class:`~repro.storage.compress.CompressionConfig`)
    each column is additionally encoded by the stats-driven codec picker:
    an encoded column's segment is sized at the encoded footprint and the
    operators read compressed byte ranges.
    """

    def __init__(self, name, columns, disk, sort_order=None, presorted=False,
                 compress=None):
        if not columns:
            raise StorageError(f"table {name!r} needs at least one column")
        sort_order = list(sort_order or [])
        for col in sort_order:
            if col not in columns:
                raise StorageError(
                    f"sort column {col!r} not in table {name!r}"
                )

        arrays = {
            col: np.ascontiguousarray(values, dtype=np.int64).view()
            for col, values in columns.items()
        }
        lengths = {len(a) for a in arrays.values()}
        if len(lengths) != 1:
            raise StorageError(f"ragged columns in table {name!r}")
        n_rows = lengths.pop()

        if sort_order and not presorted:
            # np.lexsort sorts by the *last* key first.
            keys = [arrays[col] for col in reversed(sort_order)]
            order = np.lexsort(keys)
            arrays = {col: a[order] for col, a in arrays.items()}

        self.name = name
        self.n_rows = n_rows
        self.sort_order = sort_order
        # Read-only views: a stored column may be a slice of an array other
        # tables share (the vertical store's PSO pair).
        for a in arrays.values():
            a.flags.writeable = False
        self._arrays = arrays
        #: column -> its codec (what reads account I/O against); raw: none.
        self.encodings = {}
        if compress is not None:
            for col, a in arrays.items():
                encoding = choose_codec(a)
                note_column(encoding, n_rows)
                if encoding is not None:
                    self.encodings[col] = encoding
        #: column -> its disk segment.
        self.segments = {
            col: disk.create_segment(f"{name}.{col}", self._column_bytes(col))
            for col in arrays
        }

    def _column_bytes(self, column):
        """Stored footprint: encoded when a codec won, raw otherwise."""
        encoding = self.encodings.get(column)
        if encoding is not None:
            return encoding.nbytes
        return self.n_rows * VALUE_BYTES

    def __repr__(self):
        return (
            f"ColumnTable({self.name!r}, rows={self.n_rows}, "
            f"sort={self.sort_order})"
        )

    def column_names(self):
        return list(self._arrays)

    def definition(self):
        """``(sort_by, indexes)``: what ``create_table`` needs besides the
        columns to re-create this table (a column table has no indexes)."""
        return list(self.sort_order), None

    def array(self, column):
        """The raw in-memory array (I/O accounting is the caller's job)."""
        try:
            return self._arrays[column]
        except KeyError:
            raise StorageError(
                f"table {self.name!r} has no column {column!r}"
            ) from None

    def bytes_on_disk(self):
        return sum(s.nbytes for s in self.segments.values())

    def logical_bytes(self):
        """Uncompressed footprint of the table's columns."""
        return len(self._arrays) * self.n_rows * VALUE_BYTES

    def compressed_bytes(self):
        """Encoded footprint (raw-kept columns count at full size)."""
        return sum(self._column_bytes(col) for col in self._arrays)

    def compression_summary(self):
        """Per-column codec + size document for reports."""
        columns = {}
        for col in self._arrays:
            encoding = self.encodings.get(col)
            columns[col] = {
                "codec": encoding.codec if encoding is not None else "raw",
                "logical_bytes": self.n_rows * VALUE_BYTES,
                "compressed_bytes": self._column_bytes(col),
            }
        return columns
