"""Columnar relation values exchanged between engines and clients.

A :class:`Relation` is the materialized result (or intermediate) of a query:
named, equal-length numpy arrays.  Most columns hold dictionary oids (the
engines work on dictionary-encoded integers throughout, as the paper's
appendix notes); aggregate outputs such as ``count(*)`` hold plain integers.
The ``oid_columns`` set records which is which so results can be decoded
back to strings.
"""

import numpy as np

from repro.errors import EngineError


class Relation:
    """An immutable bag of rows in columnar form."""

    __slots__ = ("columns", "n_rows", "oid_columns")

    def __init__(self, columns, oid_columns=None):
        if not columns:
            raise EngineError("a relation needs at least one column")
        self.columns = {
            name: np.asarray(values, dtype=np.int64)
            for name, values in columns.items()
        }
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise EngineError(f"ragged relation: column lengths {lengths}")
        self.n_rows = lengths.pop()
        if oid_columns is None:
            oid_columns = frozenset(self.columns)
        self.oid_columns = frozenset(oid_columns) & frozenset(self.columns)

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return f"Relation({list(self.columns)}, n_rows={self.n_rows})"

    def column_names(self):
        return list(self.columns)

    def column(self, name):
        try:
            return self.columns[name]
        except KeyError:
            raise EngineError(
                f"no column {name!r}; have {list(self.columns)}"
            ) from None

    def to_tuples(self, order=None):
        """Rows as a list of tuples (column order = *order* or insertion)."""
        names = list(order) if order else list(self.columns)
        arrays = [self.column(n) for n in names]
        return list(zip(*(a.tolist() for a in arrays))) if self.n_rows else []

    def decoded_tuples(self, dictionary, order=None):
        """Rows with oid columns decoded back to strings."""
        names = list(order) if order else list(self.columns)
        decoded_columns = []
        for name in names:
            values = self.column(name)
            if name in self.oid_columns:
                decoded_columns.append(dictionary.decode_many(values))
            else:
                decoded_columns.append(values.tolist())
        return list(zip(*decoded_columns)) if self.n_rows else []

    def sorted_tuples(self, order=None):
        """Canonical form for result comparison: sorted row tuples."""
        return sorted(self.to_tuples(order))

    @staticmethod
    def empty(names, oid_columns=None):
        """A zero-row relation with the given column names."""
        return Relation(
            {n: np.empty(0, dtype=np.int64) for n in names}, oid_columns
        )

    @staticmethod
    def from_rows(names, rows, oid_columns=None):
        """Build a relation from an iterable of row tuples."""
        rows = list(rows)
        if not rows:
            return Relation.empty(names, oid_columns)
        arrays = list(zip(*rows))
        return Relation(
            {n: np.asarray(a, dtype=np.int64) for n, a in zip(names, arrays)},
            oid_columns,
        )
