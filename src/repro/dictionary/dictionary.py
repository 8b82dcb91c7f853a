"""Bidirectional string <-> oid dictionary.

The dictionary assigns dense, monotonically increasing integer oids to
strings in first-seen order.  Dense oids matter: the engines store columns of
oids in numpy integer arrays, and the statistics module sizes the simulated
on-disk footprint from ``len(dictionary)``.

Two flavours are provided:

* :class:`Dictionary` -- mutable, used during data loading.
* :class:`FrozenDictionary` -- immutable snapshot handed to engines, so a
  running query can never accidentally grow the dictionary (lookups of
  unknown strings are reported instead of silently interned).
"""

from itertools import filterfalse, repeat

import numpy as np

from repro.errors import DictionaryError


def require_strings(values):
    """Raise :class:`DictionaryError` naming the type of the first value
    of *values* that is not a string; one C-level pass when all are."""
    if not all(map(isinstance, values, repeat(str))):
        bad = next(v for v in values if not isinstance(v, str))
        raise DictionaryError(
            f"dictionary keys must be str, got {type(bad).__name__}"
        )


def decode_many(by_oid, oids):
    """The strings of *oids* (an oid array or any iterable of oids) in the
    oid table *by_oid*, as a list.

    The whole array is range-checked with one ``min`` / ``max``; an oid
    outside the table raises :class:`DictionaryError` naming the first
    such oid.  Then one C-level ``map`` indexes the table with the oids as
    Python ints — no per-element bytecode.
    """
    if not isinstance(oids, np.ndarray):
        oids = np.fromiter(oids, dtype=np.int64)
    if oids.size and (oids.min() < 0 or oids.max() >= len(by_oid)):
        bad = oids[(oids < 0) | (oids >= len(by_oid))]
        raise DictionaryError(f"oid out of range: {bad[0]}")
    return list(map(by_oid.__getitem__, oids.tolist()))


class Dictionary:
    """Mutable bidirectional mapping between strings and dense integer oids.

    >>> d = Dictionary()
    >>> d.encode("<type>")
    0
    >>> d.encode("<Text>")
    1
    >>> d.encode("<type>")          # idempotent
    0
    >>> d.decode(1)
    '<Text>'
    """

    __slots__ = ("_by_string", "_by_oid", "needs_reorganization")

    def __init__(self, strings=()):
        self._by_string = {}
        self._by_oid = []
        # Set by the encoding layer when appended oids broke an
        # order-preserving assignment; maintenance surfaces it so a
        # rebuild can restore the property.
        self.needs_reorganization = False
        for s in strings:
            self.encode(s)

    @classmethod
    def from_interned(cls, strings):
        """Rebuild a dictionary from strings already in oid order.

        Fast path for building a store from a prepared payload: *strings*
        must be unique and listed in oid order (as produced by iterating a
        dictionary); the maps are built with two C-level passes instead of
        per-string encode calls.
        """
        d = cls()
        d._by_oid = list(strings)
        d._by_string = {s: i for i, s in enumerate(d._by_oid)}
        if len(d._by_string) != len(d._by_oid):
            raise DictionaryError("from_interned requires unique strings")
        return d

    @classmethod
    def copy_of(cls, source):
        """A mutable copy of *source* (mutable or frozen) keeping every oid.

        Two C-level container copies and no per-string :meth:`encode`, so
        thawing makes the same few Python calls whatever the vocabulary
        size.
        """
        d = cls()
        d._by_string = dict(source._by_string)
        d._by_oid = list(source._by_oid)
        d.needs_reorganization = source.needs_reorganization
        return d

    def __len__(self):
        return len(self._by_oid)

    def __contains__(self, string):
        return string in self._by_string

    def __iter__(self):
        """Iterate strings in oid order."""
        return iter(self._by_oid)

    def encode(self, string):
        """Return the oid for *string*, interning it if new."""
        require_strings((string,))
        oid = self._by_string.get(string)
        if oid is None:
            oid = len(self._by_oid)
            self._by_string[string] = oid
            self._by_oid.append(string)
        return oid

    def encode_many(self, strings):
        """The oids of the sequence *strings* as an int64 array, interning
        the new ones in first-seen order: :meth:`extend` with the strings
        deduplicated, then :meth:`lookup_array`."""
        self.extend(dict.fromkeys(strings))
        return self.lookup_array(strings, len(strings))

    def extend(self, strings):
        """Intern, in iteration order, every string of *strings* not yet
        present; *strings* must not repeat a new string.

        C-level passes over the new strings — a ``filterfalse`` against
        the string map, one type check, one ``update`` — and no
        per-string :meth:`encode`.  A non-string raises
        :class:`DictionaryError` before anything is interned.
        """
        by_string = self._by_string
        new = list(filterfalse(by_string.__contains__, strings))
        require_strings(new)
        start = len(self._by_oid)
        by_string.update(zip(new, range(start, start + len(new))))
        self._by_oid += new

    def lookup_array(self, strings, count=-1):
        """The oids of the known *strings* as an int64 array: one C-level
        ``map`` of the string map's lookup into ``np.fromiter``.

        Raises :class:`DictionaryError` on an unknown string.
        """
        try:
            return np.fromiter(
                map(self._by_string.__getitem__, strings), dtype=np.int64,
                count=count,
            )
        except KeyError as missing:
            raise DictionaryError(
                f"string not in dictionary: {missing.args[0]!r}"
            ) from None

    def lookup(self, string):
        """Return the oid for *string* without interning.

        Raises :class:`DictionaryError` when the string is unknown.
        """
        oid = self._by_string.get(string)
        if oid is None:
            raise DictionaryError(f"string not in dictionary: {string!r}")
        return oid

    def lookup_or_none(self, string):
        """Return the oid for *string*, or ``None`` when unknown.

        Query constants that never appear in the data produce empty results
        rather than errors; engines use this entry point for literals coming
        from user queries.
        """
        return self._by_string.get(string)

    def decode(self, oid):
        """Return the string for *oid*."""
        try:
            return self._by_oid[self._index(oid)]
        except IndexError:
            raise DictionaryError(f"oid out of range: {oid}") from None

    def decode_many(self, oids):
        """Decode an oid array (or any iterable of oids) into a list of
        strings; see :func:`decode_many`."""
        return decode_many(self._by_oid, oids)

    def freeze(self):
        """Return an immutable :class:`FrozenDictionary` snapshot."""
        return FrozenDictionary(self)

    def byte_size(self):
        """Approximate in-memory/on-disk footprint of the string heap.

        Used by the simulated disk layer to size the dictionary segment.
        """
        # Per entry: the UTF-8 bytes plus an 8-byte offset-table slot.
        return sum(len(s.encode("utf-8")) + 8 for s in self._by_oid)

    @staticmethod
    def _index(oid):
        index = int(oid)
        if index < 0:
            raise DictionaryError(f"oid out of range: {oid}")
        return index


class FrozenDictionary:
    """Immutable view over a :class:`Dictionary`.

    Engines receive a frozen dictionary so that executing a query can never
    mutate the string heap.  ``encode`` is intentionally absent; use
    :meth:`lookup_or_none` for query constants.
    """

    __slots__ = ("_by_string", "_by_oid", "needs_reorganization")

    def __init__(self, source):
        self._by_string = dict(source._by_string)
        self._by_oid = tuple(source._by_oid)
        self.needs_reorganization = bool(
            getattr(source, "needs_reorganization", False)
        )

    def __len__(self):
        return len(self._by_oid)

    def __contains__(self, string):
        return string in self._by_string

    def __iter__(self):
        return iter(self._by_oid)

    def lookup(self, string):
        oid = self._by_string.get(string)
        if oid is None:
            raise DictionaryError(f"string not in dictionary: {string!r}")
        return oid

    def lookup_or_none(self, string):
        return self._by_string.get(string)

    def decode(self, oid):
        try:
            return self._by_oid[Dictionary._index(oid)]
        except IndexError:
            raise DictionaryError(f"oid out of range: {oid}") from None

    def decode_many(self, oids):
        return decode_many(self._by_oid, oids)

    def byte_size(self):
        return sum(len(s.encode("utf-8")) + 8 for s in self._by_oid)
