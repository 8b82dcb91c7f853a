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

from repro.errors import DictionaryError


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

        Fast path for deserializing cached artifacts: *strings* must be
        unique and listed in oid order (as produced by iterating a
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
        if not isinstance(string, str):
            raise DictionaryError(
                f"dictionary keys must be str, got {type(string).__name__}"
            )
        oid = self._by_string.get(string)
        if oid is None:
            oid = len(self._by_oid)
            self._by_string[string] = oid
            self._by_oid.append(string)
        return oid

    def encode_many(self, strings):
        """Encode an iterable of strings, returning a list of oids.

        Fast path for bulk loading: the hot loop touches only local
        variables (no attribute lookups, no per-element method dispatch),
        which makes encoding a whole dataset several times faster than
        calling :meth:`encode` per element.
        """
        by_string = self._by_string
        by_oid = self._by_oid
        get = by_string.get
        append = by_oid.append
        oids = []
        out = oids.append
        for s in strings:
            oid = get(s)
            if oid is None:
                if not isinstance(s, str):
                    raise DictionaryError(
                        f"dictionary keys must be str, got {type(s).__name__}"
                    )
                oid = len(by_oid)
                by_string[s] = oid
                append(s)
            out(oid)
        return oids

    def lookup_many(self, strings):
        """Look up an iterable of strings without interning.

        Raises :class:`DictionaryError` on the first unknown string.
        """
        get = self._by_string.get
        oids = []
        out = oids.append
        for s in strings:
            oid = get(s)
            if oid is None:
                raise DictionaryError(f"string not in dictionary: {s!r}")
            out(oid)
        return oids

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
        """Decode an iterable of oids, returning a list of strings.

        Fast path mirroring :meth:`encode_many`: direct indexing into the
        oid table with local variables, no per-element method dispatch.
        """
        by_oid = self._by_oid
        n = len(by_oid)
        strings = []
        out = strings.append
        for o in oids:
            index = int(o)
            if not 0 <= index < n:
                raise DictionaryError(f"oid out of range: {o}")
            out(by_oid[index])
        return strings

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

    def lookup_many(self, strings):
        get = self._by_string.get
        oids = []
        out = oids.append
        for s in strings:
            oid = get(s)
            if oid is None:
                raise DictionaryError(f"string not in dictionary: {s!r}")
            out(oid)
        return oids

    def decode(self, oid):
        try:
            return self._by_oid[Dictionary._index(oid)]
        except IndexError:
            raise DictionaryError(f"oid out of range: {oid}") from None

    def decode_many(self, oids):
        by_oid = self._by_oid
        n = len(by_oid)
        strings = []
        out = strings.append
        for o in oids:
            index = int(o)
            if not 0 <= index < n:
                raise DictionaryError(f"oid out of range: {o}")
            out(by_oid[index])
        return strings

    def byte_size(self):
        return sum(len(s.encode("utf-8")) + 8 for s in self._by_oid)
