"""Order-preserving dictionary encoding and sortable row keys.

Column stores commonly build *order-preserving* dictionary encodings: oids
are assigned in lexicographic string order, so integer comparisons on
encoded columns realize string comparisons — range predicates and ORDER BY
work directly on the encoded data.

Storage-scheme builders call :func:`encode_triples`, which pre-interns the
dataset's whole vocabulary in sorted order and encodes the term columns.
Strings interned *later* (incremental maintenance) get appended oids and
break the property until the next reorganization — exactly the trade-off
real systems make.  When that happens the dictionary is flagged
``needs_reorganization`` and an :class:`OrderPreservationWarning` is
emitted, so the maintenance layer can schedule a rebuild instead of
silently serving wrong range semantics.

:func:`row_keys` folds composite integer keys into one int64 per row; the
payload's load sort and the row store's B+tree builds order rows through
:func:`row_order`, and the merge of inserted rows searches the folded
keys.
"""

import warnings
from operator import attrgetter

import numpy as np

from repro.dictionary import Dictionary
from repro.dictionary.dictionary import require_strings

#: The term getters of a triple, in ``subj`` / ``prop`` / ``obj`` order.
TERMS = (attrgetter("s"), attrgetter("p"), attrgetter("o"))


class OrderPreservationWarning(UserWarning):
    """Extending a dictionary broke its order-preserving oid assignment."""


def encode_triples(triples, named=(), dictionary=None):
    """Intern the vocabulary of *triples* plus the *named* strings in
    lexicographic order, then encode the three term columns.

    Returns ``(dictionary, columns)``: ``columns`` maps ``subj`` /
    ``prop`` / ``obj`` to int64 oid arrays in *triples* order (a sequence:
    it is read once per term).  The vocabulary is one ``set`` over the
    term columns, and each column one C-level lookup pass; no column of
    strings is ever held.

    When *dictionary* is ``None`` or empty, the oids are order-isomorphic
    to the strings.  A non-empty dictionary is extended with the new
    strings in sorted order; if any new string sorts below an existing
    one, the appended oids break global order preservation — the
    dictionary is flagged ``needs_reorganization`` and an
    :class:`OrderPreservationWarning` is emitted.  A term that is not a
    string raises :class:`~repro.errors.DictionaryError`.
    """
    if dictionary is None:
        dictionary = Dictionary()
    was_empty = len(dictionary) == 0
    # The vocabulary set and its sorted list are freed before the columns
    # are encoded.
    dictionary.extend(_sorted_vocabulary(triples, named))
    if not was_empty and not is_order_preserving(dictionary):
        dictionary.needs_reorganization = True
        warnings.warn(
            "extending a non-empty dictionary broke order preservation; "
            "range predicates on encoded columns need a dictionary "
            "reorganization to stay correct",
            OrderPreservationWarning,
            stacklevel=2,
        )
    n = len(triples)
    return dictionary, {
        column: dictionary.lookup_array(map(term, triples), n)
        for column, term in zip(("subj", "prop", "obj"), TERMS)
    }


def _sorted_vocabulary(triples, named):
    """Every term of *triples* and every *named* string, once, sorted."""
    vocabulary = set(named)
    for term in TERMS:
        vocabulary.update(map(term, triples))
    try:
        return sorted(vocabulary)
    except TypeError:
        # A non-string term compared with a string: name it.
        require_strings(vocabulary)
        raise


def is_order_preserving(dictionary):
    """True when oid order equals lexicographic string order."""
    strings = list(dictionary)
    return strings == sorted(strings)


#: Below this many rows one ``np.lexsort`` call sorts faster than folding
#: (about 15-20 µs of fixed numpy calls); above it the folded argsort wins
#: by a growing margin (×5-10 at 8 000 rows).
FOLD_MIN_ROWS = 512


def row_keys(columns):
    """One int64 per row of the int64 key *columns* (equal-length arrays,
    most significant first) ordering exactly as the row tuples, or
    ``None`` when the composite does not fit an int64.

    The fits-int64 rule: with every value in ``[lo, lo + span)``, row
    ``(c0, …, ck-1)`` folds to ``sum((ci - lo) * span ** (k - 1 - i))``,
    which stays below ``span ** k``; the fold is taken while
    ``span ** k <= 2 ** 63``.
    """
    if not len(columns[0]):
        return np.zeros(0, dtype=np.int64)
    lo = int(min(map(np.ndarray.min, columns)))
    span = int(max(map(np.ndarray.max, columns))) - lo + 1
    if span ** len(columns) > 2 ** 63:
        return None
    folded = columns[0] - lo
    for column in columns[1:]:
        folded *= span
        folded -= lo
        folded += column
    return folded


def row_order(columns):
    """The stable permutation sorting rows by the int64 key *columns*
    (most significant first): equal keys keep ascending position, exactly
    as ``np.lexsort``.

    From :data:`FOLD_MIN_ROWS` rows on, the folded key (:func:`row_keys`)
    is argsorted once.  A key without repeats sorts the same under every
    sort, so numpy's default sort (2-4 times faster than the stable one
    on these keys) is kept unless the sorted keys repeat one; then the
    key is sorted again with ``kind="stable"``.  Fewer rows, or a
    composite wider than an int64, take ``np.lexsort``.
    """
    keys = row_keys(columns) if len(columns[0]) >= FOLD_MIN_ROWS else None
    if keys is None:
        return np.lexsort(columns[::-1])
    order = np.argsort(keys)
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.argsort(keys, kind="stable")
    return order
