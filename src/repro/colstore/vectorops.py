"""Vectorized relational primitives over numpy int64 arrays.

These are the column-store's physical operators: many-to-many equi-join
index computation, row factorization (for multi-column keys), grouping and
duplicate elimination.  They are pure functions of arrays — cost accounting
happens in the executor that calls them.

The input's shape picks the kernel, never an option.  A join against a
sorted right side is a counting join; against an unsorted one, distinct
left keys (a star query's type-filtered subjects) map every right row
straight to its one left row and order the matches with one sort, while
duplicate left keys put the semi-join survivors in key order with 16-bit
radix passes.  Dense codes come from a counting table, sparse ones from
one sort of ``value << bits | row`` composites; ``np.unique`` is left
only for keys whose composite would not fit in int64.
"""

import numpy as np


#: How many leading elements :func:`_is_sorted` checks before the rest:
#: an unsorted input nearly always shows it there, for the price of a
#: few comparisons rather than the whole n - 1.
_SORTED_PREFIX = 64


def _is_sorted(array):
    """O(n) check — far cheaper than the O(n log n) argsort it can save."""
    head = array[:_SORTED_PREFIX + 1]
    if not np.all(head[1:] >= head[:-1]):
        return False
    tail = array[_SORTED_PREFIX:]
    return tail.size < 2 or bool(np.all(tail[1:] >= tail[:-1]))


def _is_dense(value_range, n):
    """Is a counting table over *value_range* slots worth it for *n* keys?"""
    return value_range <= 4 * n + 65536


def _dense_codes(array):
    """Rank codes via a counting LUT when the value range is dense.

    Returns ``(codes, n_distinct)`` with codes identical to
    ``np.unique(array, return_inverse=True)[1]`` (rank among sorted distinct
    values), computed in O(n + range) instead of O(n log n): the LUT gets
    each present value's rank by one scatter of ``arange`` over the
    present slots, and its other slots are never read.  Returns ``None``
    when the value range is too sparse for the LUT to pay off — dictionary
    OIDs are dense, so benchmark-shaped inputs qualify.
    """
    amin = int(array.min())
    value_range = int(array.max()) - amin + 1
    if not _is_dense(value_range, array.size):
        return None
    rel = array - amin
    present = np.zeros(value_range, dtype=bool)
    present[rel] = True
    values = np.flatnonzero(present)
    lut = np.empty(value_range, dtype=np.int64)
    lut[values] = np.arange(len(values), dtype=np.int64)
    return lut[rel], len(values)


def _sorted_codes(array):
    """Rank codes of a column too sparse for :func:`_dense_codes`, from
    one sort of ``(value - min) << bits | row`` composites.

    The sorted composites list the values ascending with rows ascending
    among equals, so their running count of value changes is the code of
    each row in that order; one scatter puts it back in row order.  The
    codes equal ``np.unique(array, return_inverse=True)[1]``.  Returns
    ``None`` when the composite would not fit in int64.
    """
    n = array.size
    amin = int(array.min())
    if (int(array.max()) - amin) >> (63 - (n - 1).bit_length()):
        return None
    values, rows = _sort_pairs(array - amin, np.arange(n, dtype=np.int64), n)
    ranks = _change_count(values)
    codes = np.empty(n, dtype=np.int64)
    codes[rows] = ranks
    return codes, int(ranks[-1]) + 1


def _sort_pairs(keys, rows, n_rows):
    """*keys* and *rows* (non-negative, rows below *n_rows*) ordered by
    key, then row: one sort of the int64 composites ``key << bits | row``,
    split again.  The caller makes sure the composites fit."""
    bits = (n_rows - 1).bit_length()
    composite = keys << bits
    composite |= rows
    composite = np.sort(composite)
    rows = composite & ((1 << bits) - 1)
    composite >>= bits
    return composite, rows


def _change_count(values):
    """Per element of the ascending *values*, how many value changes
    precede it: its rank among the distinct values."""
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[0] = 0
    np.cumsum(values[1:] != values[:-1], out=ranks[1:])
    return ranks


def _stable_argsort(codes, n_codes):
    """``np.argsort(codes, kind="stable")`` for codes in ``0 .. n_codes-1``.

    numpy's stable sort of 16-bit integers is a radix sort, so an LSD pass
    per 16-bit digit (one up to 65,536 codes, two up to 2**32) orders the
    codes in O(n) — never by comparison sort.
    """
    order = np.argsort(codes.astype(np.uint16), kind="stable")  # low digit
    shift = 16
    while (n_codes - 1) >> shift:
        digit = (codes >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _dense_domain(left, right):
    """Both key arrays as addresses into one counting table.

    Returns ``(left, right, span)`` with every key in ``0 .. span-1`` and
    equality and order between keys kept.  Dictionary OIDs are ``0 .. n-1``
    and address the table as they are; negative keys (``MISSING_VALUE``)
    shift the domain, and keys too sparse for a table are rank-compressed
    first.  The span is taken in Python ints: keys near the int64 limits
    must not meet an array subtraction.
    """
    lo = min(int(left.min()), int(right.min()), 0)
    span = max(int(left.max()), int(right.max())) - lo + 1
    if not _is_dense(span, left.size + right.size):
        left, right = factorize_rows_shared([left], [right])
        return left, right, int(max(left.max(), right.max())) + 1
    if lo:
        left, right = left - lo, right - lo
    return left, right, span


def _probe(left, starts, counts):
    """Expand a probe into join pairs — the tail both join kernels share.

    ``starts`` / ``counts`` give, per key of the dense domain, the first
    position and the number of its right-side rows; every left key looks
    its run up by direct indexing.  Returns ``(left_idx, positions)``,
    left-major with positions ascending within a left row.
    """
    counts = counts[left]  # per left row from here on
    total = int(counts.sum())
    left_idx = np.repeat(np.arange(len(left), dtype=np.int64), counts)
    # Output row k of a left row whose pairs start at output row f lies at
    # position start + (k - f): repeat (start - f) per pair, add k.
    offset = starts[left]
    offset -= np.cumsum(counts)
    offset += counts
    positions = np.repeat(offset, counts)
    positions += np.arange(total, dtype=np.int64)
    return left_idx, positions


def join_indices(left_keys, right_keys, assume_sorted=False):
    """Indices realizing the inner equi-join of two key arrays.

    Returns ``(left_idx, right_idx)`` such that
    ``left_keys[left_idx] == right_keys[right_idx]`` enumerates every
    matching pair.  ``left_idx`` is non-decreasing, so the join output
    preserves the left input's ordering (the property the executor relies on
    for sortedness propagation); right indices ascend within a left row.

    A counting join: per-key counts (``np.bincount``) and first positions
    (a reverse scatter) of the key-ordered right side are the whole lookup
    structure, O(rows) to build.  With ``assume_sorted=True`` the right
    input is taken to be already sorted ascending — the executor passes
    this when the plan's sort-order metadata proves it (e.g. the SO-sorted
    vertical tables joined on subject) — which saves the O(n) check.

    An unsorted right side is first looked up in a position table of the
    left keys (each key's left row, -1 for none), which also tells whether
    the left keys are distinct.  If they are, every surviving right row
    matches exactly one left row, so the pairs are the survivors ordered
    by ``(left row, right row)`` — one sort of int64 composites, no probe.
    Otherwise only the survivors are put in key order and probed.
    """
    left = np.asarray(left_keys, dtype=np.int64)
    right = np.asarray(right_keys, dtype=np.int64)
    if left.size == 0 or right.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    right_sorted = assume_sorted or _is_sorted(right)
    left, right, span = _dense_domain(left, right)
    order = None
    if not right_sorted:
        rows = np.arange(left.size, dtype=np.int64)
        position = np.full(span, -1, dtype=np.int64)
        position[left] = rows  # a repeated key keeps one of its rows
        matched = position[right]
        order = np.flatnonzero(matched >= 0)
        if np.array_equal(position[left], rows):
            # Each survivor's one left row; a composite of a left and a
            # right row fits in int64 below some 2**62 input rows.
            return _sort_pairs(matched[order], order, right.size)
        right = right[order]
        # Survivors are in row order, so a stable sort of them is the
        # stable sort of the whole side restricted to them.
        by_key = _stable_argsort(right, span)
        order, right = order[by_key], right[by_key]
    starts = _first_positions(right, span)
    counts = np.bincount(right, minlength=span)
    left_idx, positions = _probe(left, starts, counts)
    return left_idx, positions if order is None else order[positions]


def join_runs(left_keys, run_values, run_starts, run_lengths):
    """Equi-join a key array against an RLE-encoded sorted column.

    The right side never materializes: a run with value ``v`` starting at
    row ``s`` with length ``c`` stands for ``c`` rows ``s .. s+c-1`` all
    equal to ``v``.  ``run_values`` must be sorted ascending with distinct
    values (maximal runs of a sorted column — the shape the lowering guard
    checks), so the runs are the counting join's lookup as they stand.

    Returns ``(left_idx, right_pos)`` — ``left_idx`` indexes the left
    input, ``right_pos`` holds *row positions* in the encoded column —
    enumerating exactly the pairs :func:`join_indices` would, in the same
    order (left order preserved, right positions ascending per match).
    """
    left = np.asarray(left_keys, dtype=np.int64)
    runs = np.asarray(run_values, dtype=np.int64)
    if left.size == 0 or runs.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    left, runs, span = _dense_domain(left, runs)
    starts = np.zeros(span, dtype=np.int64)
    starts[runs] = run_starts
    counts = np.zeros(span, dtype=np.int64)
    counts[runs] = run_lengths
    return _probe(left, starts, counts)


def factorize_rows(arrays):
    """Dense integer codes identifying distinct rows of parallel arrays.

    Returns ``(codes, n_distinct)``.  Equal rows get equal codes; codes are
    assigned in sorted-row order (so sorting by code sorts by row).
    """
    arrays = [np.asarray(a, dtype=np.int64) for a in arrays]
    if not arrays:
        raise ValueError("factorize_rows needs at least one array")
    n = len(arrays[0])
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    if len(arrays) == 1:
        array = arrays[0]
        if _is_sorted(array):
            # For sorted input np.unique's inverse is the running count of
            # value changes — same codes, no argsort.
            codes = _change_count(array)
            return codes, int(codes[-1]) + 1
        codes = _dense_codes(array)
        if codes is None:
            codes = _sorted_codes(array)
        if codes is not None:
            return codes
        uniques, codes = np.unique(array, return_inverse=True)
        return codes.astype(np.int64), len(uniques)
    # Multi-column: rank-code each column, then pair the codes into one
    # int64 key whose numeric order is the rows' lexicographic order — the
    # final rank compression therefore assigns the exact codes
    # ``np.unique(axis=0)`` would, without its slow row-wise comparisons.
    combined, span = None, 1
    for array in arrays:
        codes, n_codes = factorize_rows([array])
        if combined is None:
            combined, span = codes, n_codes
        elif span * n_codes >= 2 ** 62:  # pairing would overflow int64
            stacked = np.column_stack(arrays)
            uniques, codes = np.unique(stacked, axis=0, return_inverse=True)
            return codes.reshape(-1).astype(np.int64), len(uniques)
        else:
            combined = combined * n_codes + codes
            span *= n_codes
    return factorize_rows([combined])


def factorize_rows_shared(left_arrays, right_arrays):
    """Factorize two row sets against a shared code space.

    Returns ``(left_codes, right_codes)`` where equal rows (across the two
    sides) receive equal codes — the building block for multi-column joins.
    """
    n_left = len(left_arrays[0]) if left_arrays else 0
    combined = [
        np.concatenate((np.asarray(l, dtype=np.int64), np.asarray(r, dtype=np.int64)))
        for l, r in zip(left_arrays, right_arrays)
    ]
    codes, _ = factorize_rows(combined)
    return codes[:n_left], codes[n_left:]


def _first_positions(codes, n_codes):
    """First row index of each dense code, in code (= sorted key) order.

    Equivalent to ``np.unique(codes, return_index=True)[1]`` — factorized
    codes are dense, so a reverse scatter replaces the O(n log n) sort.
    The slot of a code below *n_codes* that never occurs is left undefined.
    """
    first = np.empty(n_codes, dtype=np.int64)
    first[codes[::-1]] = np.arange(len(codes) - 1, -1, -1, dtype=np.int64)
    return first


def group_count(key_arrays):
    """Group rows by key columns and count each group.

    Returns ``(group_key_arrays, counts)`` with groups in sorted key order.
    """
    key_arrays = [np.asarray(a, dtype=np.int64) for a in key_arrays]
    n = len(key_arrays[0])
    if n == 0:
        return [np.empty(0, dtype=np.int64) for _ in key_arrays], np.empty(
            0, dtype=np.int64
        )
    codes, n_groups = factorize_rows(key_arrays)
    counts = np.bincount(codes, minlength=n_groups)
    first_pos = _first_positions(codes, n_groups)
    keys = [a[first_pos] for a in key_arrays]
    return keys, counts.astype(np.int64)


def group_aggregate(key_arrays, value_array, func):
    """Per-group min/max of *value_array*, groups in sorted key order.

    Group order matches :func:`group_count` over the same keys.
    """
    value_array = np.asarray(value_array, dtype=np.int64)
    if len(value_array) == 0:
        return np.empty(0, dtype=np.int64)
    codes, _ = factorize_rows(
        [np.asarray(a, dtype=np.int64) for a in key_arrays]
    )
    if _is_sorted(codes):
        sorted_codes, sorted_values = codes, value_array
    else:
        order = np.argsort(codes, kind="stable")
        sorted_codes, sorted_values = codes[order], value_array[order]
    starts = np.empty(int(sorted_codes[-1]) + 1, dtype=np.int64)
    starts[0] = 0
    changes = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1])
    starts[1:] = changes + 1
    reducer = {"min": np.minimum, "max": np.maximum}[func]
    return reducer.reduceat(sorted_values, starts)


def distinct_rows(arrays):
    """Indices of one representative row per distinct value combination.

    Returned indices are sorted by row value (np.unique order).
    """
    arrays = [np.asarray(a, dtype=np.int64) for a in arrays]
    if len(arrays[0]) == 0:
        return np.empty(0, dtype=np.int64)
    codes, n_distinct = factorize_rows(arrays)
    return _first_positions(codes, n_distinct)
