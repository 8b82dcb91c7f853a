"""Tests for the vectorized relational primitives (including hypothesis
equivalence against brute-force implementations)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.colstore import vectorops
from repro.colstore.vectorops import (
    _stable_argsort,
    distinct_rows,
    factorize_rows,
    factorize_rows_shared,
    group_aggregate,
    group_count,
    join_indices,
    join_runs,
)
from repro.exec.common import MISSING_VALUE

keys = st.lists(st.integers(min_value=0, max_value=8), max_size=40)

INT64 = np.iinfo(np.int64)
#: Key pools for the exact-order tests: each yields duplicates on both
#: sides and puts the key span on a different side of the kernel's
#: branches — MISSING_VALUE and negatives (a shifted domain), spans either
#: side of the one-pass / two-pass radix boundaries, sparse values (rank
#: compression) and values whose difference overflows int64.
KEY_POOLS = (
    [MISSING_VALUE, 0, 1, 2, 3],
    [-7, -3, MISSING_VALUE, 0, 4],
    [0, 5, 32766, 32767, 32768],
    [1, 9, 65534, 65535],
    [MISSING_VALUE, 2, 65535, 65536, 65540],  # dense from two rows up
    [-(10**12), MISSING_VALUE, 0, 7, 10**12],
    [INT64.min, INT64.min + 1, MISSING_VALUE, 0, INT64.max - 1, INT64.max],
)


@st.composite
def key_sides(draw):
    pool = st.sampled_from(draw(st.sampled_from(KEY_POOLS)))
    return (draw(st.lists(pool, max_size=14)),
            draw(st.lists(pool, max_size=14)))


def nested_loop_join(left, right):
    """The reference: left-major, right index ascending."""
    return [
        (i, j)
        for i, l in enumerate(left)
        for j, r in enumerate(right)
        if l == r
    ]


def ordered_pairs(result):
    left_idx, right_idx = result
    assert left_idx.dtype == right_idx.dtype == np.int64
    return list(zip(left_idx.tolist(), right_idx.tolist()))


class TestJoinIndices:
    def test_simple_join(self):
        li, ri = join_indices([1, 2, 3], [2, 3, 4])
        pairs = sorted(zip(li.tolist(), ri.tolist()))
        assert pairs == [(1, 0), (2, 1)]

    def test_many_to_many(self):
        li, ri = join_indices([1, 1], [1, 1, 1])
        assert len(li) == 6

    def test_empty_sides(self):
        for l, r in ([[], [1]], [[1], []], [[], []]):
            li, ri = join_indices(l, r)
            assert len(li) == len(ri) == 0

    def test_no_matches(self):
        li, ri = join_indices([1, 2], [3, 4])
        assert len(li) == 0

    def test_left_order_preserved(self):
        li, _ = join_indices([5, 1, 5, 2], [5, 1, 2])
        assert li.tolist() == sorted(li.tolist())


@given(keys, keys)
def test_property_join_matches_bruteforce(left, right):
    li, ri = join_indices(left, right)
    got = sorted(zip(li.tolist(), ri.tolist()))
    assert got == sorted(nested_loop_join(left, right))


@given(key_sides())
def test_property_join_order_matches_nested_loop(sides):
    left, right = sides
    assert ordered_pairs(
        join_indices(left, right, assume_sorted=False)
    ) == nested_loop_join(left, right)


@given(key_sides())
def test_property_join_order_on_sorted_right(sides):
    left, right = sides[0], sorted(sides[1])
    expected = nested_loop_join(left, right)
    for hint in (False, True):
        assert ordered_pairs(
            join_indices(left, right, assume_sorted=hint)
        ) == expected


@given(key_sides())
def test_property_join_runs_matches_join_indices(sides):
    """The RLE kernel is the row kernel over the expanded column."""
    left, column = sides[0], np.array(sorted(sides[1]), dtype=np.int64)
    run_values, run_starts, run_lengths = np.unique(
        column, return_index=True, return_counts=True
    )
    assert np.array_equal(np.repeat(run_values, run_lengths), column)
    got = join_runs(left, run_values, run_starts, run_lengths)
    expected = join_indices(left, column, assume_sorted=True)
    assert ordered_pairs(got) == ordered_pairs(expected)
    assert ordered_pairs(got) == nested_loop_join(left, column.tolist())


@pytest.mark.parametrize(
    "n_codes", [1, 2, 32767, 32768, 65535, 65536, 65537, 200000, 2**32 + 5]
)
def test_stable_argsort_matches_numpy_across_radix_passes(n_codes):
    rng = np.random.default_rng(n_codes)
    codes = rng.integers(0, n_codes, size=3000)
    codes[:4] = (0, n_codes - 1, 0, n_codes - 1)  # both ends, duplicated
    assert np.array_equal(
        _stable_argsort(codes, n_codes), np.argsort(codes, kind="stable")
    )


class SortRecorder:
    """Stands in for the kernel module's ``np``: records every sort and
    search the module asks numpy for, and forwards everything."""

    RECORDED = ("argsort", "sort", "lexsort", "searchsorted", "unique")

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        real = getattr(np, name)
        if name not in self.RECORDED:
            return real

        def recorded(array, *args, **kwargs):
            self.calls.append((name, np.array(array)))
            return real(array, *args, **kwargs)

        return recorded


@pytest.fixture
def recorder(monkeypatch):
    recorder = SortRecorder()
    monkeypatch.setattr(vectorops, "np", recorder)
    return recorder


class TestJoinIsLinear:
    """The counting join's shape, checked without a clock: which sorts and
    searches run, and over which rows."""

    rng = np.random.default_rng(17)
    left = rng.integers(0, 70000, size=400)
    right = rng.integers(0, 70000, size=5000)

    def test_sorted_right_side_sorts_nothing(self, recorder):
        right = np.sort(self.right)
        for hint in (True, False):
            join_indices(self.left, right, assume_sorted=hint)
        assert recorder.calls == []

    def test_unsorted_right_side_sorts_only_the_survivors(self, recorder):
        li, ri = join_indices(self.left, self.right, assume_sorted=False)
        survivors = np.isin(self.right, self.left).sum()
        assert 0 < survivors < len(self.right) // 4
        # np.nonzero walks the match matrix row-major: the reference order.
        expected = np.nonzero(self.left[:, None] == self.right[None, :])
        assert np.array_equal(li, expected[0])
        assert np.array_equal(ri, expected[1])
        # Two 16-bit radix passes (the span is above 65,536), each over
        # exactly the right rows whose key occurs on the left.
        assert [name for name, _ in recorder.calls] == ["argsort"] * 2
        for _, array in recorder.calls:
            assert array.dtype == np.uint16
            assert len(array) == survivors

    def test_run_join_sorts_and_searches_nothing(self, recorder):
        run_values, run_starts, run_lengths = np.unique(
            np.sort(self.right), return_index=True, return_counts=True
        )
        join_runs(self.left, run_values, run_starts, run_lengths)
        assert recorder.calls == []

    def test_sparse_keys_are_rank_compressed_then_probed(self, recorder):
        """Off the dense path a sort is allowed (the rank compression) —
        still no search per left key."""
        left, right = self.left * 10**9, self.right * 10**9
        li, ri = join_indices(left, right, assume_sorted=False)
        assert np.array_equal(left[li], right[ri])
        assert "unique" in {name for name, _ in recorder.calls}
        assert "searchsorted" not in {name for name, _ in recorder.calls}


class TestFactorize:
    def test_single_column(self):
        codes, n = factorize_rows([np.array([5, 3, 5])])
        assert n == 2
        assert codes[0] == codes[2] != codes[1]

    def test_multi_column(self):
        codes, n = factorize_rows(
            [np.array([1, 1, 2]), np.array([1, 1, 1])]
        )
        assert n == 2
        assert codes[0] == codes[1] != codes[2]

    def test_empty(self):
        codes, n = factorize_rows([np.array([], dtype=np.int64)])
        assert n == 0 and len(codes) == 0

    def test_requires_arrays(self):
        with pytest.raises(ValueError):
            factorize_rows([])

    def test_shared_code_space(self):
        lc, rc = factorize_rows_shared(
            [np.array([1, 2])], [np.array([2, 3])]
        )
        assert lc[1] == rc[0]
        assert lc[0] != rc[1]


@given(keys, keys)
def test_property_shared_factorization_join_equivalence(left, right):
    """Joining on shared codes equals joining on raw values."""
    if not left or not right:
        return
    lc, rc = factorize_rows_shared([np.array(left)], [np.array(right)])
    li1, ri1 = join_indices(lc, rc)
    li2, ri2 = join_indices(left, right)
    assert sorted(zip(li1.tolist(), ri1.tolist())) == sorted(
        zip(li2.tolist(), ri2.tolist())
    )


class TestGroupCount:
    def test_counts(self):
        (k,), c = group_count([np.array([2, 1, 2, 2])])
        assert k.tolist() == [1, 2]
        assert c.tolist() == [1, 3]

    def test_multi_key(self):
        keys_out, c = group_count(
            [np.array([1, 1, 2]), np.array([7, 7, 7])]
        )
        assert keys_out[0].tolist() == [1, 2]
        assert keys_out[1].tolist() == [7, 7]
        assert c.tolist() == [2, 1]

    def test_empty(self):
        (k,), c = group_count([np.array([], dtype=np.int64)])
        assert len(k) == 0 and len(c) == 0


@given(keys)
def test_property_group_count_matches_counter(values):
    from collections import Counter

    (k,), c = group_count([np.array(values, dtype=np.int64)])
    assert dict(zip(k.tolist(), c.tolist())) == dict(Counter(values))


class TestDistinct:
    def test_distinct_single(self):
        idx = distinct_rows([np.array([3, 1, 3, 2])])
        values = np.array([3, 1, 3, 2])[idx]
        assert sorted(values.tolist()) == [1, 2, 3]

    def test_distinct_multi(self):
        a = np.array([1, 1, 1])
        b = np.array([2, 2, 3])
        idx = distinct_rows([a, b])
        assert len(idx) == 2

    def test_distinct_empty(self):
        assert len(distinct_rows([np.array([], dtype=np.int64)])) == 0


@given(keys, keys)
def test_property_distinct_matches_set(a, b):
    n = min(len(a), len(b))
    if n == 0:
        return
    arr_a, arr_b = np.array(a[:n]), np.array(b[:n])
    idx = distinct_rows([arr_a, arr_b])
    got = {(arr_a[i], arr_b[i]) for i in idx.tolist()}
    assert got == set(zip(a[:n], b[:n]))
    assert len(idx) == len(got)


class TestFastPathEquivalence:
    """The sorted / dense-code fast paths must match numpy's reference."""

    def test_sorted_factorize_matches_unique(self):
        array = np.array([3, 3, 5, 9, 9, 9, 12], dtype=np.int64)
        codes, n = factorize_rows([array])
        ref_uniques, ref_codes = np.unique(array, return_inverse=True)
        assert np.array_equal(codes, ref_codes)
        assert n == len(ref_uniques)

    def test_dense_unsorted_factorize_matches_unique(self):
        rng = np.random.default_rng(7)
        array = rng.integers(100, 160, size=500).astype(np.int64)
        codes, n = factorize_rows([array])
        ref_uniques, ref_codes = np.unique(array, return_inverse=True)
        assert np.array_equal(codes, ref_codes)
        assert n == len(ref_uniques)

    def test_sparse_factorize_matches_unique(self):
        array = np.array([10**12, 5, -(10**12), 5, 0], dtype=np.int64)
        codes, n = factorize_rows([array])
        ref_uniques, ref_codes = np.unique(array, return_inverse=True)
        assert np.array_equal(codes, ref_codes)
        assert n == len(ref_uniques)

    def test_multi_column_matches_unique_axis0(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 40, size=300).astype(np.int64)
        b = rng.integers(-5, 30, size=300).astype(np.int64)
        codes, n = factorize_rows([a, b])
        ref_uniques, ref_codes = np.unique(
            np.column_stack([a, b]), axis=0, return_inverse=True
        )
        assert np.array_equal(codes, ref_codes.reshape(-1))
        assert n == len(ref_uniques)

    def test_join_sorted_right_detected_at_runtime(self):
        left = np.array([4, 2, 4, 9], dtype=np.int64)
        right = np.array([2, 2, 4, 8, 9], dtype=np.int64)  # sorted
        li, ri = join_indices(left, right)  # no assume_sorted hint
        li2, ri2 = join_indices(left, right, assume_sorted=True)
        assert np.array_equal(li, li2) and np.array_equal(ri, ri2)

    def test_join_dense_unsorted_right_matches_bruteforce(self):
        rng = np.random.default_rng(13)
        left = rng.integers(0, 50, size=80).astype(np.int64)
        right = rng.integers(0, 50, size=90).astype(np.int64)
        li, ri = join_indices(left, right)
        expected = nested_loop_join(left.tolist(), right.tolist())
        assert sorted(zip(li.tolist(), ri.tolist())) == sorted(expected)
        # Stable: right indices ascend within each left row's run.
        for i in np.unique(li):
            run = ri[li == i]
            assert np.all(run[1:] > run[:-1])


@given(keys, keys)
def test_property_group_aggregate_matches_reference(a, b):
    n = min(len(a), len(b))
    if n == 0:
        return
    key_arr, val_arr = np.array(a[:n]), np.array(b[:n])
    got = group_aggregate([key_arr], val_arr, "min")
    expected = {}
    for k, v in zip(a[:n], b[:n]):
        expected[k] = min(v, expected.get(k, v))
    assert got.tolist() == [expected[k] for k in sorted(expected)]
