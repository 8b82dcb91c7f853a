"""Tests for the B+tree, including hypothesis equivalence with sorted dicts."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import StorageError
from repro.rowstore.btree import BPlusTree, _upper_bound


def load(pairs, order=4):
    return BPlusTree.bulk_load(sorted(pairs), order=order)


class TestBulkLoad:
    def test_empty_tree(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0
        assert list(tree.items()) == []
        assert tree.search((1,)) == []

    def test_small_tree(self):
        tree = load([((i,), i * 10) for i in range(10)])
        assert len(tree) == 10
        assert [v for _, v in tree.items()] == [i * 10 for i in range(10)]

    def test_large_tree_has_height(self):
        tree = load([((i,), i) for i in range(10_000)], order=32)
        assert tree.height() >= 3
        assert len(tree) == 10_000

    def test_unsorted_input_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree.bulk_load([((2,), 0), ((1,), 0)])

    def test_tiny_order_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree(order=2)


class TestSearch:
    def test_point_lookup(self):
        tree = load([((i,), i) for i in range(100)])
        assert tree.search((42,)) == [42]
        assert tree.search((1000,)) == []

    def test_duplicates(self):
        tree = load([((5,), v) for v in range(20)] + [((6,), 99)])
        assert sorted(tree.search((5,))) == list(range(20))
        assert tree.search((6,)) == [99]

    def test_duplicates_spanning_leaves(self):
        # order 4 -> duplicates of one key spread over many leaves.
        pairs = [((7,), v) for v in range(50)]
        tree = load(pairs, order=4)
        assert sorted(tree.search((7,))) == list(range(50))


class TestPrefixScan:
    def test_composite_prefix(self):
        pairs = [((p, s), p * 100 + s) for p in range(5) for s in range(10)]
        tree = load(pairs)
        got = [v for _, v in tree.prefix_scan((3,))]
        assert got == [300 + s for s in range(10)]

    def test_full_key_prefix(self):
        pairs = [((p, s), p * 100 + s) for p in range(5) for s in range(10)]
        tree = load(pairs)
        assert [v for _, v in tree.prefix_scan((2, 7))] == [207]

    def test_missing_prefix(self):
        tree = load([((1, 1), 0)])
        assert list(tree.prefix_scan((9,))) == []


class TestRangeScan:
    def test_bounded_range(self):
        tree = load([((i,), i) for i in range(100)])
        got = [v for _, v in tree.range_scan((10,), (20,))]
        assert got == list(range(10, 20))

    def test_unbounded_below(self):
        tree = load([((i,), i) for i in range(10)])
        assert [v for _, v in tree.range_scan(None, (3,))] == [0, 1, 2]

    def test_unbounded_above(self):
        tree = load([((i,), i) for i in range(10)])
        assert [v for _, v in tree.range_scan((7,), None)] == [7, 8, 9]

    def test_items_in_order(self):
        tree = load([((i,), i) for i in range(1000)], order=8)
        keys = [k for k, _ in tree.items()]
        assert keys == sorted(keys)


class TestInsert:
    def test_insert_then_search(self):
        tree = BPlusTree(order=4)
        for i in [5, 3, 8, 1, 9, 2, 7]:
            tree.insert((i,), i * 10)
        assert tree.search((8,)) == [80]
        assert [k for k, _ in tree.items()] == sorted(
            [(i,) for i in [5, 3, 8, 1, 9, 2, 7]]
        )

    def test_insert_splits_root(self):
        tree = BPlusTree(order=3)
        for i in range(50):
            tree.insert((i,), i)
        assert tree.height() >= 3
        assert [v for _, v in tree.items()] == list(range(50))

    def test_insert_duplicates(self):
        tree = BPlusTree(order=3)
        for i in range(10):
            tree.insert((1,), i)
        assert sorted(tree.search((1,))) == list(range(10))


class TestAccessHook:
    def test_on_access_called_per_node(self):
        tree = load([((i,), i) for i in range(1000)], order=8)
        touched = []
        tree.on_access = touched.append
        tree.search((500,))
        assert len(touched) >= tree.height()

    def test_leaf_hops_are_accounted(self):
        tree = load([((i,), i) for i in range(1000)], order=8)
        touched = []
        tree.on_access = touched.append
        list(tree.range_scan((0,), (1000,)))
        # Must touch every leaf at least once.
        assert len(set(touched)) >= 1000 // 8


class TestUpperBound:
    def test_increments_last_component(self):
        assert _upper_bound((3,)) == (4,)
        assert _upper_bound((3, 7)) == (3, 8)

    def test_empty_prefix_unbounded(self):
        assert _upper_bound(()) is None


def assert_prefix_values_match_scan(tree, prefix):
    """The leaf-at-a-time scan returns the pair-at-a-time scan's values
    and visits the same nodes in the same order (the visits are charged)."""
    scan_touched, values_touched = [], []
    tree.on_access = scan_touched.append
    expected = [v for _, v in tree.prefix_scan(prefix)]
    tree.on_access = values_touched.append
    assert tree.prefix_values(prefix) == expected
    assert values_touched == scan_touched
    tree.on_access = None


@settings(deadline=None, max_examples=50)
@given(
    pairs=st.lists(
        st.tuples(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            st.integers(0, 100),
        ),
        max_size=200,
    ),
    order=st.sampled_from([3, 4, 8, 64]),
)
def test_property_matches_sorted_list(pairs, order):
    """Bulk-loaded tree scans agree with a plain sorted list."""
    reference = sorted(pairs)
    tree = BPlusTree.bulk_load(reference, order=order)
    assert [kv for kv in tree.items()] == reference
    for prefix in [(0,), (10,), (5, 5)]:
        expected = [
            (k, v)
            for k, v in reference
            if k[: len(prefix)] == prefix
        ]
        assert list(tree.prefix_scan(prefix)) == expected
        assert_prefix_values_match_scan(tree, prefix)
    assert_prefix_values_match_scan(tree, ())


@settings(deadline=None, max_examples=30)
@given(
    keys=st.lists(st.integers(0, 50), max_size=150),
    order=st.sampled_from([3, 5, 16]),
)
# A run of duplicates spanning two leaves, then a split of the left one:
# the new sibling used to be filed after the whole run.
@example(keys=[1, 1, 1, 1, 0, 0, 2], order=3)
def test_property_insert_matches_sorted(keys, order):
    tree = BPlusTree(order=order)
    for i, k in enumerate(keys):
        tree.insert((k,), i)
    expected = sorted(((k,), i) for i, k in enumerate(keys))
    got = list(tree.items())
    assert sorted(got) == expected
    assert [k for k, _ in got] == sorted(k for k, _ in got)
    for k in sorted(set(keys)) + [51]:
        assert_prefix_values_match_scan(tree, (k,))
