"""Edge-case tests for both engines: empty tables, empty results, pruning,
merge-join paths, buffer eviction under pressure."""

import numpy as np
import pytest

from repro.colstore import ColumnStoreEngine
from repro.plan import (
    Comparison,
    Distinct,
    GroupBy,
    Having,
    Join,
    Project,
    Scan,
    Select,
    Sort,
    Union,
)
from repro.rowstore import RowStoreEngine

EMPTY = np.empty(0, dtype=np.int64)


def both_engines(data, sort_by):
    col = ColumnStoreEngine()
    col.create_table("t", data, sort_by=sort_by)
    row = RowStoreEngine()
    row.create_table("t", data, sort_by=sort_by)
    return col, row


def scan(alias=None):
    return Scan("t", ["a", "b"], alias=alias)


class TestEmptyTables:
    @pytest.fixture(params=["col", "row"])
    def engine(self, request):
        col, row = both_engines({"a": EMPTY, "b": EMPTY}, ["a"])
        return col if request.param == "col" else row

    def test_scan_empty(self, engine):
        assert engine.execute(scan()).n_rows == 0

    def test_select_empty(self, engine):
        plan = Select(scan(), [Comparison("a", "=", 1)])
        assert engine.execute(plan).n_rows == 0

    def test_join_empty(self, engine):
        plan = Join(scan("A"), scan("B"), on=[("A.a", "B.a")])
        assert engine.execute(plan).n_rows == 0

    def test_group_by_empty(self, engine):
        plan = GroupBy(scan(), keys=["a"], count_column="n")
        assert engine.execute(plan).n_rows == 0

    def test_group_by_global_on_empty_counts_zero(self, engine):
        plan = GroupBy(scan(), keys=[], count_column="n")
        rel = engine.execute(plan)
        assert rel.column("n").tolist() == [0]

    def test_having_empty(self, engine):
        plan = Having(
            GroupBy(scan(), keys=["a"], count_column="n"),
            Comparison("n", ">", 0),
        )
        assert engine.execute(plan).n_rows == 0

    def test_sort_and_distinct_empty(self, engine):
        assert engine.execute(Sort(scan(), [("a", "asc")])).n_rows == 0
        assert engine.execute(Distinct(scan())).n_rows == 0

    def test_union_with_empty_branch(self, engine):
        one = Project(scan("A"), [("x", "A.a")])
        two = Project(scan("B"), [("x", "B.a")])
        assert engine.execute(Union([one, two])).n_rows == 0


class TestSingleRowTables:
    @pytest.fixture(params=["col", "row"])
    def engine(self, request):
        col, row = both_engines(
            {"a": np.array([5]), "b": np.array([9])}, ["a"]
        )
        return col if request.param == "col" else row

    def test_point_select_hit_and_miss(self, engine):
        assert engine.execute(
            Select(scan(), [Comparison("a", "=", 5)])
        ).n_rows == 1
        assert engine.execute(
            Select(scan(), [Comparison("a", "=", 6)])
        ).n_rows == 0

    def test_self_join(self, engine):
        plan = Join(scan("A"), scan("B"), on=[("A.a", "B.a")])
        assert engine.execute(plan).n_rows == 1


class TestColumnPruning:
    def test_join_prunes_untouched_columns(self):
        """The column store reads only the columns a plan touches, even
        through joins."""
        engine = ColumnStoreEngine()
        n = 50_000
        engine.create_table(
            "wide",
            {
                "k": np.arange(n) % 100,
                "used": np.arange(n),
                "unused": np.arange(n),
            },
            sort_by=["k"],
        )
        plan = Project(
            Join(
                Scan("wide", ["k", "used", "unused"], alias="L"),
                Scan("wide", ["k", "used", "unused"], alias="R"),
                on=[("L.k", "R.k")],
            ),
            [("x", "L.used")],
        )
        engine.make_cold()
        _, timing = engine.run(plan)
        column_bytes = n * 8
        # k (both sides) + used: three columns, not six.
        assert timing.bytes_read <= 3.2 * column_bytes

    def test_group_by_reads_only_keys(self):
        engine = ColumnStoreEngine()
        n = 50_000
        engine.create_table(
            "wide",
            {"k": np.arange(n) % 10, "v": np.arange(n)},
            sort_by=["k"],
        )
        plan = GroupBy(Scan("wide", ["k", "v"]), keys=["k"], count_column="n")
        engine.make_cold()
        _, timing = engine.run(plan)
        assert timing.bytes_read <= 1.2 * n * 8  # only the k column


class TestMergeJoinPath:
    def test_sorted_inputs_cost_less_than_unsorted(self):
        """Two relations sorted on the join key use the merge path, whose
        CPU charge beats the hash path (the paper's 'fast (linear) merge
        joins')."""
        n = 200_000
        key = np.sort(np.random.default_rng(0).integers(0, n // 2, n))
        payload = np.arange(n)

        sorted_engine = ColumnStoreEngine()
        sorted_engine.create_table("t", {"a": key, "b": payload}, sort_by=["a"])
        unsorted_engine = ColumnStoreEngine()
        unsorted_engine.create_table(
            "t", {"a": key, "b": payload}, sort_by=["b"]
        )

        plan = Join(
            Scan("t", ["a", "b"], alias="L"),
            Scan("t", ["a", "b"], alias="R"),
            on=[("L.a", "R.a")],
        )
        plan = GroupBy(plan, keys=[], count_column="n")

        sorted_engine.run(plan)  # warm
        unsorted_engine.run(plan)
        rel_s, t_sorted = sorted_engine.run(plan)
        rel_u, t_unsorted = unsorted_engine.run(plan)
        assert rel_s.to_tuples() == rel_u.to_tuples()
        assert t_sorted.user_seconds < t_unsorted.user_seconds


class TestBufferPressure:
    def test_results_correct_under_tiny_pool(self):
        """Failure injection: a buffer pool far smaller than the working
        set thrashes but never corrupts results."""
        n = 20_000
        rng = np.random.default_rng(1)
        data = {
            "a": rng.integers(0, 50, n),
            "b": rng.integers(0, 50, n),
        }
        roomy = ColumnStoreEngine()
        roomy.create_table("t", data, sort_by=["a"])
        tiny = ColumnStoreEngine(buffer_bytes=8 * 2048)  # 8 pages
        tiny.create_table("t", data, sort_by=["a"])

        plan = GroupBy(
            Select(scan(), [Comparison("b", "!=", 7)]),
            keys=["a"],
            count_column="n",
        )
        expected = roomy.execute(plan).sorted_tuples()
        for _ in range(3):  # repeated runs keep thrashing
            assert tiny.execute(plan).sorted_tuples() == expected

    def test_row_store_under_tiny_pool(self):
        n = 5_000
        rng = np.random.default_rng(2)
        data = {"a": rng.integers(0, 20, n), "b": rng.integers(0, 20, n)}
        roomy = RowStoreEngine()
        roomy.create_table("t", data, sort_by=["a"])
        tiny = RowStoreEngine(buffer_bytes=8 * 2048)
        tiny.create_table("t", data, sort_by=["a"])
        plan = Select(scan(), [Comparison("a", "=", 3)])
        assert (
            tiny.execute(plan).sorted_tuples()
            == roomy.execute(plan).sorted_tuples()
        )
        # The tiny pool genuinely re-reads across runs.
        tiny.make_cold()
        tiny.run(plan)
        _, second = tiny.run(plan)
        roomy.make_cold()
        roomy.run(plan)
        _, roomy_second = roomy.run(plan)
        assert second.bytes_read >= roomy_second.bytes_read


class TestNeededColumnAnalysis:
    def test_project_of_project(self):
        col, row = both_engines(
            {"a": np.array([1, 2]), "b": np.array([3, 4])}, ["a"]
        )
        plan = Project(
            Project(scan(), [("x", "a"), ("y", "b")]), [("z", "y")]
        )
        for engine in (col, row):
            rel = engine.execute(plan)
            assert sorted(rel.column("z").tolist()) == [3, 4]

    def test_union_positional_with_projected_subsets(self):
        col, row = both_engines(
            {"a": np.array([1, 2]), "b": np.array([3, 4])}, ["a"]
        )
        one = Project(scan("A"), [("x", "A.a"), ("y", "A.b")])
        two = Project(scan("B"), [("p", "B.b"), ("q", "B.a")])
        plan = Project(Union([one, two], distinct=False), [("only", "y")])
        for engine in (col, row):
            rel = engine.execute(plan)
            # Branch one contributes b values, branch two contributes a's.
            assert sorted(rel.column("only").tolist()) == [1, 2, 3, 4]
