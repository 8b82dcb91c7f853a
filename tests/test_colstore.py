"""Tests for the column-store engine: correctness and I/O/cost behaviour."""

import numpy as np
import pytest

from repro.colstore import ColumnStoreEngine
from repro.errors import StorageError
from repro.plan import (
    Comparison,
    Distinct,
    GroupBy,
    Having,
    Join,
    Project,
    Scan,
    Select,
    Union,
)


@pytest.fixture
def engine():
    e = ColumnStoreEngine()
    e.create_table(
        "t",
        {
            "subj": np.array([0, 1, 2, 3, 4, 5]),
            "prop": np.array([10, 10, 11, 11, 12, 12]),
            "obj": np.array([20, 21, 20, 22, 23, 20]),
        },
        sort_by=["prop", "subj", "obj"],
    )
    return e


def scan(alias=None, table="t"):
    return Scan(table, ["subj", "prop", "obj"], alias=alias)


class TestDDL:
    def test_duplicate_table_rejected(self, engine):
        with pytest.raises(StorageError):
            engine.create_table("t", {"x": [1]})

    def test_unknown_table(self, engine):
        with pytest.raises(StorageError):
            engine.table("nope")

    def test_indices_rejected(self, engine):
        """MonetDB/SQL has no user-defined indices (paper, Section 4.1)."""
        with pytest.raises(StorageError):
            engine.create_table("u", {"x": [1]}, indexes=[{"name": "i"}])

    def test_sort_applied(self, engine):
        table = engine.table("t")
        prop = table.array("prop")
        assert prop.tolist() == sorted(prop.tolist())

    def test_table_catalog(self, engine):
        assert engine.has_table("t")
        assert "t" in engine.table_names()
        assert engine.database_bytes() == 3 * 6 * 8 or engine.database_bytes() > 0


class TestExecution:
    def test_full_scan(self, engine):
        rel = engine.execute(scan())
        assert rel.n_rows == 6
        assert set(rel.column_names()) == {"subj", "prop", "obj"}

    def test_select_equality(self, engine):
        plan = Select(scan(), [Comparison("prop", "=", 11)])
        rel = engine.execute(plan)
        assert sorted(rel.column("subj").tolist()) == [2, 3]

    def test_select_inequality(self, engine):
        plan = Select(scan(), [Comparison("obj", "!=", 20)])
        rel = engine.execute(plan)
        assert rel.n_rows == 3

    def test_select_conjunction(self, engine):
        plan = Select(
            scan(), [Comparison("prop", "=", 12), Comparison("obj", "=", 20)]
        )
        rel = engine.execute(plan)
        assert rel.column("subj").tolist() == [5]

    def test_select_missing_constant_yields_empty(self, engine):
        plan = Select(scan(), [Comparison("prop", "=", None)])
        assert engine.execute(plan).n_rows == 0

    def test_project_rename(self, engine):
        plan = Project(scan("A"), [("s", "A.subj"), ("o", "A.obj")])
        rel = engine.execute(plan)
        assert set(rel.column_names()) == {"s", "o"}
        assert rel.n_rows == 6

    def test_self_join_on_subject(self, engine):
        a = Select(scan("A"), [Comparison("A.prop", "=", 10)])
        b = Select(scan("B"), [Comparison("B.prop", "=", 11)])
        plan = Join(a, b, on=[("A.subj", "B.subj")])
        rel = engine.execute(plan)
        # subj 1 does not appear with prop 11; only subj 2,3 with prop 11 and
        # subj 0,1 with prop 10 -> no overlap? subj values: prop10 -> {0,1},
        # prop11 -> {2,3}. No matches.
        assert rel.n_rows == 0

    def test_join_with_matches(self, engine):
        a = Select(scan("A"), [Comparison("A.obj", "=", 20)])
        b = Select(scan("B"), [Comparison("B.obj", "=", 20)])
        plan = Join(a, b, on=[("A.obj", "B.obj")])
        rel = engine.execute(plan)
        assert rel.n_rows == 9  # 3 x 3 rows with obj == 20

    def test_group_by_counts(self, engine):
        plan = GroupBy(scan(), keys=["prop"], count_column="n")
        rel = engine.execute(plan)
        assert dict(zip(rel.column("prop").tolist(), rel.column("n").tolist())) == {
            10: 2, 11: 2, 12: 2,
        }

    def test_group_by_global(self, engine):
        plan = GroupBy(scan(), keys=[], count_column="n")
        rel = engine.execute(plan)
        assert rel.column("n").tolist() == [6]

    def test_having(self, engine):
        plan = Having(
            GroupBy(scan(), keys=["obj"], count_column="n"),
            Comparison("n", ">", 1),
        )
        rel = engine.execute(plan)
        assert rel.column("obj").tolist() == [20]
        assert rel.column("n").tolist() == [3]

    def test_union_all_and_distinct(self, engine):
        one = Project(scan("A"), [("s", "A.subj")])
        two = Project(scan("B"), [("s", "B.subj")])
        assert engine.execute(Union([one, two], distinct=False)).n_rows == 12
        assert engine.execute(Union([one, two], distinct=True)).n_rows == 6

    def test_union_positional_alignment(self, engine):
        """UNION matches columns by position, as SQL does."""
        one = Project(scan("A"), [("x", "A.subj")])
        two = Project(scan("B"), [("y", "B.obj")])
        rel = engine.execute(Union([one, two], distinct=False))
        assert rel.column_names() == ["x"]
        assert rel.n_rows == 12

    def test_distinct(self, engine):
        plan = Distinct(Project(scan("A"), [("o", "A.obj")]))
        rel = engine.execute(plan)
        assert sorted(rel.column("o").tolist()) == [20, 21, 22, 23]

    def test_count_column_not_oid(self, engine):
        plan = GroupBy(scan(), keys=["prop"], count_column="n")
        rel = engine.execute(plan)
        assert "n" not in rel.oid_columns
        assert "prop" in rel.oid_columns


class TestCostBehaviour:
    def test_hot_run_cheaper_than_cold(self, engine):
        plan = Select(scan(), [Comparison("prop", "=", 11)])
        engine.make_cold()
        _, cold = engine.run(plan)
        _, hot = engine.run(plan)
        assert hot.real_seconds < cold.real_seconds
        assert hot.bytes_read == 0

    def test_user_time_machine_independent_io(self, engine):
        plan = scan()
        engine.make_cold()
        _, timing = engine.run(plan)
        assert timing.user_seconds <= timing.real_seconds
        assert timing.bytes_read > 0

    def test_column_pruning_reads_only_touched_columns(self):
        e = ColumnStoreEngine()
        n = 100_000
        e.create_table(
            "wide",
            {"a": np.arange(n), "b": np.arange(n), "c": np.arange(n)},
            sort_by=["a"],
        )
        plan = Project(Scan("wide", ["a", "b", "c"]), [("a", "a")])
        e.make_cold()
        _, timing = e.run(plan)
        one_column_bytes = n * 8
        assert timing.bytes_read <= one_column_bytes * 1.1

    def test_sorted_leading_selection_reads_slice_only(self):
        """Equality on the leading sort column reads ~the qualifying range,
        not the whole table (the PSO-clustering advantage)."""
        e = ColumnStoreEngine()
        n = 200_000
        prop = np.repeat(np.arange(20), n // 20)
        e.create_table(
            "t",
            {"prop": prop, "subj": np.arange(n), "obj": np.arange(n)},
            sort_by=["prop", "subj"],
        )
        plan = Select(
            Scan("t", ["prop", "subj", "obj"]), [Comparison("prop", "=", 3)]
        )
        e.make_cold()
        _, timing = e.run(plan)
        slice_bytes = (n // 20) * 8 * 2  # subj + obj slices
        total_bytes = n * 8 * 3
        assert timing.bytes_read < total_bytes / 5
        assert timing.bytes_read >= slice_bytes

    def test_unsorted_selection_reads_whole_column(self):
        e = ColumnStoreEngine()
        n = 200_000
        rng = np.random.default_rng(0)
        e.create_table(
            "t",
            {"prop": rng.integers(0, 20, n), "subj": np.arange(n)},
            sort_by=["subj"],  # prop not leading -> full column scan
        )
        plan = Select(Scan("t", ["prop", "subj"]), [Comparison("prop", "=", 3)])
        e.make_cold()
        _, timing = e.run(plan)
        assert timing.bytes_read >= n * 8  # at least the full prop column

    def test_plan_size_overhead_charged(self, engine):
        """Bigger plans cost more CPU even over identical data — the
        union-heavy vertically-partitioned query tax."""
        small = Project(scan("A"), [("s", "A.subj")])
        parts = [Project(scan(f"A{i}"), [("s", f"A{i}.subj")]) for i in range(40)]
        big = Union(parts, distinct=False)
        engine.make_cold()
        _, t_small = engine.run(small)
        engine.make_cold()
        _, t_big = engine.run(big)
        assert t_big.user_seconds > t_small.user_seconds * 5

    def test_io_history_collected(self, engine):
        engine.make_cold()
        engine.run(scan())
        history = engine.io_history()
        assert history[-1][1] > 0


class TestReplayWorkPerBranch:
    """The union's cost replay does a fixed amount of interpreter work per
    branch: branches are resolved once per lowered plan, and a whole-table
    read is one pool call whatever its size.  Counted with
    ``sys.setprofile`` over ``src/repro`` — the counts repeat exactly."""

    #: Mean ``src/repro`` calls per op over the twelve named queries, cold
    #: then as the cold run left the pool (the ``col_exec`` op list), on a
    #: 222-property vertical store of 8 000 triples.  5 602 when recorded;
    #: 8 545 at the commit before (of which q8, whose 222 non-canonical
    #: branches go through operator dispatch, is 47 541 / 52 242).
    CALLS_PER_OP_CEILING = 6_000

    @pytest.fixture(scope="class")
    def session(self):
        import repro.api as api
        from repro.data import generate_barton

        dataset = generate_barton(
            n_triples=8_000, n_properties=222, n_interesting=28, seed=42
        )
        connection = api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
        )
        return connection.session()

    def test_a_hot_union_plan_resolves_no_branch(self, session, repro_calls):
        session.query("q4*", mode="cold")  # plan, lower, resolve, warm
        names = repro_calls(lambda: session.query("q4*"))
        assert names["vector_union"] == 1 and names["read_span"] >= 2 * 222
        assert names["_canonical_branch"] == 0
        assert names["_resolve_union"] == 0
        # The plan's two stand-alone scan+select operators still name
        # their columns per run; none of the 222 branches does.
        assert names["_needed_base_columns"] == 2
        assert names["_base_column"] <= 4
        assert names["add"] <= 4  # counter-table writes: not one per read

    def test_ddl_drops_what_a_lowered_union_resolved(
        self, session, repro_calls
    ):
        engine = session.connection.store.engine
        session.query("q2*")
        assert engine.executor().lowering_cache_stats()["size"] > 0
        engine.create_table("scratch", {"a": np.arange(3)})
        assert engine.executor().lowering_cache_stats()["size"] == 0
        engine.drop_table("scratch")
        names = repro_calls(lambda: session.query("q2*"))
        assert names["_resolve_union"] == 1
        assert names["_canonical_branch"] == 222

    def test_calls_per_op_ceiling(self, session, repro_calls):
        from repro.queries import ALL_QUERY_NAMES

        ops = [(q, mode) for q in ALL_QUERY_NAMES for mode in ("cold", None)]
        for query, mode in ops:
            session.query(query, mode=mode)
        total = sum(
            sum(repro_calls(lambda: session.query(q, mode=m)).values())
            for q, m in ops
        )
        assert total / len(ops) <= self.CALLS_PER_OP_CEILING
