"""Tests for the column-store engine: correctness and I/O/cost behaviour."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.colstore import ColumnStoreEngine
from repro.colstore.operators import _CanonicalRun
from repro.errors import QueryCancelled, StorageError
from repro.exec.cancel import CancellationToken
from repro.plan import (
    ColumnComparison,
    Comparison,
    Distinct,
    Extend,
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

    def test_a_probe_is_charged_for_its_own_range(self):
        """Only a descent's first probe, always over the whole table, is
        resolved once per column; a narrowed probe never reuses what an
        earlier query's probe of the same column charged."""
        def fresh():
            e = ColumnStoreEngine()
            e.create_table(
                "t",
                {"subj": np.repeat([1, 2, 3], [1000, 10, 300]),
                 "obj": np.arange(1310)},
                sort_by=["subj", "obj"],
            )
            return e

        def point(subj):
            return Select(Scan("t", ["subj", "obj"]), [
                Comparison("subj", "=", subj), Comparison("obj", "=", 5),
            ])

        warm = fresh()
        warm.run(point(1))
        for subj in (2, 3):
            assert warm.run(point(subj), mode="cold")[1].to_dict() == \
                fresh().run(point(subj), mode="cold")[1].to_dict()

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
    #: 222-property vertical store of 8 000 triples.  2 970 when recorded;
    #: 5 714 at the commit before, when q8's 444 selection branches still
    #: went through operator dispatch (q8 alone 48 873 cold / 46 221 hot).
    CALLS_PER_OP_CEILING = 3_500

    #: ``src/repro`` calls of one hot q8 (14 280 when recorded).
    Q8_HOT_CALLS_CEILING = 15_000

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

    def test_a_hot_q8_runs_its_selections_in_the_kernel(
        self, session, repro_calls
    ):
        session.query("q8", mode="cold")
        names = repro_calls(lambda: session.query("q8"))
        assert names["vector_union"] == 2
        assert names["_canonical_branch"] == 0
        assert names["_resolve_union"] == 0
        # Only the two projections above the unions dispatch: none of the
        # 2 x 222 Project(Select(Scan)) branches goes through an operator,
        # yet each is charged as its fused scan+select would be.
        assert names["project"] == 2
        assert names["scan_select"] == 0
        assert names["_replay_scan"] == 2 * 222
        assert sum(names.values()) <= self.Q8_HOT_CALLS_CEILING

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


# ---------------------------------------------------------------------------
# the union kernel against generic dispatch
# ---------------------------------------------------------------------------

def _kernel_tables():
    """Six (subj, obj)-sorted tables, one empty: small value domains, so
    subjects repeat (RLE runs under compression) and any constant in
    ``[-1, 62]`` may or may not match."""
    rng = np.random.default_rng(5)
    return {
        f"k{i}": (rng.integers(0, 40, n), rng.integers(0, 60, n))
        for i, n in enumerate((0, 7, 40, 90, 150, 300))
    }


KERNEL_TABLES = _kernel_tables()

#: ``None`` is a constant missing from the dictionary.
_constants = st.one_of(st.integers(-1, 62), st.none())


@st.composite
def _union_branch(draw, index):
    """One union branch over a random table: plain, selecting (random
    simple predicates, or equality on both sort columns), optionally
    extended, or non-canonical (a column-to-column comparison).  Returns
    ``(branch, canonical)``."""
    alias = f"B{index}"
    node = Scan(draw(st.sampled_from(sorted(KERNEL_TABLES))),
                ["subj", "obj"], alias=alias)
    subj, obj, tag = f"{alias}.subj", f"{alias}.obj", f"{alias}.tag"
    kind = draw(st.sampled_from(
        ["plain", "select", "point", "cross", "select"]
    ))
    if kind == "select":
        node = Select(node, draw(st.lists(
            st.builds(
                Comparison, st.sampled_from([subj, obj]),
                st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
                _constants,
            ),
            min_size=1, max_size=3,
        )))
    elif kind == "point":
        node = Select(node, [
            Comparison(subj, "=", draw(_constants)),
            Comparison(obj, "=", draw(_constants)),
        ])
    elif kind == "cross":
        node = Select(node, [
            ColumnComparison(subj, draw(st.sampled_from(["<", "!="])), obj),
        ])
    sources = [subj, obj]
    if draw(st.booleans()):
        node = Extend(node, tag, draw(st.integers(0, 9)))
        sources.append(tag)
    mapping = [("s", draw(st.sampled_from(sources))),
               ("o", draw(st.sampled_from(sources)))]
    return Project(node, mapping), kind != "cross"


@st.composite
def _kernel_case(draw):
    """``(kernel plan, oracle plan, canonical branch count)``: the oracle
    wraps every branch in an identity Project, which keeps it off the
    kernel and charges nothing."""
    drawn = [
        draw(_union_branch(i)) for i in range(draw(st.integers(1, 7)))
    ]
    distinct = draw(st.booleans())
    keep = draw(st.sampled_from([["s"], ["o"], ["s", "o"]]))

    def plan(branches):
        union = Union(branches, distinct=distinct)
        return Project(union, [(name, name) for name in keep])

    branches = [branch for branch, _ in drawn]
    identity = [
        Project(b, [(c, c) for c in b.output_columns()]) for b in branches
    ]
    return plan(branches), plan(identity), sum(c for _, c in drawn)


def _executed(engine, plan):
    """Rows, cost document, pool-stats delta and compression counts of
    *plan* run cold and then warm straight through the runtime (the plan
    overhead charge depends on the operator count, which the identity
    Projects change; everything below it must not)."""
    engine.make_cold()
    runtime = engine.executor()
    pool0 = engine.pool.stats()
    counts0 = list(engine.compression_counts.counts)
    runs = []
    for _ in range(2):
        engine.clock.reset()
        relation = runtime.execute(plan)
        runs.append((
            {n: relation.column(n).tolist() for n in relation.columns},
            sorted(relation.oid_columns), engine.clock.timing().to_dict(),
        ))
    pool = {k: v - pool0[k] for k, v in engine.pool.stats().items()}
    counts = [
        b - a for a, b in zip(counts0, engine.compression_counts.counts)
    ]
    return runs, pool, counts


class TestUnionKernelDifferential:
    """Runs of canonical branches — now with selections — evaluated and
    charged by the union kernel must equal generic operator dispatch of
    the same branches: rows, cost documents and pool statistics, raw and
    compressed, serial and on 64-row morsels."""

    @pytest.fixture(scope="class")
    def engines(self):
        engines = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_MORSEL_ROWS", "64")
            for compression in (None, "physical"):
                for workers in (1, 4):
                    engine = ColumnStoreEngine(
                        compression=compression, workers=workers
                    )
                    for name, (subj, obj) in KERNEL_TABLES.items():
                        engine.create_table(
                            name, {"subj": subj, "obj": obj},
                            sort_by=["subj", "obj"],
                        )
                    engines[compression, workers] = engine
        return engines

    @settings(max_examples=60)
    @given(case=_kernel_case())
    def test_kernel_equals_generic_dispatch(self, engines, case):
        kernel, oracle, n_canonical = case
        for engine in engines.values():
            assert _executed(engine, kernel) == _executed(engine, oracle)
            union = engine.lower(kernel).children[0]
            assert n_canonical == sum(
                len(run.branches) for run in union.prepared.runs
                if type(run) is _CanonicalRun
            )


# ---------------------------------------------------------------------------
# cancellation inside the union kernel
# ---------------------------------------------------------------------------

class _FiresOnPoll(CancellationToken):
    """A token that counts its polls and cancels itself on poll number
    *fire_at* (never when ``None``)."""

    def __init__(self, fire_at=None):
        super().__init__()
        self.fire_at = fire_at
        self._polls = itertools.count(1)
        self.polls = 0

    def _poll(self):
        self.polls = next(self._polls)
        if self.polls == self.fire_at:
            self.cancel("poll limit")

    def is_set(self):
        self._poll()
        return super().is_set()

    def raise_if_cancelled(self):
        self._poll()
        super().raise_if_cancelled()


class TestUnionCancellation:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_cancel_mid_union_leaves_the_session_sound(
        self, workers, monkeypatch
    ):
        import repro.api as api
        from repro.data import generate_barton

        monkeypatch.setenv("REPRO_MORSEL_ROWS", "64")
        dataset = generate_barton(n_triples=3_000, n_properties=30, seed=7)

        def connect():
            return api.connect(
                triples=dataset.triples,
                interesting_properties=dataset.interesting_properties,
                engine_options={"workers": workers},
            )

        fresh = connect().session().query("q8", mode="cold")
        connection = connect()
        session = connection.session()
        runtime = connection.store.engine.executor()

        counting = _FiresOnPoll().bind()
        monkeypatch.setattr(runtime, "cancel_token", counting)
        session.query("q8", mode="cold")
        # Serial: one poll per operator boundary above the branches
        # (Project, Join, Project, Union, Union) and one per union for its
        # one branch group.  On morsels each union polls once per group
        # and once at the end of the batch.  Either way the last poll is
        # the second union's.
        polls = counting.polls
        assert polls == 7 if workers == 1 else polls > 7

        runtime.cancel_token = _FiresOnPoll(fire_at=polls).bind()
        with pytest.raises(QueryCancelled):
            session.query("q8", mode="cold")
        runtime.cancel_token = None

        again = session.query("q8", mode="cold")
        assert list(again) == list(fresh)
        assert again.cost.to_dict() == fresh.cost.to_dict()
