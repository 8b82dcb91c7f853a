"""Tests for the column-store engine: correctness and I/O/cost behaviour."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.colstore import ColumnStoreEngine
from repro.errors import QueryCancelled, StorageError
from repro.exec.cancel import CancellationToken
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
    branch: a template union's branches are resolved once per catalog, and
    a whole-table read is one pool call whatever its size.  Counted with
    ``sys.setprofile`` over ``src/repro`` — the counts repeat exactly."""

    #: Mean ``src/repro`` calls per op over the twelve named queries, cold
    #: then as the cold run left the pool (the ``col_exec`` op list), on a
    #: 222-property vertical store of 8 000 triples.  2 970 when recorded;
    #: 5 714 at the commit before, when q8's 444 selection branches still
    #: went through operator dispatch (q8 alone 48 873 cold / 46 221 hot).
    CALLS_PER_OP_CEILING = 3_500

    #: ``src/repro`` calls of one hot q8 (2 148 when recorded; 3 259 at
    #: the commit before, when every run looked up each of its 444
    #: branches' arrays and RLE encodings again, and 4 147 before that,
    #: when it descended each branch again).
    Q8_HOT_CALLS_CEILING = 2_260

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

    def memo_hits(self, session):
        engine = session.connection.store.engine
        return engine.executor().resolved["unions"].hits

    def test_a_hot_union_plan_resolves_no_branch(self, session, repro_calls):
        from repro.observe import counters

        session.query("q4*", mode="cold")  # plan, lower, resolve, warm
        reads = counters.snapshot("buffer_pool")["account_calls"]
        hits = self.memo_hits(session)
        names = repro_calls(lambda: session.query("q4*"))
        reads = counters.snapshot("buffer_pool")["account_calls"] - reads
        # Each branch still reads its two columns, one pool read per span:
        # the warm ones are charged in line by the union's one
        # ``read_spans`` pass (the plan's two stand-alone scan+select
        # operators make the others: probes, then stages and gathers).
        assert names["vector_union"] == 1 and reads >= 2 * 222
        assert names["read_spans"] <= 1 + 2 * 2
        assert names["read_span"] == 0
        # One memo hit: the union binds none of its branches again.
        assert names["_resolve_union"] == 1
        assert self.memo_hits(session) == hits + 1
        assert names["_resolve_access"] == 0
        # The two scan+select operators replay what their first run
        # resolved: neither names its columns again.
        assert names["_needed_base_columns"] == 0
        assert names["base_column"] == 0
        assert names["add"] <= 4  # counter-table writes: not one per read

    def test_a_hot_q8_runs_its_selections_in_the_kernel(
        self, session, repro_calls
    ):
        session.query("q8", mode="cold")
        hits = self.memo_hits(session)
        names = repro_calls(lambda: session.query("q8"))
        assert names["vector_union"] == 2
        # One memo hit per union: neither binds its branches again.
        assert names["_resolve_union"] == 2
        assert self.memo_hits(session) == hits + 2
        assert names["_resolve_access"] == 0
        # Only the two projections above the unions dispatch: none of the
        # 2 x 222 Project(Select(Scan)) branches goes through an operator,
        # yet each is charged as its fused scan+select would be — from
        # the union's charge list, resolved by its first run.
        assert names["project"] == 2
        assert names["scan_select"] == 0
        # Every branch's descent, column arrays and encodings were
        # resolved with its access: a warm run only masks and gathers.
        assert names["_descend"] == 0
        assert names["array"] == names["_rle_encoding"] == 0
        assert names["_scan_range"] == 2 * 222
        assert names["_scan_charges"] == names["_probe_charges"] == 0
        assert names["read_spans"] == 2
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
        # Every branch of the union, and the plan's one fused scan.
        assert names["_resolve_access"] == 222 + 1

    #: ``src/repro`` calls of a warm describe's ``engine.run`` (138 when
    #: recorded; 5 246 at the commit before, when each describe re-bound
    #: its 222 branches and made 444 ``read_span`` calls).
    DESCRIBE_CALLS_CEILING = 300

    def test_a_warm_describe_is_one_memo_hit_and_one_pool_pass(
        self, repro_calls
    ):
        import repro.api as api
        from repro.data import generate_barton
        from repro.sparql import parse_sparql
        from repro.sparql.executor import sparql_plan

        dataset = generate_barton(n_triples=60_000, seed=7)
        connection = api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
        )
        engine, catalog = connection.store.engine, connection.store.catalog

        def describe(entity):
            text = "SELECT ?p ?o WHERE { %s ?p ?o }" % (
                dataset.entity_name(entity)
            )
            return sparql_plan(catalog, parse_sparql(text))[0]

        engine.run(describe(1))
        plan = describe(2)  # a new plan, lowered: its union unresolved
        engine.lower(plan)
        names = repro_calls(lambda: engine.run(plan))
        assert names["_resolve_union"] == 1 and names["read_spans"] == 1
        assert names["_resolve_access"] == names["read_span"] == 0
        assert sum(names.values()) <= self.DESCRIBE_CALLS_CEILING

    #: ``src/repro`` calls of a warm vertical q8 ``engine.run`` (3 468
    #: when recorded; 4 134 at the commit before, when every run descended
    #: each branch again, and 14 743 before that, when every run
    #: re-derived its charges from positions and charged them one pool
    #: read at a time).
    Q8_WARM_RUN_CALLS_CEILING = 6_300

    def test_a_warm_q8_replays_its_resolved_charges(
        self, session, repro_calls
    ):
        from repro.queries import build_query

        store = session.connection.store
        plan = build_query(store.catalog, "q8")
        store.engine.run(plan, mode="cold")  # lower, resolve, warm
        first = repro_calls(lambda: store.engine.run(plan))
        second = repro_calls(lambda: store.engine.run(plan))
        assert sum(first.values()) <= self.Q8_WARM_RUN_CALLS_CEILING
        # Nothing turns positions into pages again: the charges are the
        # union's resolved list, charged in one pass per union.
        for names in (first, second):
            assert names["_page_list"] == names["_page_runs"] == 0
            assert names["page_runs"] == names["_fetch_charges"] == 0
            assert names["read_spans"] == 2

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


_NUMPY_MA_SCRIPT = """
import json, sys
from repro.core import RDFStore
from repro.data import generate_barton
from repro.queries.definitions import ALL_QUERY_NAMES

dataset = generate_barton(n_triples=5_000, seed=42)
stores = [
    RDFStore.from_triples(
        dataset.triples, engine="column", scheme=scheme,
        interesting_properties=dataset.interesting_properties,
        engine_options=options,
    )
    for scheme, options in (
        ("vertical", None), ("triple", None),
        ("vertical", {"compression": "physical"}),
    )
]
imported = ["build"] if "numpy.ma" in sys.modules else []
for store in stores:
    connection = store.connection()
    for name in ALL_QUERY_NAMES:
        for mode in ("cold", "hot"):
            store.engine.run(connection._plan_for(name).plan, mode=mode)
            if "numpy.ma" in sys.modules and not imported:
                imported.append(name)
print(json.dumps(imported))
"""


class TestNoMaskedArrays:
    """The column store's page sets are distinct ascending pages from
    ``np.bincount``, not ``np.unique``, which imports ``numpy.ma`` on
    first use: a fresh process that builds both column stores, and a
    vertical one with ``compression="physical"`` (whose encodings map
    positional fetches to pages), and runs the named queries never loads
    it."""

    def test_the_named_queries_import_no_numpy_ma(self):
        root = Path(__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-c", _NUMPY_MA_SCRIPT],
            capture_output=True, text=True, timeout=300, cwd=root,
            env={"PYTHONPATH": str(root / "src"), "PATH": ""},
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == []


class TestAnInsertDropsTheResolvedCharges:
    """A template union's charge list lives in the union memo and a fused
    scan's on its lowered node; both are resolved from the catalog by a
    plan's first run, so an insert that rebuilds the tables they read
    must drop them."""

    def test_runs_after_an_insert_equal_a_fresh_deployment(self):
        """q8 (two selecting template unions) and q2 (fused scans) run
        cold and warm on a vertical store, a batch is inserted, and the
        same plans run again through the same cold/warm sequence: rows
        and simulated timings equal those of a fresh deployment of the
        post-insert data."""
        import repro.api as api
        from repro.data import generate_barton
        from repro.model.triple import Triple
        from repro.queries import build_query
        from repro.queries.definitions import CONSTANTS
        from repro.storage import insert_triples

        dataset = generate_barton(n_triples=4_000, n_properties=40, seed=11)
        props = dataset.interesting_properties
        objects = [f"<charges/o{i}>" for i in range(7)]
        batch = [
            triple for i in range(300) for triple in (
                Triple(f"<charges/{i}>", "<type>", "<Text>"),
                Triple(f"<charges/{i}>", props[1 + i % 5], objects[i % 7]),
            )
        ] + [
            Triple(CONSTANTS["conferences"], props[1 + i % 5], objects[i])
            for i in range(7)
        ]

        def deploy(triples):
            store = api.connect(
                triples=triples, interesting_properties=props,
            ).store
            return store, {
                name: build_query(store.catalog, name) for name in ("q8", "q2")
            }

        def runs(store, plans):
            out = []
            for plan in plans.values():
                for mode in ("cold", None):
                    relation, timing = store.engine.run(plan, mode=mode)
                    # Sorted: the two dictionaries order new strings
                    # differently, so the encoded row order may differ.
                    out.append((sorted(relation.decoded_tuples(
                        store.catalog.dictionary, order=plan.output_columns(),
                    )), timing.to_dict()))
            return out

        live, plans = deploy(dataset.triples)
        before = runs(live, plans)
        live.catalog, report = insert_triples(
            live.engine, live.catalog, batch,
        )
        assert report.tables_rebuilt and not report.schema_changed
        after = runs(live, plans)
        assert after == runs(*deploy(dataset.triples + batch))
        assert after != before  # the batch moved both queries


# ---------------------------------------------------------------------------
# the union kernel against generic dispatch
# ---------------------------------------------------------------------------

class TestUnionKernelDifferential:
    """The union kernel against generic dispatch on twin deployments:
    what only a whole store shows — a tight pool, profiling, an insert
    under the memo.  ``tests/test_union_template.py`` runs the random
    differential (template union vs its expansion, which the column
    store runs through generic dispatch)."""

    #: Tight: 76 pages against a describe's 78, so every warm describe
    #: hits some reads and misses and evicts others inside its run.
    @pytest.mark.parametrize("options,profile", [
        ({"buffer_bytes": 76 * ColumnStoreEngine.DEFAULT_PAGE_SIZE}, False),
        ({"compression": "physical"}, False),
        ({"compression": "physical"}, True),
        ({"workers": 4}, False),
    ], ids=["tight-pool", "physical", "profile", "workers-4"])
    def test_plain_runs_equal_generic_dispatch(
        self, options, profile, monkeypatch
    ):
        """Describes — unions of 30 plain ``Project(Extend(Scan))``
        branches, memoised per catalog, built in one call per output and
        charged in one ``read_spans`` pass — against the same describes
        with every branch through generic dispatch, on a twin deployment:
        rows, cost documents, pool stats and the LRU ring order, also
        across an insert that rebuilds a table the memo has seen."""
        import repro.api as api
        import repro.colstore.operators as operators
        from repro.data import generate_barton
        from repro.model.triple import Triple
        from repro.storage import insert_triples

        monkeypatch.setenv("REPRO_MORSEL_ROWS", "64")
        dataset = generate_barton(n_triples=3_000, n_properties=30, seed=7)
        kernel, oracle = [
            api.connect(
                triples=dataset.triples,
                interesting_properties=dataset.interesting_properties,
                engine_options=options,
            )
            for _ in range(2)
        ]
        entity = dataset.entity_name
        texts = [
            "SELECT ?p ?o WHERE { %s ?p ?o }" % entity(i) for i in range(4)
        ] + [
            "SELECT A.prop, A.obj FROM triples AS A WHERE A.subj = '%s'"
            % entity(i) for i in range(4, 6)
        ]

        def ring(engine):
            head = extent = engine.pool._lru.head
            order = []
            while extent.next is not head:
                extent = extent.next
                order.append((extent.start, extent.end))
            return order

        def observed(connection, text, mode):
            engine = connection.store.engine
            result = connection.session().query(
                text, mode=mode, profile=profile,
            )
            traced = profile and [
                result.profile.count_total(key) for key in (
                    "page_hits", "page_misses", "disk_requests", "evictions",
                    "bytes_scanned",
                )
            ]
            return (
                list(result), result.cost.to_dict(), engine.pool.stats(),
                ring(engine), traced,
            )

        def check(text, mode=None):
            got = observed(kernel, text, mode)
            with monkeypatch.context() as generic:
                generic.setattr(
                    operators, "_canonical_shape", lambda child, keep: None,
                )
                assert observed(oracle, text, mode) == got
            return got[0]

        for number, text in enumerate(texts):
            check(text, "cold" if number == 0 else None)
        # One plan per front end's union (their aliases differ), resolved
        # once: every later describe is a memo hit.
        memo = kernel.store.engine.executor().resolved["unions"]
        assert len(memo) == 2 and memo.hits == len(texts) - 2

        # An existing property of a described subject: its table is
        # rebuilt, the bindings stay the same, so only dropping the memo
        # with the catalog keeps the describe right.
        prop = next(t.p for t in dataset.triples if t.s == entity(0))
        for connection in (kernel, oracle):
            store = connection.store
            store.catalog, report = insert_triples(
                store.engine, store.catalog,
                [Triple(entity(0), prop, "<differential/new>")],
            )
            assert report.tables_rebuilt
        assert "unions" not in kernel.store.engine.executor().resolved
        # A text not seen before, so the plan is built on the new catalog.
        rows = check("SELECT ?p ?o WHERE { %s ?p ?o . }" % entity(0))
        assert (prop, "<differential/new>") in rows
        stats = kernel.store.engine.pool.stats()
        assert stats["page_hits"] and stats["page_misses"]
        if "buffer_bytes" in options:
            assert stats["evictions"]


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
