"""Tests for the public RDFStore facade and BGP translation."""

import pytest

from repro import RDFStore, Triple, Var, generate_barton
from repro.core.bgp import bgp_plan
from repro.errors import PlanError, StorageError


def sql(store, text):
    return store.connection().session().query(text).rows


def solve(store, patterns, projection=None):
    return store.connection().session().solve(patterns, projection)

SMALL_NT = """
<e1> <type> <Text> .
<e1> <language> <fre> .
<e2> <type> <Date> .
<e3> <records> <e1> .
<e3> <type> <Text> .
"""


@pytest.fixture(
    scope="module",
    params=[
        ("column", "vertical"),
        ("column", "triple"),
        ("row", "vertical"),
        ("row", "triple"),
    ],
    ids=lambda p: "-".join(p),
)
def store(request):
    engine, scheme = request.param
    return RDFStore.from_ntriples(SMALL_NT, engine=engine, scheme=scheme)


class TestConstruction:
    def test_from_triples_accepts_tuples(self):
        store = RDFStore.from_triples(
            [("<a>", "<p>", "<b>"), ("<a>", "<q>", "<c>")]
        )
        assert store.n_triples == 2

    def test_unknown_engine_rejected(self):
        with pytest.raises(StorageError):
            RDFStore([Triple("<a>", "<p>", "<b>")], engine="oracle")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(StorageError):
            RDFStore([Triple("<a>", "<p>", "<b>")], scheme="hexastore")

    def test_vertical_creates_property_tables(self):
        store = RDFStore.from_ntriples(SMALL_NT, scheme="vertical")
        assert len(store.catalog.property_tables) == 3
        assert store.database_bytes() > 0

    def test_triple_scheme_creates_triples_table(self):
        store = RDFStore.from_ntriples(SMALL_NT, scheme="triple")
        assert "triples" in store.table_names()


class TestMatch:
    def test_match_by_property(self, store):
        rows = store.match(p="<type>")
        assert sorted(rows) == [
            ("<e1>", "<type>", "<Text>"),
            ("<e2>", "<type>", "<Date>"),
            ("<e3>", "<type>", "<Text>"),
        ]

    def test_match_fully_bound(self, store):
        assert store.match("<e1>", "<type>", "<Text>") == [
            ("<e1>", "<type>", "<Text>")
        ]

    def test_match_all(self, store):
        assert len(store.match()) == 5

    def test_match_unknown_constant(self, store):
        assert store.match(p="<ghost>") == []


class TestSolve:
    def test_subject_subject_join(self, store):
        bindings = solve(
            store,
            [
                (Var("s"), "<type>", "<Text>"),
                (Var("s"), "<language>", Var("lang")),
            ]
        )
        assert bindings == [{"s": "<e1>", "lang": "<fre>"}]

    def test_object_subject_join(self, store):
        bindings = solve(
            store,
            [
                (Var("a"), "<records>", Var("b")),
                (Var("b"), "<type>", Var("t")),
            ]
        )
        assert bindings == [{"a": "<e3>", "b": "<e1>", "t": "<Text>"}]

    def test_property_variable(self, store):
        bindings = solve(store, [("<e1>", Var("p"), Var("o"))])
        assert sorted(
            (b["p"], b["o"]) for b in bindings
        ) == [("<language>", "<fre>"), ("<type>", "<Text>")]

    def test_projection_subset(self, store):
        bindings = solve(
            store,
            [
                (Var("s"), "<type>", "<Text>"),
                (Var("s"), "<language>", Var("lang")),
            ],
            projection=["lang"],
        )
        assert bindings == [{"lang": "<fre>"}]

    def test_agrees_with_reference_graph(self, store):
        """BGP answers equal RDFGraph.solve on the same data."""
        from repro.model import RDFGraph, parse_ntriples_text

        graph = RDFGraph(parse_ntriples_text(SMALL_NT))
        patterns = [
            (Var("s"), "<type>", Var("t")),
        ]
        expected = sorted(
            (b["s"], b["t"]) for b in graph.solve(patterns)
        )
        got = sorted((b["s"], b["t"]) for b in solve(store, patterns))
        assert got == expected

    def test_unconnected_bgp_rejected(self, store):
        with pytest.raises(PlanError):
            solve(
                store,
                [
                    (Var("a"), "<type>", "<Text>"),
                    (Var("b"), "<language>", "<fre>"),
                ]
            )

    def test_repeated_variable_within_pattern(self, store):
        """(?x, <records>, ?x) — self-referential pattern, realized via a
        post-scan column-column filter (none in the test data)."""
        assert solve(store, [(Var("x"), "<records>", Var("x"))]) == []

    def test_cyclic_bgp(self, store):
        """A cyclic BGP: e3 records e1, both share <type> structure."""
        bindings = solve(
            store,
            [
                (Var("a"), "<records>", Var("b")),
                (Var("a"), "<type>", Var("t")),
                (Var("b"), "<type>", Var("t")),
            ]
        )
        assert bindings == [
            {"a": "<e3>", "b": "<e1>", "t": "<Text>"}
        ]

    def test_empty_bgp_rejected(self, store):
        with pytest.raises(PlanError):
            solve(store, [])

    def test_unknown_projection_rejected(self, store):
        with pytest.raises(PlanError):
            solve(store, [(Var("s"), "<type>", Var("o"))], projection=["zz"])


class TestSQL:
    def test_sql_on_triple_store(self):
        store = RDFStore.from_ntriples(SMALL_NT, scheme="triple")
        rows = sql(
            store,
            "SELECT A.obj, count(*) FROM triples AS A "
            "WHERE A.prop = '<type>' GROUP BY A.obj"
        )
        assert sorted(rows) == [("<Date>", 1), ("<Text>", 2)]

    def test_sql_on_vertical_store_property_table(self):
        store = RDFStore.from_ntriples(SMALL_NT, scheme="vertical")
        table = store.catalog.property_table("<type>")
        rows = sql(store, f"SELECT obj, count(*) FROM {table} GROUP BY obj")
        assert sorted(rows) == [("<Date>", 1), ("<Text>", 2)]

    def test_explain_renders_plan(self, store):
        text = store.explain([(Var("s"), "<type>", Var("o"))])
        assert "Scan" in text and "Project" in text


class TestBenchmarkInterface:
    @pytest.fixture(scope="class")
    def barton_store(self):
        dataset = generate_barton(n_triples=5_000, n_properties=30, seed=3)
        return RDFStore.from_triples(
            dataset.triples,
            scheme="vertical",
            interesting_properties=dataset.interesting_properties,
        )

    @pytest.fixture()
    def session(self, barton_store):
        return barton_store.connection().session()

    def test_benchmark_query_runs(self, session):
        result = session.query("q1", mode="hot")
        assert len(result.rows) > 0
        assert result.cost.real_seconds > 0

    def test_cold_slower_than_hot(self, barton_store, session):
        barton_store.make_cold()
        cold = session.query("q2", mode="cold").cost
        hot = session.query("q2", mode="hot").cost
        assert hot.real_seconds < cold.real_seconds

    def test_query_names(self, session):
        for name in ("q8", "q2*"):
            assert session.query(name).kind == "benchmark"

    def test_scope_override(self, barton_store, session):
        # An explicit property *list*: the third documented form of
        # ``scope=``, through the plan cache.
        small = session.query(
            "q2", mode="hot",
            scope=barton_store.catalog.interesting_properties[:3],
        )
        everything = session.query("q2", mode="hot", scope="all")
        assert 0 < len(small.rows) <= len(everything.rows)


class TestBGPPlanShapes:
    def test_vertical_property_variable_becomes_union(self):
        store = RDFStore.from_ntriples(SMALL_NT, scheme="vertical")
        plan, _ = bgp_plan(store.catalog, [(Var("s"), Var("p"), Var("o"))])
        from repro.plan import Union, walk

        assert any(isinstance(n, Union) for n in walk(plan))

    def test_triple_store_pattern_is_single_scan(self):
        store = RDFStore.from_ntriples(SMALL_NT, scheme="triple")
        plan, _ = bgp_plan(store.catalog, [(Var("s"), "<type>", Var("o"))])
        from repro.plan import Scan, walk

        scans = [n for n in walk(plan) if isinstance(n, Scan)]
        assert len(scans) == 1


class TestFileIO:
    def test_from_file_and_statistics(self, tmp_path):
        from repro.model.parser import write_ntriples_file, parse_ntriples_file
        from repro.model.triple import Triple

        triples = [
            Triple("<a>", "<p>", "<b>"),
            Triple("<a>", "<q>", '"x y"'),
            Triple("<b>", "<p>", "<c>"),
        ]
        path = tmp_path / "data.nt"
        write_ntriples_file(triples, path)
        assert parse_ntriples_file(path) == triples

        store = RDFStore.from_file(str(path))
        assert store.n_triples == 3
        stats = store.statistics()
        assert stats.total_triples == 3
        assert stats.distinct_properties == 2
        assert stats.subject_object_overlap == 1  # <b>

    def test_gzip_round_trip(self, tmp_path):
        from repro.model.parser import write_ntriples_file, parse_ntriples_file
        from repro.model.triple import Triple

        triples = [Triple("<a>", "<p>", "<b>")]
        path = tmp_path / "data.nt.gz"
        write_ntriples_file(triples, path)
        # The file really is gzip-compressed.
        import gzip

        with gzip.open(path, "rt") as handle:
            assert "<a> <p> <b> ." in handle.read()
        assert parse_ntriples_file(path) == triples

    def test_sparql_limit_pushdown(self):
        """LIMIT lives in the plan (Limit node), not in post-processing."""
        from repro.sparql import parse_sparql
        from repro.sparql.executor import sparql_plan
        from repro.plan import Limit

        store = RDFStore.from_ntriples(SMALL_NT)
        plan, _ = sparql_plan(
            store.catalog,
            parse_sparql("SELECT ?s WHERE { ?s <type> ?t } LIMIT 2"),
        )
        assert isinstance(plan, Limit)
        assert plan.n == 2
