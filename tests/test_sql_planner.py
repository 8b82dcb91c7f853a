"""End-to-end SQL tests: the appendix SQL, planned and executed on real
engines, must reproduce the reference answers — and the generated
vertically-partitioned SQL must agree with the triple-store SQL, at the
default scopes and at Figure 6 sweep points."""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.errors import SQLError
from repro.plan import Extend, Project, Union, walk
from repro.queries import ALL_QUERY_NAMES, build_query, reference_answer
from repro.rowstore import RowStoreEngine
from repro.sql import APPENDIX_SQL, generate_vertical_sql, plan_sql
from repro.storage import build_triple_store, build_vertical_store


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=6_000, n_properties=40, seed=11)


@pytest.fixture(scope="module")
def triple_deploy(dataset):
    engine = ColumnStoreEngine()
    catalog = build_triple_store(
        engine, dataset.triples, dataset.interesting_properties,
        clustering="PSO",
    )
    return engine, catalog


@pytest.fixture(scope="module")
def vertical_deploy(dataset):
    engine = ColumnStoreEngine()
    catalog = build_vertical_store(
        engine, dataset.triples, dataset.interesting_properties,
    )
    return engine, catalog


@pytest.fixture(scope="module")
def row_triple_deploy(dataset):
    engine = RowStoreEngine()
    catalog = build_triple_store(
        engine, dataset.triples, dataset.interesting_properties,
        clustering="PSO",
    )
    return engine, catalog


@pytest.fixture(scope="module")
def row_vertical_deploy(dataset):
    engine = RowStoreEngine()
    catalog = build_vertical_store(
        engine, dataset.triples, dataset.interesting_properties,
    )
    return engine, catalog


def run_plan(engine, catalog, plan):
    relation = engine.execute(plan)
    return sorted(
        relation.decoded_tuples(catalog.dictionary, order=plan.output_columns())
    )


def run_sql(engine, catalog, sql):
    return run_plan(engine, catalog, plan_sql(sql, catalog))


class TestAppendixOnTripleStore:
    @pytest.mark.parametrize("query_name", ALL_QUERY_NAMES)
    def test_matches_reference(self, dataset, triple_deploy, query_name):
        engine, catalog = triple_deploy
        got = run_sql(engine, catalog, APPENDIX_SQL[query_name])
        expected = reference_answer(
            dataset.graph(), query_name, dataset.interesting_properties
        )
        assert got == expected


FIGURE6_COUNTS = (56, 112, 196)


@pytest.fixture(scope="module")
def figure6():
    """A 222-property dataset deployed as the Figure 6 sweep deploys it:
    one vertical store, and a triple store with a ``properties_<k>``
    filter table (and catalog) per sweep point."""
    from repro.bench.experiments import _figure6_aux_catalogs

    data = generate_barton(n_triples=6_000, n_properties=222, seed=5)
    engine = ColumnStoreEngine()
    triple = SimpleNamespace(engine=engine, catalog=build_triple_store(
        engine, data.triples, data.interesting_properties,
        clustering="PSO",
    ))
    vertical_engine = ColumnStoreEngine()
    return {
        "graph": data.graph(),
        "vertical": (vertical_engine, build_vertical_store(
            vertical_engine, data.triples, data.interesting_properties,
        )),
        "triple": {
            k: (engine, catalog)
            for k, (catalog, _) in _figure6_aux_catalogs(
                triple, FIGURE6_COUNTS).items()
        },
    }


class TestGeneratedVerticalSQL:
    @pytest.mark.parametrize("query_name", ALL_QUERY_NAMES)
    def test_matches_reference_on_column_store(
        self, dataset, vertical_deploy, query_name
    ):
        engine, catalog = vertical_deploy
        scope = (
            None if query_name.endswith("*") or query_name == "q8"
            else dataset.interesting_properties
        )
        sql = generate_vertical_sql(
            APPENDIX_SQL[query_name], catalog, properties=scope
        )
        got = run_sql(engine, catalog, sql)
        expected = reference_answer(
            dataset.graph(), query_name, dataset.interesting_properties
        )
        assert got == expected

    @pytest.mark.parametrize("query_name", ["q1", "q5", "q7", "q8"])
    def test_matches_reference_on_row_store(
        self, dataset, row_vertical_deploy, query_name
    ):
        engine, catalog = row_vertical_deploy
        sql = generate_vertical_sql(APPENDIX_SQL[query_name], catalog)
        got = run_sql(engine, catalog, sql)
        expected = reference_answer(
            dataset.graph(), query_name, dataset.interesting_properties
        )
        assert got == expected

    @pytest.mark.parametrize("k", FIGURE6_COUNTS)
    @pytest.mark.parametrize("query_name", ["q2", "q3", "q4", "q6"])
    def test_figure6_scopes(self, figure6, k, query_name):
        """At a Figure 6 sweep point the generated SQL, ``build_query``
        with the property list (vertical) and ``build_query`` over a
        ``properties_<k>`` catalog (triple) all return the reference rows
        for the first *k* properties."""
        names = figure6["vertical"][1].all_properties[:k]
        expected = reference_answer(figure6["graph"], query_name, names)
        engine, catalog = figure6["vertical"]
        sql = generate_vertical_sql(
            APPENDIX_SQL[query_name], catalog, properties=names
        )
        assert run_sql(engine, catalog, sql) == expected
        assert run_plan(
            engine, catalog, build_query(catalog, query_name, scope=names)
        ) == expected
        engine, catalog = figure6["triple"][k]
        assert run_plan(
            engine, catalog, build_query(catalog, query_name)
        ) == expected

    @pytest.mark.parametrize("query_name", ["q2", "q3", "q4", "q6"])
    def test_default_list_keeps_the_properties_restriction(
        self, triple_deploy, vertical_deploy, query_name
    ):
        """Without a list, a statement that joins ``properties`` iterates
        the catalog's properties set, not every property: the generated
        text answers the triple store's rows."""
        text = APPENDIX_SQL[query_name]
        engine, catalog = vertical_deploy
        got = run_sql(engine, catalog, generate_vertical_sql(text, catalog))
        assert got == run_sql(*triple_deploy, text)

    def test_bound_property_becomes_single_table(self, vertical_deploy):
        _, catalog = vertical_deploy
        sql = generate_vertical_sql(APPENDIX_SQL["q1"], catalog)
        assert "UNION" not in sql.upper()
        assert catalog.property_table("<type>") in sql

    def test_unbound_property_becomes_union(self, vertical_deploy):
        _, catalog = vertical_deploy
        sql = generate_vertical_sql(APPENDIX_SQL["q2*"], catalog)
        assert sql.upper().count("UNION ALL") >= 39  # 40 properties

    def test_restricted_list_drops_properties_join(
        self, dataset, vertical_deploy
    ):
        _, catalog = vertical_deploy
        sql = generate_vertical_sql(
            APPENDIX_SQL["q2"], catalog,
            properties=dataset.interesting_properties,
        )
        assert "properties" not in sql
        assert sql.upper().count("UNION ALL") == 27  # 28 properties

    def test_generated_sql_size_explodes_with_properties(
        self, dataset, vertical_deploy
    ):
        """Section 4.2: queries 'grow to a size that seriously challenges
        the optimizer'."""
        _, catalog = vertical_deploy
        small = generate_vertical_sql(
            APPENDIX_SQL["q2"], catalog,
            properties=dataset.interesting_properties[:5],
        )
        big = generate_vertical_sql(APPENDIX_SQL["q2*"], catalog)
        assert len(big) > 4 * len(small)


class TestPlannerErrors:
    def test_unknown_table(self, triple_deploy):
        _, catalog = triple_deploy
        with pytest.raises(SQLError):
            plan_sql("SELECT x.a FROM nope AS x", catalog)

    def test_unknown_column(self, triple_deploy):
        _, catalog = triple_deploy
        with pytest.raises(SQLError):
            plan_sql("SELECT A.missing FROM triples AS A", catalog)

    def test_ambiguous_column(self, triple_deploy):
        _, catalog = triple_deploy
        with pytest.raises(SQLError):
            plan_sql(
                "SELECT subj FROM triples AS A, triples AS B "
                "WHERE A.subj = B.subj",
                catalog,
            )

    def test_cross_product_rejected(self, triple_deploy):
        _, catalog = triple_deploy
        with pytest.raises(SQLError):
            plan_sql(
                "SELECT A.subj FROM triples AS A, triples AS B", catalog
            )

    def test_having_without_group_by(self, triple_deploy):
        _, catalog = triple_deploy
        with pytest.raises(SQLError):
            plan_sql(
                "SELECT A.subj FROM triples AS A HAVING count(*) > 1",
                catalog,
            )

    def test_ungrouped_select_column(self, triple_deploy):
        _, catalog = triple_deploy
        with pytest.raises(SQLError):
            plan_sql(
                "SELECT A.subj, count(*) FROM triples AS A GROUP BY A.obj",
                catalog,
            )

    def test_non_equi_join_rejected(self, triple_deploy):
        _, catalog = triple_deploy
        with pytest.raises(SQLError):
            plan_sql(
                "SELECT A.subj FROM triples AS A, triples AS B "
                "WHERE A.subj != B.subj",
                catalog,
            )

    def test_unqualified_resolution(self, triple_deploy):
        engine, catalog = triple_deploy
        rows = run_sql(
            engine, catalog,
            "SELECT prop, count(*) FROM triples GROUP BY prop",
        )
        assert len(rows) == 40

    def test_missing_string_constant_gives_empty(self, triple_deploy):
        engine, catalog = triple_deploy
        rows = run_sql(
            engine, catalog,
            "SELECT A.subj FROM triples AS A WHERE A.prop = '<nothing>'",
        )
        assert rows == []


class TestColumnColumnConditions:
    def test_non_equi_filter_with_join(self, dataset, triple_deploy):
        """q8-style: join on obj, filter subj pairs apart — expressible now
        that column-column predicates exist."""
        engine, catalog = triple_deploy
        rows = run_sql(
            engine, catalog,
            "SELECT A.subj, B.subj FROM triples AS A, triples AS B "
            "WHERE A.obj = B.obj AND A.prop = '<records>' "
            "AND B.prop = '<records>' AND A.subj != B.subj",
        )
        for a_subj, b_subj in rows:
            assert a_subj != b_subj

    def test_within_relation_column_condition(self, dataset, triple_deploy):
        """Self-referential triples: subject equals object."""
        engine, catalog = triple_deploy
        rows = run_sql(
            engine, catalog,
            "SELECT A.subj FROM triples AS A WHERE A.subj = A.obj",
        )
        expected = sorted(
            (t.s,) for t in dataset.triples if t.s == t.o
        )
        assert rows == expected

    def test_cyclic_join_graph(self, dataset, triple_deploy):
        """A triangle of join conditions: the third edge becomes a
        post-join filter."""
        engine, catalog = triple_deploy
        rows = run_sql(
            engine, catalog,
            "SELECT A.subj FROM triples AS A, triples AS B, triples AS C "
            "WHERE A.subj = B.subj AND B.subj = C.subj "
            "AND C.subj = A.subj AND A.prop = '<type>' "
            "AND B.prop = '<language>' AND C.prop = '<origin>'",
        )
        # Equivalent tree-shaped query gives the same bag.
        tree = run_sql(
            engine, catalog,
            "SELECT A.subj FROM triples AS A, triples AS B, triples AS C "
            "WHERE A.subj = B.subj AND B.subj = C.subj "
            "AND A.prop = '<type>' "
            "AND B.prop = '<language>' AND C.prop = '<origin>'",
        )
        assert rows == tree


class TestSubqueryFold:
    """A FROM subquery binds its alias in its own Projects and keeps only
    the columns the outer statement references — and still returns the
    reference rows on both engines."""

    @pytest.fixture(params=["triple_deploy", "row_triple_deploy"],
                    ids=["column", "row"])
    def deploy(self, request):
        return request.getfixturevalue(request.param)

    def test_unreferenced_columns_are_dropped(self, dataset, deploy):
        engine, catalog = deploy
        sql = (
            "SELECT X.subj, count(*) FROM "
            "(SELECT A.subj, A.prop, A.obj, '<tag>' AS t FROM triples AS A "
            " WHERE A.prop = '<records>') AS X "
            "GROUP BY X.subj"
        )
        plan = plan_sql(sql, catalog)
        assert not any(isinstance(n, Extend) for n in walk(plan))
        projects = [n for n in walk(plan) if isinstance(n, Project)]
        assert projects[-1].mapping == [("X.subj", "A.subj")]
        expected = Counter(t.s for t in dataset.triples if t.p == "<records>")
        assert run_plan(engine, catalog, plan) == sorted(expected.items())

    def test_union_all_branches_are_rebound(self, dataset, deploy):
        engine, catalog = deploy
        sql = (
            "SELECT X.subj FROM "
            "(SELECT subj, '<type>' AS tag, obj FROM triples "
            " UNION ALL SELECT obj, '<records>' AS tag, subj FROM triples) "
            "AS X WHERE X.obj = '<Text>'"
        )
        plan = plan_sql(sql, catalog)
        union = next(n for n in walk(plan) if isinstance(n, Union))
        assert [b.mapping for b in union.inputs] == [
            [("X.subj", "X0.subj"), ("X.obj", "X0.obj")],
            [("X.subj", "X1.obj"), ("X.obj", "X1.subj")],
        ]
        assert not any(isinstance(n, Extend) for n in walk(plan))
        expected = [(t.s,) for t in dataset.triples if t.o == "<Text>"]
        expected += [(t.o,) for t in dataset.triples if t.s == "<Text>"]
        assert run_plan(engine, catalog, plan) == sorted(expected)

    def test_distinct_union_keeps_every_column(self, dataset, deploy):
        """Dropping ``prop`` under UNION would merge a subject's two
        rows into one."""
        engine, catalog = deploy
        sql = (
            "SELECT U.subj FROM "
            "((SELECT A.subj, A.prop FROM triples AS A "
            "  WHERE A.prop = '<type>') "
            " UNION "
            " (SELECT B.subj, B.prop FROM triples AS B "
            "  WHERE B.prop = '<records>')) AS U"
        )
        plan = plan_sql(sql, catalog)
        union = next(n for n in walk(plan) if isinstance(n, Union))
        assert union.output_columns() == ["U.subj", "U.prop"]
        pairs = {
            (t.s, t.p) for t in dataset.triples
            if t.p in ("<type>", "<records>")
        }
        expected = sorted((s,) for s, _ in pairs)
        assert len(set(expected)) < len(expected)
        assert run_plan(engine, catalog, plan) == expected

    def test_nested_subqueries(self, dataset, deploy):
        engine, catalog = deploy
        sql = (
            "SELECT Y.s, Y.o FROM "
            "(SELECT X.subj AS s, X.obj AS o, X.prop AS p FROM "
            " (SELECT A.subj, A.prop, A.obj FROM triples AS A "
            "  WHERE A.prop = '<records>') AS X "
            " WHERE X.obj != '<Text>') AS Y"
        )
        plan = plan_sql(sql, catalog)
        assert plan.child.mapping == [("Y.s", "X.subj"), ("Y.o", "X.obj")]
        expected = sorted(
            (t.s, t.o) for t in dataset.triples
            if t.p == "<records>" and t.o != "<Text>"
        )
        assert run_plan(engine, catalog, plan) == expected
