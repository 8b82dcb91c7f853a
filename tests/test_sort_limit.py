"""Tests for ORDER BY / LIMIT: logical nodes, both engines, SQL layer."""

import numpy as np
import pytest

from repro.colstore import ColumnStoreEngine
from repro.errors import PlanError, SQLError
from repro.plan import Comparison, GroupBy, Limit, Scan, Select, Sort
from repro.rowstore import RowStoreEngine
from repro.sql import parse_sql, plan_sql
from repro import RDFStore


def sql(store, text):
    return store.connection().session().query(text).rows


def engines():
    data = {
        "subj": np.array([3, 1, 2, 1, 3]),
        "prop": np.array([7, 7, 8, 8, 9]),
        "obj": np.array([30, 10, 20, 40, 50]),
    }
    col = ColumnStoreEngine()
    col.create_table("t", data, sort_by=["prop", "subj", "obj"])
    row = RowStoreEngine()
    row.create_table("t", data, sort_by=["prop", "subj", "obj"])
    return col, row


def scan():
    return Scan("t", ["subj", "prop", "obj"])


class TestLogicalNodes:
    def test_sort_validates_direction(self):
        with pytest.raises(PlanError):
            Sort(scan(), [("subj", "up")])

    def test_sort_validates_columns(self):
        with pytest.raises(PlanError):
            Sort(scan(), [("nope", "asc")])

    def test_sort_needs_keys(self):
        with pytest.raises(PlanError):
            Sort(scan(), [])

    def test_limit_rejects_negative(self):
        with pytest.raises(PlanError):
            Limit(scan(), -1)

    def test_passthrough_columns(self):
        assert Sort(scan(), [("subj", "asc")]).output_columns() == [
            "subj", "prop", "obj",
        ]
        assert Limit(scan(), 2).output_columns() == ["subj", "prop", "obj"]


class TestEngineExecution:
    @pytest.mark.parametrize("which", ["col", "row"])
    def test_sort_ascending(self, which):
        col, row = engines()
        engine = col if which == "col" else row
        plan = Sort(scan(), [("obj", "asc")])
        rel = engine.execute(plan)
        assert rel.column("obj").tolist() == [10, 20, 30, 40, 50]

    @pytest.mark.parametrize("which", ["col", "row"])
    def test_sort_descending(self, which):
        col, row = engines()
        engine = col if which == "col" else row
        plan = Sort(scan(), [("obj", "desc")])
        rel = engine.execute(plan)
        assert rel.column("obj").tolist() == [50, 40, 30, 20, 10]

    @pytest.mark.parametrize("which", ["col", "row"])
    def test_multi_key_mixed_directions(self, which):
        col, row = engines()
        engine = col if which == "col" else row
        plan = Sort(scan(), [("subj", "asc"), ("obj", "desc")])
        rel = engine.execute(plan)
        rows = list(zip(rel.column("subj").tolist(), rel.column("obj").tolist()))
        assert rows == [(1, 40), (1, 10), (2, 20), (3, 50), (3, 30)]

    @pytest.mark.parametrize("which", ["col", "row"])
    def test_limit(self, which):
        col, row = engines()
        engine = col if which == "col" else row
        plan = Limit(Sort(scan(), [("obj", "asc")]), 2)
        rel = engine.execute(plan)
        assert rel.column("obj").tolist() == [10, 20]

    @pytest.mark.parametrize("which", ["col", "row"])
    def test_limit_zero_and_overshoot(self, which):
        col, row = engines()
        engine = col if which == "col" else row
        assert engine.execute(Limit(scan(), 0)).n_rows == 0
        assert engine.execute(Limit(scan(), 100)).n_rows == 5

    def test_engines_agree_on_sorted_output_order(self):
        col, row = engines()
        plan = Sort(
            Select(scan(), [Comparison("prop", "!=", 9)]),
            [("obj", "desc")],
        )
        assert (
            col.execute(plan).to_tuples()
            == row.execute(plan).to_tuples()
        )


class TestSQLOrderLimit:
    NT = """
    <a> <score> "3" .
    <b> <score> "1" .
    <c> <score> "2" .
    <a> <type> <Text> .
    <b> <type> <Text> .
    <c> <type> <Date> .
    """

    def test_parse_order_by(self):
        stmt = parse_sql(
            "SELECT A.obj FROM t AS A ORDER BY A.obj DESC LIMIT 3"
        )
        assert stmt.order_by[0].direction == "desc"
        assert stmt.limit == 3

    def test_parse_order_by_count_star(self):
        stmt = parse_sql(
            "SELECT A.obj, count(*) FROM t AS A GROUP BY A.obj "
            "ORDER BY count(*) DESC"
        )
        assert stmt.order_by[0].column.name == "count"

    def test_serializer_round_trip(self):
        text = (
            "SELECT A.obj, count(*) FROM t AS A GROUP BY A.obj "
            "ORDER BY count(*) DESC, A.obj ASC LIMIT 10"
        )
        stmt = parse_sql(text)
        assert parse_sql(stmt.sql()) == stmt

    def test_end_to_end_order_and_limit(self):
        store = RDFStore.from_ntriples(self.NT, scheme="triple")
        rows = sql(
            store,
            "SELECT A.subj, A.obj FROM triples AS A "
            "WHERE A.prop = '<score>' ORDER BY A.obj ASC LIMIT 2"
        )
        assert rows == [("<b>", '"1"'), ("<c>", '"2"')]

    def test_order_by_output_alias(self):
        store = RDFStore.from_ntriples(self.NT, scheme="triple")
        rows = sql(
            store,
            "SELECT A.obj AS score FROM triples AS A "
            "WHERE A.prop = '<score>' ORDER BY score DESC"
        )
        assert rows == [('"3"',), ('"2"',), ('"1"',)]

    def test_order_by_count_end_to_end(self):
        store = RDFStore.from_ntriples(self.NT, scheme="triple")
        rows = sql(
            store,
            "SELECT A.obj, count(*) FROM triples AS A "
            "WHERE A.prop = '<type>' GROUP BY A.obj "
            "ORDER BY count(*) DESC LIMIT 1"
        )
        assert rows == [("<Text>", 2)]

    def test_order_by_unknown_column_rejected(self):
        store = RDFStore.from_ntriples(self.NT, scheme="triple")
        with pytest.raises(SQLError):
            sql(
                store,
                "SELECT A.subj FROM triples AS A ORDER BY A.nothere"
            )
