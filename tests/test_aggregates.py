"""Tests for MIN/MAX aggregates across the stack.

With order-preserving dictionary encoding, integer min/max on encoded
columns realizes lexicographic string min/max — so aggregate answers decode
to meaningful strings.
"""

import numpy as np
import pytest

from repro import RDFStore
from repro.colstore import ColumnStoreEngine
from repro.colstore.vectorops import group_aggregate, group_count
from repro.errors import PlanError
from repro.plan import GroupBy, Scan
from repro.rowstore import RowStoreEngine


def sql(store, text):
    return store.connection().session().query(text).rows

NT = """
<a> <score> "1" .
<b> <score> "5" .
<c> <score> "3" .
<a> <type> <Text> .
<b> <type> <Text> .
<c> <type> <Date> .
<a> <tag> "x" .
"""


def engines():
    data = {
        "k": np.array([1, 1, 2, 2, 2]),
        "v": np.array([30, 10, 20, 50, 40]),
    }
    col = ColumnStoreEngine()
    col.create_table("t", data, sort_by=["k"])
    row = RowStoreEngine()
    row.create_table("t", data, sort_by=["k"])
    return col, row


class TestVectorOps:
    def test_group_aggregate_min_max(self):
        keys = [np.array([2, 1, 2, 1])]
        values = np.array([9, 4, 3, 8])
        assert group_aggregate(keys, values, "min").tolist() == [4, 3]
        assert group_aggregate(keys, values, "max").tolist() == [8, 9]

    def test_alignment_with_group_count(self):
        keys = [np.array([3, 1, 3, 2, 1])]
        values = np.array([10, 20, 30, 40, 50])
        (k,), counts = group_count(keys)
        mins = group_aggregate(keys, values, "min")
        assert dict(zip(k.tolist(), mins.tolist())) == {1: 20, 2: 40, 3: 10}

    def test_empty(self):
        assert len(group_aggregate([np.array([], dtype=np.int64)],
                                   np.array([], dtype=np.int64), "min")) == 0


class TestGroupByNode:
    def test_validates_aggregate_function(self):
        with pytest.raises(PlanError):
            GroupBy(
                Scan("t", ["k", "v"]), keys=["k"],
                aggregates=[("sum", "v", "s")],
            )

    def test_validates_duplicate_output(self):
        with pytest.raises(PlanError):
            GroupBy(
                Scan("t", ["k", "v"]), keys=["k"],
                aggregates=[("min", "v", "count")],
            )

    def test_output_columns(self):
        g = GroupBy(
            Scan("t", ["k", "v"]), keys=["k"], count_column="n",
            aggregates=[("min", "v", "lo"), ("max", "v", "hi")],
        )
        assert g.output_columns() == ["k", "n", "lo", "hi"]


class TestEngines:
    @pytest.mark.parametrize("which", ["col", "row"])
    def test_keyed_min_max(self, which):
        col, row = engines()
        engine = col if which == "col" else row
        plan = GroupBy(
            Scan("t", ["k", "v"]), keys=["k"], count_column="n",
            aggregates=[("min", "v", "lo"), ("max", "v", "hi")],
        )
        rel = engine.execute(plan)
        rows = dict(
            (k, (n, lo, hi))
            for k, n, lo, hi in rel.to_tuples(order=["k", "n", "lo", "hi"])
        )
        assert rows == {1: (2, 10, 30), 2: (3, 20, 50)}

    @pytest.mark.parametrize("which", ["col", "row"])
    def test_global_min_max(self, which):
        col, row = engines()
        engine = col if which == "col" else row
        plan = GroupBy(
            Scan("t", ["k", "v"]), keys=[], count_column="n",
            aggregates=[("min", "v", "lo"), ("max", "v", "hi")],
        )
        rel = engine.execute(plan)
        assert rel.to_tuples(order=["n", "lo", "hi"]) == [(5, 10, 50)]

    def test_engines_agree(self):
        col, row = engines()
        plan = GroupBy(
            Scan("t", ["k", "v"]), keys=["k"], count_column="n",
            aggregates=[("max", "v", "hi")],
        )
        assert col.execute(plan).sorted_tuples(
            order=plan.output_columns()
        ) == row.execute(plan).sorted_tuples(order=plan.output_columns())


class TestSQL:
    @pytest.fixture(params=["triple", "vertical"])
    def store(self, request):
        return RDFStore.from_ntriples(NT, scheme=request.param)

    def test_min_max_with_group(self):
        store = RDFStore.from_ntriples(NT, scheme="triple")
        rows = sql(
            store,
            "SELECT A.prop, count(*), min(A.obj), max(A.obj) "
            "FROM triples AS A GROUP BY A.prop ORDER BY A.prop"
        )
        as_dict = {r[0]: r[1:] for r in rows}
        assert as_dict["<score>"] == (3, '"1"', '"5"')
        assert as_dict["<type>"] == (3, "<Date>", "<Text>")
        assert as_dict["<tag>"] == (1, '"x"', '"x"')

    def test_global_aggregate(self):
        store = RDFStore.from_ntriples(NT, scheme="triple")
        rows = sql(
            store,
            "SELECT min(A.obj) FROM triples AS A "
            "WHERE A.prop = '<score>'"
        )
        assert rows == [('"1"',)]

    def test_aggregate_alias(self):
        store = RDFStore.from_ntriples(NT, scheme="triple")
        rows = sql(
            store,
            "SELECT max(A.obj) AS top FROM triples AS A "
            "WHERE A.prop = '<score>'"
        )
        assert rows == [('"5"',)]

    def test_serializer_round_trip(self):
        from repro.sql import parse_sql

        text = (
            "SELECT A.prop, min(A.obj) AS lo FROM triples AS A "
            "GROUP BY A.prop"
        )
        stmt = parse_sql(text)
        assert parse_sql(stmt.sql()) == stmt

    def test_decoded_as_strings(self):
        """min/max outputs are oid columns: they decode to strings."""
        store = RDFStore.from_ntriples(NT, scheme="triple")
        rows = sql(
            store,
            "SELECT min(A.subj) FROM triples AS A WHERE A.prop = '<type>'"
        )
        assert rows == [("<a>",)]
