"""Tests for the SPARQL front-end."""

import pytest

from repro import RDFStore, Var
from repro.errors import ParseError, PlanError
from repro.model.triple import Variable
from repro.sparql import parse_sparql
from repro.sparql.parser import Filter


def sparql(store, text):
    return store.connection().session().query(text).bindings()

DATA = """
<e1> <type> <Text> .
<e1> <language> <fre> .
<e2> <type> <Text> .
<e2> <language> <eng> .
<e3> <type> <Date> .
<e4> <records> <e1> .
"""


@pytest.fixture(
    scope="module", params=["vertical", "triple"], ids=lambda s: s
)
def store(request):
    return RDFStore.from_ntriples(DATA, scheme=request.param)


class TestParser:
    def test_basic_select(self):
        q = parse_sparql("SELECT ?s WHERE { ?s <type> <Text> . }")
        assert q.variables == ["s"]
        assert q.patterns == [(Variable("s"), "<type>", "<Text>")]
        assert not q.distinct and q.limit is None

    def test_select_star(self):
        q = parse_sparql("SELECT * WHERE { ?s ?p ?o }")
        assert q.variables is None

    def test_multiple_patterns(self):
        q = parse_sparql(
            "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <language> ?l . }"
        )
        assert len(q.patterns) == 2

    def test_distinct_and_limit(self):
        q = parse_sparql(
            "SELECT DISTINCT ?s WHERE { ?s ?p ?o } LIMIT 5"
        )
        assert q.distinct and q.limit == 5

    def test_filter_not_equal(self):
        q = parse_sparql(
            "SELECT ?s WHERE { ?s <language> ?l . FILTER(?l != <eng>) }"
        )
        assert q.filters == [Filter("l", "!=", "<eng>")]

    def test_filter_equal_literal(self):
        q = parse_sparql(
            'SELECT ?s WHERE { ?s <Point> ?p . FILTER(?p = "end") }'
        )
        assert q.filters == [Filter("p", "=", '"end"')]

    def test_comments_ignored(self):
        q = parse_sparql(
            "# find texts\nSELECT ?s WHERE { ?s <type> <Text> }"
        )
        assert len(q.patterns) == 1

    def test_literal_terms(self):
        q = parse_sparql('SELECT ?s WHERE { ?s <Point> "end" }')
        assert q.patterns[0][2] == '"end"'

    @pytest.mark.parametrize(
        "bad",
        [
            "WHERE { ?s ?p ?o }",
            "SELECT WHERE { ?s ?p ?o }",
            "SELECT ?s { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s ?p }",
            "SELECT ?s WHERE { ?s ?p ?o ",
            "SELECT ?s WHERE { ?s ?p ?o } garbage",
            "SELECT ?s WHERE { FILTER(?s ~ <x>) }",
            "SELECT ?s WHERE { FILTER(<x> = ?s) }",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ParseError):
            parse_sparql(bad)


class TestExecution:
    def test_single_pattern(self, store):
        got = sparql(store, "SELECT ?s WHERE { ?s <type> <Text> }")
        assert sorted(b["s"] for b in got) == ["<e1>", "<e2>"]

    def test_join(self, store):
        got = sparql(
            store,
            "SELECT ?s ?l WHERE { ?s <type> <Text> . ?s <language> ?l }"
        )
        assert sorted((b["s"], b["l"]) for b in got) == [
            ("<e1>", "<fre>"), ("<e2>", "<eng>"),
        ]

    def test_filter(self, store):
        got = sparql(
            store,
            "SELECT ?s WHERE { ?s <type> <Text> . ?s <language> ?l . "
            "FILTER(?l != <eng>) }"
        )
        assert [b["s"] for b in got] == ["<e1>"]

    def test_filter_on_nonprojected_variable(self, store):
        """The filtered variable need not be selected."""
        got = sparql(
            store,
            "SELECT ?s WHERE { ?s <language> ?l . FILTER(?l = <fre>) }"
        )
        assert [b["s"] for b in got] == ["<e1>"]

    def test_select_star_returns_all_variables(self, store):
        got = sparql(store, "SELECT * WHERE { ?a <records> ?b }")
        assert got == [{"a": "<e4>", "b": "<e1>"}]

    def test_distinct(self, store):
        got = sparql(store, "SELECT DISTINCT ?t WHERE { ?s <type> ?t }")
        assert sorted(b["t"] for b in got) == ["<Date>", "<Text>"]

    def test_limit(self, store):
        got = sparql(store, "SELECT ?s WHERE { ?s <type> ?t } LIMIT 2")
        assert len(got) == 2

    def test_property_variable(self, store):
        got = sparql(store, "SELECT ?p WHERE { <e1> ?p ?o }")
        assert sorted(b["p"] for b in got) == ["<language>", "<type>"]

    def test_filter_unknown_variable_rejected(self, store):
        with pytest.raises(PlanError):
            sparql(
                store,
                "SELECT ?s WHERE { ?s <type> ?t . FILTER(?zz = <x>) }"
            )

    def test_agrees_with_solve(self, store):
        queried = sparql(
            store,
            "SELECT ?s ?t WHERE { ?s <type> ?t }"
        )
        solved = store.connection().session().solve(
            [(Var("s"), "<type>", Var("t"))], projection=["s", "t"]
        )
        key = lambda b: sorted(b.items())
        assert sorted(queried, key=key) == sorted(solved, key=key)

    def test_missing_constant_gives_empty(self, store):
        assert sparql(store, "SELECT ?s WHERE { ?s <ghost> ?o }") == []
