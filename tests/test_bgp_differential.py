"""Differential testing of the one scheme mapping.

Every front end writes triple-schema patterns, and one rewrite places them
on the deployed scheme.  Hypothesis generates small random graphs and
random tree-shaped basic graph patterns; each BGP is answered on the
triple, vertical and property-table schemes, on both engines, twice —
through ``bgp_plan`` and as its triple-schema SQL text through
``plan_sql`` — and every answer must equal the naive ``RDFGraph.solve``
reference.  Fixed cases run the appendix texts, the ad-hoc shapes, and
properties and constants the store does not hold the same way.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Var
from repro.colstore import ColumnStoreEngine
from repro.core.bgp import bgp_plan, bgp_statement
from repro.data import generate_barton
from repro.errors import PlanError
from repro.model import RDFGraph, Triple
from repro.queries import ALL_QUERY_NAMES, reference_answer
from repro.rowstore import RowStoreEngine
from repro.sparql import parse_sparql
from repro.sparql.executor import sparql_plan
from repro.sql import APPENDIX_SQL, generate_vertical_sql, plan_sql
from repro.storage import (
    build_property_table_store,
    build_triple_store,
    build_vertical_store,
)

SUBJECTS = [f"<s{i}>" for i in range(4)]
PROPERTIES = [f"<p{i}>" for i in range(3)]
OBJECTS = ["<s0>", "<s1>", "<o0>", "<o1>"]  # overlap with subjects

#: Every (engine, scheme) a builder exists for.
CELLS = [
    (engine, scheme)
    for engine in (ColumnStoreEngine, RowStoreEngine)
    for scheme in (build_triple_store, build_vertical_store,
                   build_property_table_store)
]

triples_strategy = st.lists(
    st.tuples(
        st.sampled_from(SUBJECTS),
        st.sampled_from(PROPERTIES),
        st.sampled_from(OBJECTS),
    ),
    min_size=1,
    max_size=20,
)


@st.composite
def tree_bgps(draw):
    """A connected, tree-shaped BGP of 1-3 patterns."""
    n_patterns = draw(st.integers(1, 3))
    variables = ["a", "b", "c", "d"]
    patterns = []
    used_vars = []

    def term(position, must_include=None):
        if must_include is not None and draw(st.booleans()):
            return Var(must_include)
        choice = draw(st.integers(0, 2))
        if choice == 0:
            pool = {
                "s": SUBJECTS, "p": PROPERTIES, "o": OBJECTS,
            }[position]
            return draw(st.sampled_from(pool))
        name = draw(st.sampled_from(variables))
        used_vars.append(name)
        return Var(name)

    for i in range(n_patterns):
        connector = None
        if i > 0 and used_vars:
            connector = draw(st.sampled_from(sorted(set(used_vars))))
        # Ensure connectivity: put the connector somewhere in the pattern.
        s = term("s")
        p = term("p")
        o = term("o")
        if connector is not None:
            slot = draw(st.integers(0, 2))
            replacement = Var(connector)
            s, p, o = [
                replacement if j == slot else t
                for j, t in enumerate((s, p, o))
            ]
            used_vars.append(connector)
        for t in (s, p, o):
            if isinstance(t, Var):
                used_vars.append(t.name)
        patterns.append((s, p, o))
    return patterns


def _is_connected(patterns):
    if len(patterns) <= 1:
        return True
    sets = []
    for pattern in patterns:
        sets.append({t.name for t in pattern if isinstance(t, Var)})
    joined = sets[0].copy()
    remaining = sets[1:]
    while remaining:
        for s in list(remaining):
            if s & joined:
                joined |= s
                remaining.remove(s)
                break
        else:
            return False
    return True


def deploy(triples, interesting):
    """``(label, engine, catalog)`` for every cell."""
    deployed = []
    for engine_cls, build in CELLS:
        engine = engine_cls()
        catalog = build(engine, triples, interesting)
        deployed.append((f"{engine.kind}/{catalog.scheme}", engine, catalog))
    return deployed


def rows(engine, catalog, plan, order=None):
    relation = engine.execute(plan)
    order = plan.output_columns() if order is None else order
    return sorted(relation.decoded_tuples(catalog.dictionary, order=order))


def answers(engine, catalog, patterns, variables):
    """The BGP's rows through ``bgp_plan`` and through its SQL text."""
    plan, _ = bgp_plan(catalog, patterns, variables)
    text = bgp_statement(patterns, variables)[0].sql()
    return (rows(engine, catalog, plan),
            rows(engine, catalog, plan_sql(text, catalog, lint="off")))


def canon(bindings, variables):
    return sorted(tuple(b.get(v) for v in variables) for b in bindings)


@settings(deadline=None, max_examples=40)
@given(raw_triples=triples_strategy, bgp=tree_bgps())
def test_bgp_matches_reference(raw_triples, bgp):
    if not _is_connected(bgp):
        return
    triples = [Triple(*t) for t in raw_triples]
    expected = RDFGraph(triples).solve(bgp)
    variables = sorted(
        {t.name for pattern in bgp for t in pattern if isinstance(t, Var)}
    )
    # Cluster one of the properties present: the others are leftover
    # rows only, so both property-table paths are exercised.
    interesting = sorted({t.p for t in triples})[:1]
    for label, engine, catalog in deploy(triples, interesting):
        via_bgp, via_sql = answers(engine, catalog, bgp, variables)
        if variables:
            assert via_bgp == canon(expected, variables), label
        else:  # an existence check: one row per match
            assert len(via_bgp) == len(expected), label
        assert via_sql == via_bgp, label


# ----------------------------------------------------------------------
# fixed cases on a generated dataset
# ----------------------------------------------------------------------

#: The four text shapes of perfbench's ``adhoc_frontend``.
ADHOC_TEXTS = {
    "sparql_describe": "SELECT ?p ?o WHERE { <entity/3> ?p ?o }",
    "sql_describe": (
        "SELECT A.prop, A.obj FROM triples AS A WHERE A.subj = '<entity/3>'"
    ),
    "sql_class_union": (
        "SELECT B.subj, B.prop FROM triples AS A, triples AS B "
        "WHERE A.prop = '<type>' AND A.obj = '<Text>' AND A.subj = B.subj"
    ),
    "sql_two_property": (
        "SELECT A.subj, B.obj FROM triples AS A, triples AS B "
        "WHERE A.prop = '<type>' AND B.prop = '<language>' "
        "AND A.subj = B.subj"
    ),
}


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=3_000, n_properties=40, seed=42)


@pytest.fixture(scope="module")
def cells(dataset):
    return deploy(dataset.triples, dataset.interesting_properties)


def run_text(engine, catalog, text):
    if "{" in text:
        plan, names = sparql_plan(catalog, parse_sparql(text))
        return rows(engine, catalog, plan, names)
    return rows(engine, catalog, plan_sql(text, catalog))


@pytest.mark.parametrize("name", ALL_QUERY_NAMES)
def test_appendix_text_answers_on_every_scheme(dataset, cells, name):
    expected = reference_answer(
        dataset.graph(), name, dataset.interesting_properties
    )
    for label, engine, catalog in cells:
        assert run_text(engine, catalog, APPENDIX_SQL[name]) == expected, (
            label
        )


@pytest.mark.parametrize("kind", sorted(ADHOC_TEXTS))
def test_adhoc_shape_answers_on_every_scheme(cells, kind):
    answers_by_cell = {
        label: run_text(engine, catalog, ADHOC_TEXTS[kind])
        for label, engine, catalog in cells
    }
    expected = answers_by_cell["column-store/triple"]
    assert expected, kind  # the shape selects something on this dataset
    assert all(got == expected for got in answers_by_cell.values()), (
        {label: len(got) for label, got in answers_by_cell.items()}
    )


@pytest.mark.parametrize("pattern", [
    (Var("s"), "<ghost>", Var("o")),           # no such string
    (Var("s"), "<Text>", Var("o")),            # a string, not a property
    (Var("s"), "<type>", "<ghost>"),           # unknown constant
    (Var("s"), Var("p"), "<ghost>"),           # under an unbound property
], ids=["unknown-property", "object-as-property", "unknown-constant",
        "unknown-constant-unbound"])
def test_what_the_store_does_not_hold_answers_nothing(cells, pattern):
    variables = sorted(t.name for t in pattern if isinstance(t, Var))
    for label, engine, catalog in cells:
        assert answers(engine, catalog, [pattern], variables) == ([], []), (
            label
        )


def test_property_table_answers_triple_schema_text(cells):
    """Regression: ``triples`` once resolved to the property-table
    store's leftover table, so a bound ``<type>`` answered 0 rows."""
    text = "SELECT A.subj FROM triples AS A WHERE A.prop = '<type>'"
    counts = {
        label: len(run_text(engine, catalog, text))
        for label, engine, catalog in cells
    }
    assert len(set(counts.values())) == 1 and counts[
        "column-store/property_table"] > 0, counts


def test_property_table_plans_a_bgp(cells):
    """Regression: ``bgp_plan`` on a property-table catalog once raised
    a bare ``StopIteration`` (it looked for vertical tables)."""
    for label, engine, catalog in cells:
        plan, _ = bgp_plan(catalog, [(Var("s"), "<type>", "<Text>")])
        assert rows(engine, catalog, plan), label


def test_a_disconnected_bgp_is_a_plan_error(cells):
    patterns = [(Var("a"), "<type>", Var("b")),
                (Var("c"), "<type>", Var("d"))]
    for _, _, catalog in cells:
        with pytest.raises(PlanError, match="not connected"):
            bgp_plan(catalog, patterns)


#: Terms with a quote in them, and the SQL that names them (``''`` is
#: one quote in a SQL literal).
QUOTED = [
    Triple("<s0>", "<p'q>", "<o'2>"),
    Triple("<s1>", "<p'q>", "<o1>"),
    Triple("<s1>", "<p>", "<o'2>"),
    Triple("<s2>", "<p>", "<o1>"),
]
QUOTED_TEXTS = [
    ("SELECT ?s ?o WHERE { ?s <p'q> ?o }",
     "SELECT A.subj, A.obj FROM triples AS A WHERE A.prop = '<p''q>'"),
    ("SELECT ?s ?p WHERE { ?s ?p <o'2> }",
     "SELECT A.subj, A.prop FROM triples AS A WHERE A.obj = '<o''2>'"),
    ("SELECT ?p ?o WHERE { <s1> ?p ?o }",
     "SELECT A.prop, A.obj FROM triples AS A WHERE A.subj = '<s1>'"),
]


@pytest.mark.parametrize("sparql, sql", QUOTED_TEXTS)
def test_a_quote_in_a_term_answers_the_same_through_every_front_end(
    sparql, sql
):
    """SPARQL, triple-schema SQL and — on the vertical scheme — the
    generated text (whose property union carries ``'<p''q>'``) agree on
    every scheme and engine."""
    answers_by_cell = {}
    for label, engine, catalog in deploy(QUOTED, ["<p'q>"]):
        via_sparql = run_text(engine, catalog, sparql)
        assert run_text(engine, catalog, sql) == via_sparql, label
        if catalog.is_vertical():
            generated = generate_vertical_sql(sql, catalog)
            assert run_text(engine, catalog, generated) == via_sparql, label
        answers_by_cell[label] = via_sparql
    answers = list(answers_by_cell.values())
    assert answers[0] and all(got == answers[0] for got in answers), (
        answers_by_cell
    )
