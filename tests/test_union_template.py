"""A template union is its expansion.

A :class:`~repro.plan.logical.Union` built from one template branch and
per-branch bindings is read once by the planner, the linter, lowering and
the column store's union kernel; everything else sees its expansion,
``union.inputs``.  The differential below builds random template unions —
branch counts, branch shapes (with and without a selection, a missing
constant, equality on both sort columns, a column-to-column predicate,
an Extend, alias-qualified outputs), UNION and UNION ALL — and requires
every observable answer to equal that of ``Union(list(u.inputs))``, the
same branches as a plain list.  On the column store that is the union
kernel against generic dispatch of every branch: rows, cost documents,
pool statistics and compression counts, cold and warm, raw and
compressed, serial and on 64-row morsels.  The hot-path tests pin that
an ad-hoc query never builds the expansion at all.
"""

import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.api as api
from repro.analysis import lint_physical_plan, lint_plan
from repro.analysis.provenance import PlanFacts
from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.errors import PlanError
from repro.exec import lower_plan
from repro.observe import counters
from repro.plan import (
    ColumnComparison,
    Comparison,
    Extend,
    GroupBy,
    Join,
    Project,
    Scan,
    Select,
    Union,
    count_operators,
)
from repro.plan import logical as L
from repro.plan.render import render_physical_plan, render_plan
from repro.rowstore import RowStoreEngine
from repro.sql import generate_vertical_sql

#: Five (subj, obj)-sorted tables, one empty, over small value domains so
#: that constants in ``[-1, 30]`` may or may not match.
TABLES = {
    f"t{i}": (np.random.default_rng(i).integers(0, 20, n),
              np.random.default_rng(i + 9).integers(0, 30, n))
    for i, n in enumerate((0, 6, 25, 60, 110))
}

_constants = st.one_of(st.integers(-1, 30), st.none())


@pytest.fixture(scope="module")
def engines():
    engines = [RowStoreEngine()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_MORSEL_ROWS", "64")
        for compression in (None, "physical"):
            for workers in (1, 4):
                engines.append(ColumnStoreEngine(
                    compression=compression, workers=workers,
                ))
    for engine in engines:
        for name, (subj, obj) in TABLES.items():
            engine.create_table(
                name, {"subj": subj, "obj": obj}, sort_by=["subj", "obj"]
            )
    return engines


@st.composite
def template_cases(draw):
    """``(plan over a template union, the union)``.  The template is a
    Project over an optional Extend over an optional Select over a Scan;
    its selections include deliberately bad ones (a contradiction, a
    missing constant) so that findings inside the template occur."""
    n = draw(st.integers(1, 6))
    tables = draw(st.lists(st.sampled_from(sorted(TABLES)), min_size=n,
                           max_size=n))
    subj, obj, tag = "B0.subj", "B0.obj", "B0.tag"
    node = Scan(tables[0], ["subj", "obj"], alias="B0")
    # The union kernel's two data planes (plain, selecting) twice as
    # often as each shape it shares with the front end only.
    kind = draw(st.sampled_from([
        "plain", "plain", "select", "select", "point", "contradiction",
        "missing", "cross",
    ]))
    if kind == "select":
        node = Select(node, draw(st.lists(
            st.builds(Comparison, st.sampled_from([subj, obj]),
                      st.sampled_from(["=", "!=", "<", ">="]), _constants),
            min_size=1, max_size=3,
        )))
    elif kind == "point":
        node = Select(node, [Comparison(subj, "=", draw(_constants)),
                             Comparison(obj, "=", draw(_constants))])
    elif kind == "contradiction":
        node = Select(node, [Comparison(subj, "=", 3),
                             Comparison(subj, "=", 4)])
    elif kind == "missing":
        node = Select(node, [Comparison(obj, "=", None)])
    elif kind == "cross":
        node = Select(node, [ColumnComparison(
            subj, draw(st.sampled_from(["<", "!=", "="])), obj)])
    sources = [subj, obj]
    extended = draw(st.booleans())
    if extended:
        values = draw(st.one_of(
            st.lists(_constants, min_size=n, max_size=n),
            _constants.map(lambda v: [v] * n),  # one value: a pinned column
        ))
        node = Extend(node, tag, values[0])
        sources.append(tag)
    else:
        values = [None] * n
    # Output names either shared by every branch or qualified by the
    # branch's alias (the "shadowed names" finding).
    qualified = draw(st.booleans())
    names = ["B0.x", "B0.y"] if qualified else ["x", "y"]
    mapping = [(names[0], draw(st.sampled_from(sources))),
               (names[1], draw(st.sampled_from(sources)))]
    template = Project(node, mapping)
    union = Union(
        distinct=draw(st.booleans()), template=template,
        bindings=[(tables[i], f"B{i}", values[i]) for i in range(n)],
    )
    keep = draw(st.sampled_from([names[:1], names[1:], names]))
    above = draw(st.sampled_from(["project", "project", "select", "join"]))
    if above == "select":
        plan = Select(union, [Comparison(names[0], ">", 2)])
    elif above == "join":
        other = Scan("t4", ["subj", "obj"], alias="J")
        plan = Join(union, other, on=[(names[0], "J.subj")])
    else:
        plan = union
    return Project(plan, [(f"out{i}", c) for i, c in enumerate(keep)]), union


def expanded(plan, union):
    """*plan* with *union* replaced by ``Union(list(union.inputs))``."""
    plain = Union(list(union.inputs), distinct=union.distinct)

    def rebuild(node):
        if node is union:
            return plain
        if isinstance(node, Project):
            return Project(rebuild(node.child), node.mapping)
        if isinstance(node, Select):
            return Select(rebuild(node.child), node.predicates)
        if isinstance(node, Join):
            return Join(rebuild(node.left), node.right, node.on)
        raise AssertionError(node)

    return rebuild(plan)


def facts_records(plan):
    """Every PlanFacts answer for every node, pre-order."""
    facts = PlanFacts(plan)
    records = []
    for node in facts.nodes():
        parent = facts.parent(node)
        records.append([
            facts.path(node), repr(node),
            None if parent is None else facts.path(parent),
            sorted(facts.constants_of(node).items(), key=repr),
            [[c, facts.domain(node, c)] for c in node.output_columns()],
            sorted(facts.consumed_of(node)),
        ])
        if isinstance(node, Union):
            records.append([facts.input_domains_of(node),
                            facts.input_columns_of(node)])
    return hashlib.sha256(
        json.dumps(records, default=repr).encode()
    ).hexdigest()


def operator_tree(pnode):
    return (pnode.name, [operator_tree(c) for c in pnode.children])


def executed(engine, plan):
    """Rows and cost document of a cold run and of the warm run after it,
    and their pool-statistics and compression-count deltas."""
    engine.make_cold()
    pool = engine.pool.stats()
    compression = counters.snapshot("compression")
    runs = []
    for _ in range(2):
        relation, timing = engine.run(plan)
        runs.append((
            {n: relation.column(n).tolist() for n in relation.columns},
            timing.to_dict(),
        ))
    return runs, {
        k: v - pool[k] for k, v in engine.pool.stats().items()
    }, {
        k: v - compression[k]
        for k, v in counters.snapshot("compression").items()
    }


def memoised(engine, plan):
    """``executed(engine, plan)``, and whether the run put a plan in the
    column store's template-union memo (its union kernel ran)."""
    resolved = engine.executor().resolved
    resolved.pop("unions", None)
    result = executed(engine, plan)
    return result, bool(resolved.get("unions"))


def canonical(union):
    """Whether the union kernel takes *union*: its template selects with
    simple predicates only."""
    return not any(
        type(node) is Select and any(
            type(p) is ColumnComparison for p in node.predicates
        )
        for node in L.template_chain(union.template)
    )


class TestTemplateEqualsExpansion:
    @settings(max_examples=200)
    @given(case=template_cases())
    def test_every_answer_equals_the_expansions(self, engines, case):
        plan, union = case
        # The front end's answers, asked before anything expands.
        lints = lint_plan(plan)
        operators = count_operators(plan)
        facts = facts_records(plan)
        oracle = expanded(plan, union)
        assert lints == lint_plan(oracle)
        assert operators == count_operators(oracle)
        assert facts == facts_records(oracle)
        assert render_plan(plan, max_union_branches=sys.maxsize) == \
            render_plan(oracle, max_union_branches=sys.maxsize)
        for engine_key in ("column-store", "row-store"):
            assert operator_tree(lower_plan(plan, engine_key)) == \
                operator_tree(lower_plan(oracle, engine_key))
        for engine in engines:
            physical = lower_plan(plan, engine.kind, instance=engine)
            reference = lower_plan(oracle, engine.kind, instance=engine)
            assert operator_tree(physical) == operator_tree(reference)
            assert render_physical_plan(physical, sys.maxsize) == \
                render_physical_plan(reference, sys.maxsize)
            assert lint_physical_plan(physical) == \
                lint_physical_plan(reference)
            if engine.kind == "column-store":
                got, kernel = memoised(engine, plan)
                want, generic = memoised(engine, oracle)
                assert (kernel, generic) == (canonical(union), False)
            else:
                got, want = executed(engine, plan), executed(engine, oracle)
            assert got == want

    def test_findings_inside_a_template_name_each_branch(self):
        template = Project(
            Select(Scan("t1", ["subj", "obj"], alias="B0"),
                   [Comparison("B0.subj", "=", 3),
                    Comparison("B0.subj", "=", 4)]),
            [("x", "B0.subj")],
        )
        union = Union(distinct=False, template=template, bindings=[
            ("t1", "B0", None), ("t2", "B1", None), ("t3", "B2", None),
        ])
        found = [
            (d.rule, d.path) for d in lint_plan(union)
            if d.rule == "unsatisfiable-filter"
        ]
        assert found == [
            ("unsatisfiable-filter", f"$.inputs[{i}].child")
            for i in range(3)
        ]


class TestTemplateConstruction:
    def scan(self, alias="B0", table="t1"):
        return Scan(table, ["subj", "obj"], alias=alias)

    def test_branch_zero_is_the_template(self):
        template = Project(Extend(self.scan(), "B0.p", 7),
                           [("s", "B0.subj"), ("p", "B0.p")])
        union = Union(distinct=False, template=template, bindings=[
            ("t1", "B0", 7), ("t2", "B1", 8),
        ])
        assert union.n_inputs == 2 and "_inputs" not in vars(union)
        first, second = union.inputs
        assert first is template
        assert render_plan(second) == (
            "Project B1.subj AS s, B1.p AS p\n"
            "  Extend B1.p = 8\n"
            "    Scan t2 AS B1 [subj, obj]"
        )
        assert union.inputs is union.inputs  # built once

    @pytest.mark.parametrize("template, bindings", [
        # the first binding must be the template's own
        (Project(Scan("t1", ["subj"], alias="B0"), [("s", "B0.subj")]),
         [("t2", "B0", None)]),
        # no value to bind without an Extend
        (Project(Scan("t1", ["subj"], alias="B0"), [("s", "B0.subj")]),
         [("t1", "B0", None), ("t2", "B1", 3)]),
        # not a Project/Extend/Select chain over a Scan
        (GroupBy(Scan("t1", ["subj"], alias="B0"), keys=["B0.subj"]),
         [("t1", "B0", None)]),
        # a column already named after another binding's alias
        (Project(Scan("t1", ["subj"], alias="B0"), [("B1.s", "B0.subj")]),
         [("t1", "B0", None), ("t2", "B1", None)]),
    ])
    def test_malformed_templates_are_refused(self, template, bindings):
        with pytest.raises(PlanError):
            Union(distinct=False, template=template, bindings=bindings)


# ---------------------------------------------------------------------------
# the ad-hoc hot path
# ---------------------------------------------------------------------------

DESCRIBE_SQL = ("SELECT A.prop, A.obj FROM triples AS A "
                "WHERE A.subj = '<entity/3>'")
DESCRIBE_SPARQL = "SELECT ?p ?o WHERE { <entity/3> ?p ?o }"


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=3000, n_properties=40, seed=3)


def template_unions(connection, text):
    plan = connection._plan_for(text).plan
    unions = [
        node for node, _ in L.walk_shapes(plan)
        if isinstance(node, Union) and node.template is not None
    ]
    assert unions, text
    return unions


class TestAdhocHotPathNeverExpands:
    def test_describes_run_without_building_an_expansion(self, dataset):
        connection = api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
        )
        session = connection.session()
        texts = [
            generate_vertical_sql(DESCRIBE_SQL, connection.store.catalog),
            DESCRIBE_SPARQL,
        ]
        for text in texts:
            assert session.query(text).rows
            for union in template_unions(connection, text):
                assert union.n_inputs == 40
                assert "_inputs" not in vars(union), text

    def test_the_row_engine_builds_the_expansion_once(
        self, dataset, repro_calls
    ):
        connection = api.connect(
            triples=dataset.triples, engine="row",
            interesting_properties=dataset.interesting_properties,
        )
        session = connection.session()
        first = repro_calls(lambda: session.query(DESCRIBE_SPARQL))
        (union,) = template_unions(connection, DESCRIBE_SPARQL)
        expansion = vars(union)["_inputs"]
        assert first["_bind_template"] == 39
        again = repro_calls(lambda: session.query(DESCRIBE_SPARQL))
        assert again["_bind_template"] == 0
        assert vars(union)["_inputs"] is expansion


class TestQ8IsTwoTemplateUnions:
    def test_a_hot_q8_runs_without_building_an_expansion(
        self, dataset, repro_calls
    ):
        from repro.queries import build_query

        connection = api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
        )
        catalog = connection.store.catalog
        built = [
            node for node, _ in L.walk_shapes(build_query(catalog, "q8"))
            if isinstance(node, Union)
        ]
        assert [(u.template is not None, u.n_inputs) for u in built] == [
            (True, 40), (True, 40),
        ]
        session = connection.session()
        assert session.query("q8", mode="cold").rows
        names = repro_calls(lambda: session.query("q8"))
        assert names["vector_union"] == 2 and names["_bind_template"] == 0
        for union in template_unions(connection, "q8"):
            assert "_inputs" not in vars(union)
