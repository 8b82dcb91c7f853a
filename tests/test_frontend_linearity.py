"""The front end does one linear pass per layer — checked without a clock.

An ad-hoc query over a vertically-partitioned store is a union over every
property table, so each front-end layer (parse, plan, lint, lower) sees a
plan whose size is the property count.  This suite counts Python function
calls (``sys.setprofile``) instead of timing: the counts repeat exactly,
and a rule that re-walks the tree or an operator tried on every node shows
as calls, not as noise.
"""

import collections
import inspect
import sys

import pytest

from repro.analysis import lint_plan, plan_lint
from repro.colstore import ColumnStoreEngine
from repro.exec import engine_ops, lower_plan
from repro.model.triple import Triple
from repro.plan import logical as L
from repro.plan.render import render_plan
from repro.rowstore import RowStoreEngine
from repro.sparql import parse_sparql
from repro.sparql.executor import sparql_plan
from repro.sql import generate_vertical_sql, parse_sql, plan_sql
from repro.storage import build_vertical_store

DESCRIBE = "SELECT A.prop, A.obj FROM triples AS A WHERE A.subj = '<s0>'"


class CallCounter:
    """Counts function entries by code object while installed."""

    def __init__(self, watch_arguments=()):
        self.calls = 0
        self.frames = collections.Counter()  # code -> frames entered
        self.arguments = collections.Counter()  # (code, id(node)) -> calls
        self._watch = set(watch_arguments)
        self._generators = {}  # id(frame) -> frame (held: ids stay unique)

    def _profile(self, frame, event, arg):
        if event != "call":
            return
        self.calls += 1
        code = frame.f_code
        if not code.co_flags & inspect.CO_GENERATOR:
            self.frames[code] += 1
        elif id(frame) not in self._generators:
            # A generator frame is "called" again on every resumption:
            # count it when first seen.
            self._generators[id(frame)] = frame
            self.frames[code] += 1
        if code in self._watch:
            self.arguments[code, id(frame.f_locals["node"])] += 1

    def __enter__(self):
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False


@pytest.fixture(scope="module")
def deployments():
    """``{property count: (engine, catalog)}`` — two triples per property,
    physically compressed so that the guarded kernels are in play."""
    deployed = {}
    for n_properties in (50, 100, 200):
        properties = [f"<p{j}>" for j in range(n_properties)]
        triples = [
            Triple(f"<s{i}>", prop, f"<o{j}>")
            for j, prop in enumerate(properties)
            for i in range(2)
        ]
        engine = ColumnStoreEngine(compression="physical")
        catalog = build_vertical_store(engine, triples, properties[:28])
        assert len(catalog.all_properties) == n_properties
        deployed[n_properties] = (engine, catalog)
    return deployed


def front_end(engine, catalog, text):
    statement = parse_sql(text)
    plan = plan_sql(statement, catalog, lint="off")
    diagnostics = lint_plan(plan)
    physical = lower_plan(plan, engine.kind, instance=engine)
    return plan, diagnostics, physical


def test_calls_grow_linearly_with_the_property_count(deployments):
    calls = {}
    for n_properties, (engine, catalog) in deployments.items():
        text = generate_vertical_sql(DESCRIBE, catalog)
        with CallCounter() as counter:
            plan, _, _ = front_end(engine, catalog, text)
        assert L.count_operators(plan) > 3 * n_properties
        calls[n_properties] = counter.calls
    assert calls[200] / calls[100] <= 2.2, calls
    assert calls[100] / calls[50] <= 2.2, calls


def test_parsing_a_union_makes_few_calls_per_branch(deployments):
    """The scan runs no Python per token and the parser compares kinds
    inline: a branch costs its AST nodes and a few rule calls."""
    _, catalog = deployments[200]
    text = generate_vertical_sql(DESCRIBE, catalog)
    with CallCounter() as counter:
        parse_sql(text)
    assert counter.calls <= 30 * 200, counter.calls


def test_a_second_describe_reuses_the_kept_union_verdict(
    deployments, monkeypatch
):
    """SPARQL describes on one catalog plan the generator's kept union:
    its template check and constant encoding run once, not per query."""
    monkeypatch.setattr(plan_lint, "_lint_mode", "off")
    _, catalog = deployments[200]
    query = parse_sparql("SELECT ?p ?o WHERE { <s0> ?p ?o }")
    first, _ = sparql_plan(catalog, query)
    with CallCounter() as counter:
        again, _ = sparql_plan(catalog, query)
    assert counter.calls <= 1000, counter.calls
    assert again is not first
    assert render_plan(again, max_union_branches=sys.maxsize) == render_plan(
        first, max_union_branches=sys.maxsize
    )


def test_lint_and_lowering_read_the_union_once(deployments):
    """The describe's property union is one template branch plus a
    binding per property: linting and lowering it take about as many
    calls at 200 properties as at 50."""
    calls = {}
    for n_properties in (50, 200):
        engine, catalog = deployments[n_properties]
        plan = plan_sql(generate_vertical_sql(DESCRIBE, catalog), catalog,
                        lint="off")
        with CallCounter() as linted:
            lint_plan(plan)
        with CallCounter() as lowered:
            lower_plan(plan, engine.kind, instance=engine)
        calls[n_properties] = linted.calls, lowered.calls
    assert calls[200][0] <= 1.2 * calls[50][0], calls
    assert calls[200][1] <= 1.2 * calls[50][1], calls


def test_lint_does_not_rewalk_the_tree_per_rule(deployments):
    engine, catalog = deployments[100]
    plan = plan_sql(generate_vertical_sql(DESCRIBE, catalog), catalog,
                    lint="off")
    with CallCounter() as counter:
        lint_plan(plan)
    assert counter.frames[L.walk.__code__] <= 1
    # Nor anything else: no function is entered more than a few times per
    # node (the widest fan-out is one call per node per fact or rule).
    n_nodes = L.count_operators(plan)
    busiest, entered = counter.frames.most_common(1)[0]
    assert entered <= 4 * n_nodes, (busiest, entered, n_nodes)


#: A wide plan with a node of every type a guard declares (one Join, one
#: GroupBy) next to the per-property union.
JOIN_AND_GROUP = (
    "SELECT A.obj, count(*) FROM triples AS A, triples AS B "
    "WHERE A.subj = B.subj AND B.prop = '<p1>' GROUP BY A.obj"
)


def test_a_guard_runs_once_per_node_of_its_declared_type(deployments):
    engine, catalog = deployments[100]
    plan = plan_sql(generate_vertical_sql(JOIN_AND_GROUP, catalog), catalog,
                    lint="off")
    guarded = [
        opdef for opdef in engine_ops(engine.kind).rules
        if opdef.guard is not None
    ]
    assert {opdef.name for opdef in guarded} == {
        "compressed-group", "compressed-join"
    }
    declared = {
        opdef.guard.__code__: opdef.match.node_types for opdef in guarded
    }
    nodes = {id(node): node for node in L.walk(plan)}
    with CallCounter(watch_arguments=declared) as counter:
        lower_plan(plan, engine.kind, instance=engine)
    # Every guard ran ("no guard ran" would pass the loop vacuously).
    assert {code for code, _ in counter.arguments} == set(declared)
    for (code, node_id), count in counter.arguments.items():
        assert count == 1, (code.co_name, nodes[node_id], count)
        assert isinstance(nodes[node_id], declared[code]), (
            code.co_name, nodes[node_id]
        )


@pytest.mark.parametrize("engine_cls", [ColumnStoreEngine, RowStoreEngine])
def test_running_a_plan_again_walks_no_tree(engine_cls):
    """``engine.run`` charges per operator and the pull runtime needs the
    count(*) column names: both are read off the sealed root from the
    second run on, with the same charge."""
    properties = [f"<p{j}>" for j in range(30)]
    triples = [Triple("<s0>", prop, "<o0>") for prop in properties]
    engine = engine_cls()
    catalog = build_vertical_store(engine, triples, properties[:28])
    text = generate_vertical_sql(
        "SELECT A.obj, count(*) FROM triples AS A GROUP BY A.obj", catalog
    )
    plan = plan_sql(text, catalog, lint="off")
    _, first = engine.run(plan)
    with CallCounter() as counter:
        _, again = engine.run(plan)
    assert counter.frames[L.walk.__code__] == 0
    assert again.user_seconds == first.user_seconds
    assert L.count_operators(plan) == sum(1 for _ in L.walk(plan))


def test_undeclared_matcher_is_offered_every_node():
    """A third-party registration that predates ``node_types`` (a bare
    match function) is still tried for every node type."""
    from repro.exec.registry import OperatorDef

    ops = engine_ops("column-store")
    offered = []

    def match_anything(node):
        offered.append(type(node))
        return None

    probe = OperatorDef("probe", "column-store", match_anything, fn=None)
    plan = L.Project(
        L.Select(L.Scan("t", ["subj", "obj"], alias="A"),
                 [L.Comparison("A.subj", "=", 1)]),
        [("s", "A.subj")],
    )
    ops.rules.insert(0, probe)
    try:
        physical = lower_plan(plan, "column-store")
    finally:
        ops.rules.remove(probe)
    assert offered == [L.Project, L.Select]  # Select(Scan) lowers fused
    assert physical.name == "project"
