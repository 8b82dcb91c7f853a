"""Lint/lowering equivalence goldens (the front end's contract).

``tests/data/lint_goldens.json`` was captured (``scripts/capture_lint_goldens.py``)
from the commit *before* the front end became single-pass (and its
lowering trees re-captured when the ``parallel-*`` operators were
deleted — nothing else moved): for every case
— the 12 named queries on a vertical and a triple catalog, one
deliberately bad plan per lint rule, and the four ad-hoc text shapes
perfbench's ``adhoc_frontend`` sends — it holds the full diagnostic list
in report order, a digest of every :class:`PlanFacts` answer, and the
physical operator-name tree under each engine configuration.  The suite
rebuilds the document with the current tree and requires equality: a
rule that skips a node type it used to inspect, a guard that binds (or
stops binding) somewhere new, or a path string that drifts fails here.

Two more sections pin the query surface itself:

* ``plans`` — a digest of the fully rendered logical plan of every named
  query on both schemes, at the default scope, at ``"all"`` and at three
  Figure 6 sweep points (vertical property lists; triple
  ``properties_<k>`` catalogs);
* ``generated_sql`` — a digest of :func:`generate_vertical_sql`'s output
  for each appendix text and ad-hoc SQL shape, stored with the input text
  it was generated from, so a reworded appendix query still proves the
  generator's output for the wording captured before.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import lint_physical_plan, lint_plan, plan_lint
from repro.analysis.provenance import PlanFacts
from repro.bench.experiments import _figure6_aux_catalogs
from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.exec import PhysicalPlan, engine_ops, lower_plan
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
)
from repro.plan.render import render_plan
from repro.queries import ALL_QUERY_NAMES, build_query
from repro.rowstore import RowStoreEngine
from repro.sparql import parse_sparql
from repro.sparql.executor import sparql_plan
from repro.sql import APPENDIX_SQL, generate_vertical_sql, plan_sql
from repro.storage import build_triple_store, build_vertical_store

GOLDENS = Path(__file__).parent / "data" / "lint_goldens.json"

SCHEMA_VERSION = 1
DATASET = {"n_triples": 3000, "n_properties": 32, "n_interesting": 28,
           "seed": 42}

#: A dataset with the paper's 222 properties, for the Figure 6 sweep
#: points ``FIGURE6_COUNTS`` (the plan digests only; nothing runs on it).
FIGURE6_DATASET = {"n_triples": 6000, "n_properties": 222,
                   "n_interesting": 28, "seed": 42}
FIGURE6_COUNTS = (56, 112, 196)

#: The four text shapes of perfbench's ``adhoc_frontend``, with constants
#: from the dataset — and, in the class-union, one that resolves in no
#: dictionary, which is what ``missing-constant`` exists for.
ADHOC_TEXTS = {
    "sparql_describe": "SELECT ?p ?o WHERE { <entity/3> ?p ?o }",
    "sql_describe": (
        "SELECT A.prop, A.obj FROM triples AS A WHERE A.subj = '<entity/3>'"
    ),
    "sql_class_union": (
        "SELECT B.subj, B.prop FROM triples AS A, triples AS B "
        "WHERE A.prop = '<type>' AND A.obj = '<Text>' "
        "AND A.subj = B.subj AND B.obj = '<no-such-object>'"
    ),
    "sql_two_property": (
        "SELECT A.subj, B.obj FROM triples AS A, triples AS B "
        "WHERE A.prop = '<type>' AND B.prop = '<language>' "
        "AND A.subj = B.subj"
    ),
}


#: Plan shapes that only the operate-on-compressed kernels' guards bind.
COMPRESSED_KERNEL_SQL = {
    "compressed-group": "SELECT prop, COUNT(*) AS n FROM triples GROUP BY prop",
    "compressed-join": ("SELECT P.prop, T.subj FROM properties P, triples T "
                        "WHERE P.prop = T.prop"),
}


def _scan(alias):
    return Scan("triples", ["subj", "prop", "obj"], alias=alias)


def bad_plans():
    """One deliberately misshaped plan per logical lint rule."""
    return {
        "cartesian-product": Join(
            Select(_scan("A"), [Comparison("A.subj", "=", 5)]),
            Select(_scan("B"), [Comparison("B.subj", "=", 7)]),
            on=[("A.subj", "B.subj")],
        ),
        "unsatisfiable-filter": Select(
            Select(_scan("A"), [Comparison("A.obj", "=", 6),
                                ColumnComparison("A.subj", "<", "A.subj")]),
            [Comparison("A.obj", "=", 5)],
        ),
        "dead-column": Project(
            Extend(_scan("A"), "A.tag", 3), [("s", "A.subj")]
        ),
        "domain-mismatch": Join(
            Union(
                [Project(_scan("A"), [("x", "A.prop")]),
                 Project(_scan("B"), [("x", "B.obj")])],
                distinct=False,
            ),
            GroupBy(_scan("C"), keys=["C.subj"]),
            on=[("x", "count")],
        ),
        "duplicate-columns": Union(
            [Project(Scan("triples", ["subj", "subj"], alias="A"),
                     [("x", "A.subj")]),
             Project(_scan("B"), [("y", "B.subj")])],
            distinct=False,
        ),
        "pushdown-select": Select(
            Join(_scan("A"), _scan("B"), on=[("A.subj", "B.subj")]),
            [Comparison("B.obj", ">", 4), ColumnComparison("A.obj", "=", "B.prop")],
        ),
        "missing-constant": Select(
            _scan("A"),
            [Comparison("A.obj", "=", None), Comparison("A.subj", "!=", None)],
        ),
    }


def diagnostic_rows(diagnostics):
    return [
        [d.rule, d.severity, d.path, d.node, d.message] for d in diagnostics
    ]


def facts_digest(plan):
    """``(node count, sha256)`` over every PlanFacts accessor's answer for
    every node, pre-order."""
    facts = PlanFacts(plan)
    digest = hashlib.sha256()
    count = 0
    for node in facts.nodes():
        count += 1
        parent = facts.parent(node)
        record = [
            facts.path(node),
            repr(node),
            None if parent is None else facts.path(parent),
            sorted(facts.constants_of(node).items(), key=repr),
            [[c, facts.domain(node, c)] for c in node.output_columns()],
            sorted(facts.consumed_of(node)),
        ]
        digest.update(json.dumps(record, default=repr).encode())
        digest.update(b"\n")
    return [count, digest.hexdigest()]


def operator_tree(pnode):
    """``name(child, child)`` with runs of identical siblings folded to
    ``N*child`` (a 32-way union of equal branches stays one line)."""
    children = [operator_tree(child) for child in pnode.children]
    if not children:
        return pnode.name
    folded = []
    for rendered, group in itertools.groupby(children):
        n = len(list(group))
        folded.append(rendered if n == 1 else f"{n}*{rendered}")
    return f"{pnode.name}({', '.join(folded)})"


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def plan_digest(plan):
    """Digest of the logical plan rendered with every union branch."""
    return text_digest(render_plan(plan, max_union_branches=sys.maxsize))


def figure6_plans():
    """Plan digests at the Figure 6 sweep points, built as the sweep
    builds them: a ``properties_<k>`` catalog on the triple store, the
    first *k* properties as an explicit scope on the vertical store."""
    dataset = generate_barton(**FIGURE6_DATASET)
    engine = ColumnStoreEngine(workers=1)
    triple = SimpleNamespace(
        engine=engine,
        catalog=build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering="PSO"),
    )
    triple_catalogs = _figure6_aux_catalogs(triple, FIGURE6_COUNTS)
    vertical = build_vertical_store(
        ColumnStoreEngine(workers=1), dataset.triples,
        dataset.interesting_properties,
    )
    plans = {}
    for k in FIGURE6_COUNTS:
        catalog, scope = triple_catalogs[k]
        names = vertical.all_properties[:k]
        for name in ALL_QUERY_NAMES:
            plans[f"triple/{name}@{k}"] = plan_digest(
                build_query(catalog, name, scope=scope))
            plans[f"vertical/{name}@{k}"] = plan_digest(
                build_query(vertical, name, scope=names))
    return plans


def generated_sql(catalog, interesting):
    """``generate_vertical_sql`` digests for the appendix and ad-hoc
    texts, keyed by name, property list and input-text digest."""
    texts = dict(APPENDIX_SQL)
    texts.update(
        (f"adhoc/{kind}", text) for kind, text in ADHOC_TEXTS.items()
        if kind.startswith("sql_")
    )
    cases = {}
    for name, text in texts.items():
        for label, properties in (("all", None), ("interesting", interesting)):
            key = f"{name}/{label}/{text_digest(text)[:12]}"
            cases[key] = {
                "text": text,
                "properties": label,
                "digest": text_digest(
                    generate_vertical_sql(text, catalog, properties)),
            }
    return cases


class Deployment:
    """One scheme deployed on every engine configuration lowering can
    tell apart (the worker count is not one: see
    ``test_lowering_cannot_see_the_worker_count``)."""

    def __init__(self, dataset, build):
        self.engines = {}
        self.catalog = None
        for label, engine in (
            ("column", ColumnStoreEngine(workers=1)),
            ("column+physical",
             ColumnStoreEngine(workers=1, compression="physical")),
            ("row", RowStoreEngine()),
        ):
            catalog = build(engine, dataset)
            if self.catalog is None:
                self.catalog = catalog
            self.engines[label] = engine

    def lowerings(self, plan):
        trees = {
            "column-store/no-instance":
                operator_tree(lower_plan(plan, "column-store")),
            "row-store/no-instance":
                operator_tree(lower_plan(plan, "row-store")),
        }
        for label, engine in self.engines.items():
            label = "row-store" if label == "row" else label
            trees[f"{label}/instance"] = operator_tree(
                lower_plan(plan, engine.kind, instance=engine)
            )
        return trees


def build_document():
    dataset = generate_barton(**DATASET)
    deployments = {
        "vertical": Deployment(
            dataset,
            lambda e, d: build_vertical_store(
                e, d.triples, d.interesting_properties),
        ),
        "triple": Deployment(
            dataset,
            lambda e, d: build_triple_store(
                e, d.triples, d.interesting_properties, clustering="PSO"),
        ),
    }
    previous_mode = plan_lint._lint_mode
    plan_lint.set_lint_mode("off")
    try:
        cases = {}
        plans = {}
        for scheme, deployment in deployments.items():
            catalog = deployment.catalog
            for name in ALL_QUERY_NAMES:
                plan = build_query(catalog, name)
                cases[f"{scheme}/{name}"] = (deployment, plan)
                plans[f"{scheme}/{name}"] = plan_digest(plan)
                plans[f"{scheme}/{name}@all"] = plan_digest(
                    build_query(catalog, name, scope="all"))
            for kind, text in ADHOC_TEXTS.items():
                if kind == "sparql_describe":
                    plan, _ = sparql_plan(catalog, parse_sparql(text))
                else:
                    if scheme == "vertical":
                        text = generate_vertical_sql(text, catalog)
                    plan = plan_sql(text, catalog)
                cases[f"{scheme}/adhoc/{kind}"] = (deployment, plan)
        for rule, plan in bad_plans().items():
            cases[f"bad/{rule}"] = (deployments["triple"], plan)
        for operator, text in COMPRESSED_KERNEL_SQL.items():
            cases[f"guard/{operator}"] = (
                deployments["triple"],
                plan_sql(text, deployments["triple"].catalog),
            )
        plans.update(figure6_plans())
    finally:
        plan_lint._lint_mode = previous_mode

    document = {
        "schema_version": SCHEMA_VERSION,
        "dataset": DATASET,
        "figure6_dataset": FIGURE6_DATASET,
        "cases": {},
        "plans": plans,
        "generated_sql": generated_sql(
            deployments["vertical"].catalog, dataset.interesting_properties),
    }
    for label, (deployment, plan) in cases.items():
        document["cases"][label] = {
            "diagnostics": diagnostic_rows(lint_plan(plan)),
            "facts": facts_digest(plan),
            "lowering": deployment.lowerings(plan),
        }

    # The physical rule: q1 with its root rebound to a row-store operator.
    engine = deployments["triple"].engines["column"]
    physical = lower_plan(
        build_query(deployments["triple"].catalog, "q1"),
        engine.kind, instance=engine,
    )
    wrong = PhysicalPlan(
        engine_ops("row-store").rules[0], physical.engine, physical.logical,
        children=physical.children, fused=physical.fused,
    )
    document["cases"]["bad/wrong-engine-operator"] = {
        "diagnostics": diagnostic_rows(lint_physical_plan(wrong)),
    }
    return document


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current():
    # Through JSON, so tuples and lists compare alike.
    return json.loads(json.dumps(build_document()))


def test_goldens_cover_every_rule_and_shape(goldens):
    assert goldens["schema_version"] == SCHEMA_VERSION
    assert goldens["dataset"] == DATASET
    labels = set(goldens["cases"])
    for scheme in ("vertical", "triple"):
        assert {f"{scheme}/{q}" for q in ALL_QUERY_NAMES} <= labels
        assert {f"{scheme}/adhoc/{k}" for k in ADHOC_TEXTS} <= labels
    rules = set(plan_lint.PLAN_RULES) | set(plan_lint.PHYSICAL_RULES)
    assert {f"bad/{rule}" for rule in rules} <= labels
    for rule in rules:
        fired = {row[0] for row in goldens["cases"][f"bad/{rule}"]["diagnostics"]}
        assert rule in fired, rule


def test_same_cases(goldens, current):
    assert set(current["cases"]) == set(goldens["cases"])


@pytest.mark.parametrize("section", ["diagnostics", "facts", "lowering"])
def test_front_end_reproduces_goldens(goldens, current, section):
    mismatched = [
        label for label, case in goldens["cases"].items()
        if case.get(section) != current["cases"][label].get(section)
    ]
    assert not mismatched, (section, mismatched)


def test_plans_reproduce_goldens(goldens, current):
    """Every named query plans to the same tree at every captured scope."""
    assert goldens["figure6_dataset"] == FIGURE6_DATASET
    assert set(current["plans"]) == set(goldens["plans"])
    mismatched = sorted(
        label for label, digest in goldens["plans"].items()
        if current["plans"][label] != digest
    )
    assert not mismatched, mismatched


def test_generator_reproduces_goldens(goldens):
    """``generate_vertical_sql`` renders every captured input text —
    including appendix wordings since replaced — byte for byte as it
    did when captured."""
    dataset = generate_barton(**DATASET)
    catalog = build_vertical_store(
        ColumnStoreEngine(workers=1), dataset.triples,
        dataset.interesting_properties,
    )
    scopes = {"all": None, "interesting": dataset.interesting_properties}
    mismatched = sorted(
        key for key, case in goldens["generated_sql"].items()
        if text_digest(generate_vertical_sql(
            case["text"], catalog, scopes[case["properties"]]))
        != case["digest"]
    )
    assert not mismatched, mismatched


def test_current_texts_are_captured(goldens, current):
    """The appendix and ad-hoc texts in the tree are among the captured
    generator inputs."""
    assert set(current["generated_sql"]) <= set(goldens["generated_sql"])


def test_guarded_operators_bind_in_the_goldens(goldens):
    """The goldens would prove nothing about guards if none ever bound."""
    for operator in COMPRESSED_KERNEL_SQL:
        lowering = goldens["cases"][f"guard/{operator}"]["lowering"]
        assert operator in lowering["column+physical/instance"]
        assert operator not in lowering["column/instance"]
        assert operator not in lowering["column-store/no-instance"]


def test_lowering_cannot_see_the_worker_count():
    """Parallelism is a property of the run, not of the plan: no operator
    is named for it and the same tree lowers whatever is installed."""
    assert not [
        name for name in engine_ops("column-store").operator_names()
        if name.startswith("parallel-")
    ]
    dataset = generate_barton(**DATASET)
    engine = ColumnStoreEngine(workers=1)
    catalog = build_vertical_store(
        engine, dataset.triples, dataset.interesting_properties
    )
    plan = plan_sql(
        generate_vertical_sql(ADHOC_TEXTS["sql_describe"], catalog), catalog,
        lint="off",
    )
    serial = operator_tree(lower_plan(plan, engine.kind, instance=engine))
    engine.install_parallelism(4)
    assert engine.workers == 4
    assert operator_tree(
        lower_plan(plan, engine.kind, instance=engine)
    ) == serial
