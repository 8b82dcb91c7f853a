"""Integration tests for the static-analysis layer.

The differential guarantee: every shipped benchmark query, planned on
every storage scheme, lints clean (no warning-or-worse diagnostics).
Plus: the frontend wiring, the CLI subcommands, the LogicalPlan
immutability seal and the Join disjoint-columns invariant.
"""

import json

import pytest

from repro.analysis import WARNING, lint_plan, worst
from repro.cli import main
from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.errors import PlanError
from repro.plan import Comparison, Join, Scan, Select
from repro.queries import ALL_QUERY_NAMES, build_query
from repro.storage import (
    build_property_table_store,
    build_triple_store,
    build_vertical_store,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=4_000, n_properties=40, seed=11)


@pytest.fixture(scope="module")
def catalogs(dataset):
    built = {}
    for scheme, builder in (
        ("triple", build_triple_store),
        ("vertical", build_vertical_store),
        ("property_table", build_property_table_store),
    ):
        engine = ColumnStoreEngine()
        built[scheme] = builder(
            engine, dataset.triples, dataset.interesting_properties
        )
    return built


# ---------------------------------------------------------------------------
# differential: every shipped plan is clean
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["triple", "vertical", "property_table"])
@pytest.mark.parametrize("query", ALL_QUERY_NAMES)
def test_shipped_queries_lint_clean(catalogs, scheme, query):
    plan = build_query(catalogs[scheme], query)
    flagged = worst(lint_plan(plan), at_least=WARNING)
    assert not flagged, "\n".join(d.render() for d in flagged)


def test_sql_frontend_lints(catalogs):
    from repro.sql.planner import plan_sql

    catalog = catalogs["triple"]
    sql = (
        "SELECT A.subj FROM triples AS A, triples AS B "
        "WHERE A.prop = B.subj AND A.subj = B.obj"
    )
    with pytest.raises(PlanError, match="domain-mismatch"):
        plan_sql(sql, catalog, lint="strict")
    # Default mode plans fine (logged, not raised).
    assert plan_sql(sql, catalog, lint="warn") is not None


def test_sparql_frontend_lints(catalogs, monkeypatch):
    from repro.sparql import parse_sparql
    from repro.sparql.executor import sparql_plan

    monkeypatch.setenv("REPRO_LINT", "strict")
    plan, names = sparql_plan(
        catalogs["vertical"],
        parse_sparql("SELECT ?s WHERE { ?s <type> <Text> }"),
    )
    assert plan is not None and names == ["s"]


def test_benchmark_frontend_lint_override(catalogs):
    plan = build_query(catalogs["vertical"], "q1", lint="strict")
    assert plan is not None


def test_optimizer_keeps_plans_lint_clean(dataset):
    from repro.core import RDFStore

    store = RDFStore.from_triples(
        dataset.triples[:2000], engine="column", scheme="triple"
    )
    rows = store.connection().session().query(
        "SELECT A.subj, B.obj FROM triples AS A, triples AS B "
        "WHERE A.obj = B.subj AND A.prop = '<type>'",
        optimize=True,
    ).rows
    assert isinstance(rows, list)


def test_store_analyze(dataset):
    from repro.core import RDFStore

    store = RDFStore.from_triples(
        dataset.triples[:2000], engine="column", scheme="vertical"
    )
    assert not worst(store.analyze("q1"), at_least=WARNING)
    # SQL with a cross-domain join draws a warning (triple store: the
    # vertical scheme has no triples table to misuse).
    triple_store = RDFStore.from_triples(
        dataset.triples[:2000], engine="column", scheme="triple"
    )
    flagged = triple_store.analyze(
        "SELECT A.subj FROM triples AS A, triples AS B "
        "WHERE A.prop = B.subj AND A.subj = B.obj"
    )
    assert any(d.rule == "domain-mismatch" for d in flagged)


# ---------------------------------------------------------------------------
# verify wiring (satellite 2)
# ---------------------------------------------------------------------------

def test_verify_carries_diagnostics(dataset):
    from repro.verify import verify_dataset

    result = verify_dataset(dataset, queries=("q1", "q7"))
    assert result.ok
    assert result.lint_clean
    # Informational notes (dead scan columns) are retained, not hidden.
    assert all(len(item) == 3 for item in result.diagnostics)
    assert "lint clean" in result.render()


def test_verify_render_reports_warnings(dataset):
    from repro.analysis.diagnostics import Diagnostic
    from repro.verify import VerificationResult

    result = VerificationResult(configurations=["x"], queries=["q1"])
    result.diagnostics.append((
        "x", "q1",
        Diagnostic(
            rule="domain-mismatch", severity=WARNING, path="$",
            node="Join", message="mixed domains",
        ),
    ))
    assert not result.lint_clean
    assert "lint warnings" in result.render()


# ---------------------------------------------------------------------------
# CLI (tentpole surface + satellite 5's entry points)
# ---------------------------------------------------------------------------

class TestAnalyzeCommand:
    ARGS = ["--triples", "2000", "--properties", "20", "--seed", "1"]

    def test_clean_query_exits_zero(self, capsys):
        code = main(["analyze", "q1"] + self.ARGS)
        assert code == 0
        assert "0 finding(s) at warning+" in capsys.readouterr().out

    def test_all_queries_exit_zero(self, capsys):
        code = main(["analyze", "all", "--scheme", "triple"] + self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "analyzed 12 queries" in out

    def test_strict_promotes_info(self, capsys):
        # Shipped plans carry info-level dead-column notes: --strict fails.
        code = main(["analyze", "q1", "--scheme", "triple", "--strict"]
                    + self.ARGS)
        assert code == 1

    def test_broken_sql_exits_nonzero(self, capsys):
        code = main(
            [
                "analyze",
                "SELECT A.subj FROM triples AS A, triples AS B "
                "WHERE A.prop = B.subj AND A.subj = B.obj",
                "--scheme", "triple",
            ] + self.ARGS
        )
        assert code == 1
        assert "domain-mismatch" in capsys.readouterr().out

    def test_json_document(self, capsys):
        code = main(["analyze", "q1", "--json"] + self.ARGS)
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["sections"] == ["plan"]
        assert set(document["plan"]) == {"q1"}
        assert document["ok"] is True

    def test_unified_json_document(self, capsys):
        code = main(
            ["analyze", "q1", "--concurrency", "--static-only",
             "--json"] + self.ARGS
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        # The source rules have one entry, `repro lint`: no code section.
        assert document["sections"] == ["plan", "concurrency"]
        assert "code" not in document
        concurrency = document["concurrency"]
        assert set(concurrency) == {"violations", "locks", "runtime"}
        assert concurrency["violations"] == []
        assert len(concurrency["locks"]) == 11
        assert concurrency["runtime"] is None  # --static-only
        assert document["ok"] is True

    def test_no_sections_is_an_error(self, capsys):
        assert main(["analyze"]) == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--code"])
        assert excinfo.value.code == 2
        assert "--code" in capsys.readouterr().err


class TestLintCommand:
    def test_package_is_clean(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out
        assert "0 concurrency violation(s)" in out

    def test_seeded_violation_is_caught(self, tmp_path, capsys):
        package = tmp_path / "repro" / "engine"
        package.mkdir(parents=True)
        bad = package / "sneaky.py"
        bad.write_text(
            "import time\n\n"
            "def cost():\n"
            "    return time.perf_counter()\n"
        )
        code = main(["lint", str(tmp_path / "repro")])
        assert code == 1
        out = capsys.readouterr().out
        assert (
            "repro/engine/sneaky.py:4: error [wall-clock-in-engine]" in out
        )
        assert "1 violation(s)" in out
        # The only way back to green is the fix: there is no ratchet to
        # record the violation in.
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "repro"), "--baseline", "b.json"])
        assert excinfo.value.code == 2
        assert "--baseline" in capsys.readouterr().err
        bad.write_text("def cost():\n    return 0\n")
        assert main(["lint", str(tmp_path / "repro")]) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        package = tmp_path / "repro" / "colstore"
        package.mkdir(parents=True)
        (package / "j.py").write_text(
            "def go(a, b):\n    return join_indices(a, b)\n"
        )
        code = main(["lint", str(tmp_path / "repro"), "--json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["violations"][0]["rule"] == "join-sort-hint"
        assert set(document) == {"violations", "concurrency"}
        assert document["concurrency"] == {"violations": []}


# ---------------------------------------------------------------------------
# LogicalPlan immutability + Join invariant (satellite 1)
# ---------------------------------------------------------------------------

class TestPlanInvariants:
    def test_nodes_are_sealed_after_construction(self):
        node = Scan("triples", ["subj", "prop", "obj"], alias="A")
        with pytest.raises(PlanError, match="immutable"):
            node.alias = "B"
        with pytest.raises(PlanError, match="immutable"):
            del node.table

    def test_join_seal(self):
        a = Scan("triples", ["subj", "prop", "obj"], alias="A")
        b = Scan("triples", ["subj", "prop", "obj"], alias="B")
        join = Join(a, b, on=[("A.subj", "B.subj")])
        with pytest.raises(PlanError, match="immutable"):
            join.on = []

    def test_select_seal(self):
        plan = Select(
            Scan("triples", ["subj", "prop", "obj"], alias="A"),
            [Comparison("A.subj", "=", 1)],
        )
        with pytest.raises(PlanError, match="immutable"):
            plan.predicates = []

    def test_join_disjoint_columns_error_names_overlap(self):
        a = Scan("triples", ["subj", "prop", "obj"], alias="A")
        also_a = Scan("triples", ["subj", "prop", "obj"], alias="A")
        with pytest.raises(PlanError) as excinfo:
            Join(a, also_a, on=[("A.subj", "A.subj")])
        message = str(excinfo.value)
        assert "disjoint column names" in message
        assert "A.subj" in message and "A.prop" in message

    def test_plans_survive_deepcopy_and_pickle(self):
        import copy
        import pickle

        plan = Select(
            Scan("triples", ["subj", "prop", "obj"], alias="A"),
            [Comparison("A.subj", "=", 1)],
        )
        for clone in (copy.deepcopy(plan), pickle.loads(pickle.dumps(plan))):
            assert clone.output_columns() == plan.output_columns()
            with pytest.raises(PlanError, match="immutable"):
                clone.predicates = []
