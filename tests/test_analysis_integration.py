"""Integration tests for the static-analysis layer.

The differential guarantee: every shipped benchmark query, planned on
every storage scheme, lints clean (no warning-or-worse diagnostics).
Plus: the frontend wiring, the CLI subcommands, the LogicalPlan
immutability seal and the Join disjoint-columns invariant.
"""

import collections
import json
import logging
import sys
import threading

import pytest

import repro.api as api
from repro.analysis import (
    WARNING,
    lint_mode,
    lint_plan,
    plan_lint,
    set_lint_mode,
    worst,
)
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


#: Triple-store SQL with one warning: a property oid joined to a subject.
CROSS_DOMAIN_SQL = (
    "SELECT A.subj FROM triples AS A, triples AS B "
    "WHERE A.prop = B.subj AND A.subj = B.obj"
)


def test_sql_frontend_lints(catalogs):
    from repro.sql.planner import plan_sql

    catalog = catalogs["triple"]
    with pytest.raises(PlanError, match="domain-mismatch"):
        plan_sql(CROSS_DOMAIN_SQL, catalog, lint="strict")
    # An explicit "warn" plans fine (logged, not raised).
    assert plan_sql(CROSS_DOMAIN_SQL, catalog, lint="warn") is not None


@pytest.fixture
def strict_by_default():
    previous = lint_mode()
    set_lint_mode("strict")
    yield
    set_lint_mode(previous)


@pytest.fixture
def lint_calls(monkeypatch):
    """How often ``lint_plan`` and each plan rule ran."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        plan_lint, "lint_plan", counted("lint_plan", plan_lint.lint_plan)
    )
    for rule_id, (fn, description) in list(plan_lint.PLAN_RULES.items()):
        monkeypatch.setitem(
            plan_lint.PLAN_RULES, rule_id, (counted(rule_id, fn), description)
        )
    return calls


@pytest.fixture
def lint_log():
    """The warnings the plan linter logs, caught on its own logger so
    that a CLI run's logging setup cannot hide them."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("repro.analysis")
    logger.addHandler(handler)
    yield records
    logger.removeHandler(handler)


@pytest.fixture
def triple_connection(dataset):
    return api.connect(triples=dataset.triples[:2000], scheme="triple")


@pytest.mark.parametrize("front_end", ["build_query", "sparql", "sql"])
def test_building_a_plan_lints_nothing(
    catalogs, front_end, strict_by_default, lint_calls, lint_log
):
    from repro.sparql import parse_sparql
    from repro.sparql.executor import sparql_plan
    from repro.sql.planner import plan_sql

    catalog = catalogs["triple"]
    if front_end == "build_query":
        plan = build_query(catalog, "q2")
    elif front_end == "sparql":
        plan, _ = sparql_plan(
            catalog, parse_sparql("SELECT ?s WHERE { ?s <type> <Text> }")
        )
    else:
        plan = plan_sql(CROSS_DOMAIN_SQL, catalog)
    assert plan is not None
    assert lint_calls == {}
    assert lint_log == []


def test_sparql_frontend_lints(triple_connection):
    with triple_connection.session(lint="strict") as session:
        result = session.query("SELECT ?s WHERE { ?s <type> <Text> }")
    assert result.kind == "sparql" and result.columns == ["s"]


def test_benchmark_frontend_lint_override(triple_connection):
    with triple_connection.session(lint="off") as session:
        assert session.query("q1", lint="strict").n_rows > 0


def test_strict_raises_on_every_query_and_lints_once(
    triple_connection, lint_calls
):
    with triple_connection.session(lint="strict") as session:
        for _ in range(2):
            with pytest.raises(PlanError, match="domain-mismatch"):
                session.query(CROSS_DOMAIN_SQL)
    assert triple_connection.plan_cache_stats()["hits"] == 1
    assert lint_calls["lint_plan"] == 1


def test_warn_logs_a_finding_once_per_plan(triple_connection, lint_log):
    with triple_connection.session(lint="warn") as session:
        first = session.query(CROSS_DOMAIN_SQL)
        second = session.query(CROSS_DOMAIN_SQL)
    assert first.rows == second.rows
    assert len(lint_log) == 1
    assert "domain-mismatch" in lint_log[0].getMessage()


def test_warn_logs_once_under_concurrent_first_queries(triple_connection,
                                                       lint_log):
    errors = []

    def query():
        try:
            triple_connection.query(CROSS_DOMAIN_SQL, lint="warn")
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=query) for _ in range(8)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(lint_log) == 1


def test_call_mode_wins_over_session_and_process_default(
    triple_connection, strict_by_default, lint_log
):
    with triple_connection.session() as session:
        with pytest.raises(PlanError):
            session.query(CROSS_DOMAIN_SQL)
        session.query(CROSS_DOMAIN_SQL, lint="off")
    with triple_connection.session(lint="warn") as session:
        session.query(CROSS_DOMAIN_SQL)
        with pytest.raises(PlanError):
            session.query(CROSS_DOMAIN_SQL, lint="strict")
    assert len(lint_log) == 1


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
            ["analyze", CROSS_DOMAIN_SQL, "--scheme", "triple"] + self.ARGS
        )
        assert code == 1
        assert "domain-mismatch" in capsys.readouterr().out

    def test_a_finding_is_printed_once_and_not_logged(self, capsys, lint_log):
        code = main(
            ["analyze", CROSS_DOMAIN_SQL, "--scheme", "triple"] + self.ARGS
        )
        assert code == 1
        assert capsys.readouterr().out.count("domain-mismatch") == 1
        assert lint_log == []

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
        assert len(concurrency["locks"]) == 10
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
