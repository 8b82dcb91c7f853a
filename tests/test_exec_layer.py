"""Unit tests for the unified execution layer (repro.exec)."""

import numpy as np
import pytest

from repro.analysis import ERROR, lint_physical_plan
from repro.colstore import ColumnStoreEngine
from repro.cstore import CStoreEngine
from repro.data import generate_barton
from repro.errors import BenchmarkError, EngineError
from repro.exec import (
    PhysicalPlan,
    count_physical_operators,
    engine_ops,
    lower_plan,
    registered_engines,
    walk_physical,
)
from repro.exec.host import EngineHost, PlanHost
from repro.plan import logical as L
from repro.plan.render import render_physical_plan
from repro.queries import ALL_QUERY_NAMES, build_query
from repro.rowstore import RowStoreEngine
from repro.storage import build_triple_store, build_vertical_store


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(
        n_triples=1500, n_properties=24, n_interesting=16, seed=11
    )


@pytest.fixture(scope="module")
def column_setup(dataset):
    engine = ColumnStoreEngine()
    catalog = build_triple_store(
        engine, dataset.triples, dataset.interesting_properties,
        clustering="PSO",
    )
    return engine, catalog


@pytest.fixture(scope="module")
def row_setup(dataset):
    engine = RowStoreEngine()
    catalog = build_vertical_store(
        engine, dataset.triples, dataset.interesting_properties
    )
    return engine, catalog


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_both_engines_registered():
    assert registered_engines() == ["column-store", "row-store"]


def test_paradigms():
    assert engine_ops("column-store").paradigm == "vector"
    assert engine_ops("row-store").paradigm == "pull"


def test_unknown_engine_raises():
    with pytest.raises(EngineError, match="no physical operators"):
        engine_ops("paper-store")


def test_fused_operators_registered_before_generic():
    names = engine_ops("column-store").operator_names()
    assert names.index("scan+select") < names.index("filter")
    row_names = engine_ops("row-store").operator_names()
    assert row_names.index("access-path") < row_names.index("filter")


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def test_lowering_fuses_select_scan(column_setup):
    _, catalog = column_setup
    plan = build_query(catalog, "q1")
    physical = lower_plan(plan, "column-store")
    fused = [p for p in walk_physical(physical) if p.fused]
    assert fused, "q1 has a Select(Scan) that must fuse"
    for pnode in fused:
        assert isinstance(pnode.logical, L.Select)
        assert isinstance(pnode.fused[0], L.Scan)
        assert pnode.logical_nodes() == (pnode.logical, pnode.fused[0])


def test_lowering_covers_every_benchmark_query(column_setup, row_setup):
    for engine, catalog in (column_setup, row_setup):
        for name in ALL_QUERY_NAMES:
            plan = build_query(catalog, name)
            physical = lower_plan(plan, engine.kind)
            for pnode in walk_physical(physical):
                assert pnode.op.engine == engine.kind


def test_physical_counts_fused_groups_once(column_setup):
    _, catalog = column_setup
    plan = build_query(catalog, "q2")
    physical = lower_plan(plan, "column-store")
    n_logical = L.count_operators(plan)
    n_physical = count_physical_operators(physical)
    n_fused = sum(len(p.fused) for p in walk_physical(physical))
    assert n_physical + n_fused == n_logical
    assert n_fused > 0


def test_engine_lower_is_cached(column_setup):
    engine, catalog = column_setup
    plan = build_query(catalog, "q1")
    assert engine.lower(plan) is engine.lower(plan)
    assert engine.executor() is engine._executor


def test_output_columns_match_logical(row_setup):
    engine, catalog = row_setup
    plan = build_query(catalog, "q5")
    physical = engine.lower(plan)
    assert physical.output_columns() == plan.output_columns()


# ---------------------------------------------------------------------------
# execution entry points
# ---------------------------------------------------------------------------

def test_execute_plan_matches_engine_run(column_setup):
    engine, catalog = column_setup
    plan = build_query(catalog, "q1")
    via_run, timing = engine.run(plan, mode="cold")
    engine.make_cold()
    via_execute = engine.execute(plan)
    assert timing.real_seconds > 0
    assert via_run.sorted_tuples() == via_execute.sorted_tuples()


def test_build_physical_query(row_setup):
    engine, catalog = row_setup
    plan = build_query(catalog, "q1")
    physical = engine.lower(plan)
    assert isinstance(physical, PhysicalPlan)
    assert physical.op.engine == "row-store"
    assert physical.logical is plan


# ---------------------------------------------------------------------------
# the one measured-run protocol (repro.exec.host)
# ---------------------------------------------------------------------------

def _twin_engines(kind, dataset):
    """Two identically built engines plus what ``run`` takes and how to
    decode what it returns: a twin starts from the same pool state, so
    the protocol can be compared against its spelled-out definition."""
    twins = []
    for _ in range(2):
        if kind == "c-store":
            engine = CStoreEngine().load_vertical(
                dataset.triples, dataset.interesting_properties
            )
            twins.append((engine, "q3", engine.dictionary, None))
            continue
        engine_cls = ColumnStoreEngine if kind == "column" else RowStoreEngine
        engine = engine_cls()
        catalog = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        plan = build_query(catalog, "q3")
        twins.append(
            (engine, plan, catalog.dictionary, plan.output_columns())
        )
    return twins


def _outcome(run_result, dictionary, order):
    relation, timing = run_result
    return relation.decoded_tuples(dictionary, order=order), timing.to_dict()


ENGINE_KINDS = ("column", "row", "c-store")


def test_engines_subclass_the_host():
    assert issubclass(ColumnStoreEngine, PlanHost)
    assert issubclass(RowStoreEngine, PlanHost)
    assert issubclass(CStoreEngine, EngineHost)
    assert not issubclass(CStoreEngine, PlanHost)
    # One implementation of the protocol: no engine overrides it.
    for engine_cls in (ColumnStoreEngine, RowStoreEngine, CStoreEngine):
        for name in ("run", "prepare", "execute", "make_cold", "io_history"):
            assert getattr(engine_cls, name) is getattr(EngineHost, name)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_cold_mode_is_make_cold_then_run(kind, dataset):
    (a, qa, dictionary, order), (b, qb, _, _) = _twin_engines(kind, dataset)
    for engine, query in ((a, qa), (b, qb)):
        engine.run(query)  # same non-empty pool on both sides
    b.make_cold()
    assert _outcome(a.run(qa, mode="cold"), dictionary, order) == \
        _outcome(b.run(qb), dictionary, order)
    assert a.pool.stats() == b.pool.stats()
    assert a.io_history() == b.io_history()


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_hot_mode_is_run_then_run(kind, dataset):
    (a, qa, dictionary, order), (b, qb, _, _) = _twin_engines(kind, dataset)
    b.run(qb)
    assert _outcome(a.run(qa, mode="hot"), dictionary, order) == \
        _outcome(b.run(qb), dictionary, order)
    assert a.pool.stats() == b.pool.stats()


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_current_mode_leaves_the_pool_as_it_stands(kind, dataset):
    (a, qa, dictionary, order), (b, qb, _, _) = _twin_engines(kind, dataset)
    a.run(qa)
    b.run(qb)
    assert _outcome(a.run(qa, mode="current"), dictionary, order) == \
        _outcome(b.run(qb), dictionary, order)


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_unknown_mode_touches_nothing(kind, dataset):
    (engine, query, _, _), _ = _twin_engines(kind, dataset)
    engine.run(query)
    before = (
        engine.pool.stats(), engine.pool.resident_pages(),
        engine.clock.timing(), engine.io_history(),
    )
    with pytest.raises(BenchmarkError, match="unknown mode 'warm'"):
        engine.run(query, mode="warm")
    assert before == (
        engine.pool.stats(), engine.pool.resident_pages(),
        engine.clock.timing(), engine.io_history(),
    )


def test_every_caller_rejects_a_bad_mode_the_same_way(dataset):
    """The session, the profiler, the bench deployment and the parity
    sweep all reach the host's check by passing ``mode`` through."""
    import repro.api as api
    from repro.bench.systems import deploy
    from repro.exec.parity import parity_sweep

    connection = api.connect(
        triples=dataset.triples,
        interesting_properties=dataset.interesting_properties,
    )
    session = connection.session()
    attempts = [
        lambda: session.query("q1", mode="warm"),
        lambda: session.profile("q1", mode="warm"),
        lambda: deploy(
            dataset, "MonetDB", "vert", cache=False
        ).run("q1", mode="warm"),
        lambda: deploy(dataset, "C-Store", "vert").run("q1", mode="warm"),
        lambda: parity_sweep(
            n_triples=1000, n_properties=12, queries=("q1",),
            modes=("warm",),
        ),
    ]
    for attempt in attempts:
        with pytest.raises(BenchmarkError, match="unknown mode 'warm'"):
            attempt()
    # Nothing stuck to the shared engine: the next query runs normally.
    assert session.query("q1", mode="cold").n_rows > 0
    assert connection.store.engine.tracer.enabled is False


def test_verify_sweeps_the_parity_grid(dataset):
    from repro.exec.parity import parity_cells
    from repro.verify import verify_dataset

    result = verify_dataset(dataset, queries=("q1",))
    assert result.ok
    assert result.configurations == [
        label for label, _, _ in parity_cells()
    ] + ["c-store/vertical"]


def test_row_join_strategy_knob(row_setup, dataset):
    """The ablation bench's engine._executor.join_strategy hook still
    selects the join method (and changes the simulated cost)."""
    engine = RowStoreEngine()
    catalog = build_vertical_store(
        engine, dataset.triples, dataset.interesting_properties
    )
    plan = build_query(catalog, "q5")
    timings = {}
    for strategy in ("hash", "inl"):
        engine._executor.join_strategy = strategy
        engine.make_cold()
        _, timing = engine.run(plan)
        timings[strategy] = timing.real_seconds
    engine._executor.join_strategy = "auto"
    assert timings["hash"] != timings["inl"]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_physical_plan(column_setup):
    engine, catalog = column_setup
    text = render_physical_plan(engine.lower(build_query(catalog, "q2")))
    assert "scan+select [column-store]" in text
    assert "::" in text
    assert "Scan triples" in text


def test_render_physical_elides_union_branches(row_setup):
    engine, catalog = row_setup
    text = render_physical_plan(
        engine.lower(build_query(catalog, "q2", scope="all")),
        max_union_branches=2,
    )
    assert "more union branches" in text


# ---------------------------------------------------------------------------
# physical linting
# ---------------------------------------------------------------------------

def test_lint_physical_clean_on_benchmark_plans(column_setup):
    engine, catalog = column_setup
    for name in ("q1", "q5"):
        diagnostics = lint_physical_plan(
            engine.lower(build_query(catalog, name))
        )
        assert not [d for d in diagnostics if d.severity == ERROR]


def test_lint_physical_includes_logical_findings(column_setup):
    from repro.analysis import lint_plan

    engine, catalog = column_setup
    plan = build_query(catalog, "q1")
    logical_keys = {
        (d.rule, d.path, d.message) for d in lint_plan(plan)
    }
    physical_keys = {
        (d.rule, d.path, d.message)
        for d in lint_physical_plan(engine.lower(plan))
    }
    assert logical_keys <= physical_keys


def test_lint_flags_wrong_engine_operator(column_setup):
    engine, catalog = column_setup
    physical = engine.lower(build_query(catalog, "q1"))
    row_op = engine_ops("row-store").rules[0]
    # Rebind one node to an operator from the other engine's registry.
    wrong = PhysicalPlan(
        row_op, physical.engine, physical.logical,
        children=physical.children, fused=physical.fused,
    )
    diagnostics = lint_physical_plan(wrong)
    flagged = [d for d in diagnostics if d.rule == "wrong-engine-operator"]
    assert flagged and flagged[0].severity == ERROR
    assert "row-store" in flagged[0].message


def test_lint_flags_mixed_engine_tree(row_setup):
    engine, catalog = row_setup
    physical = engine.lower(build_query(catalog, "q1"))
    child = physical.children[0]
    # An internally-consistent column-store node inside a row-store tree:
    # op.engine matches the node's engine, but not the root's.
    column_op = engine_ops("column-store").rules[0]
    mixed_child = PhysicalPlan(
        column_op, "column-store", child.logical,
        children=child.children, fused=child.fused,
    )
    mixed = PhysicalPlan(
        physical.op, physical.engine, physical.logical,
        children=(mixed_child,) + physical.children[1:],
        fused=physical.fused,
    )
    diagnostics = lint_physical_plan(mixed)
    assert any(
        d.rule == "wrong-engine-operator" and "mixes engines" in d.message
        for d in diagnostics
    )


# ---------------------------------------------------------------------------
# profiler integration
# ---------------------------------------------------------------------------

def test_profile_reports_physical_tree(dataset):
    from repro.core.store import RDFStore

    store = RDFStore(
        [(t.s, t.p, t.o) for t in dataset.triples],
        engine="column", scheme="vertical",
    )
    profile = store.profile("q1", mode="cold")
    assert profile.physical is not None
    text = profile.render()
    assert "physical plan:" in text
    document = profile.to_dict()
    assert document["physical"]["engine"] == "column-store"
    from repro.observe.profiler import validate_profile

    validate_profile(document)


def test_store_explain_physical(dataset):
    from repro.core.store import RDFStore

    from repro import Var

    store = RDFStore(
        [(t.s, t.p, t.o) for t in dataset.triples],
        engine="row", scheme="vertical",
    )
    text = store.explain(
        [(Var("s"), "<prop/0>", Var("o"))], physical=True
    )
    assert "physical plan:" in text
    assert "[row-store]" in text


# ---------------------------------------------------------------------------
# runtime internals
# ---------------------------------------------------------------------------

def test_vector_intermediate_sortedness(column_setup):
    from repro.exec import Intermediate
    from repro.relation import Relation

    rel = Relation({"a": np.array([1, 2], dtype=np.int64)})
    inter = Intermediate(rel, sorted_by=["a"])
    assert inter.sorted_by == ("a",)


def test_lower_cache_evicts(column_setup):
    from repro.exec.runtime import LOWER_CACHE_SIZE, Runtime

    engine, catalog = column_setup
    runtime = Runtime(engine)
    plans = [
        build_query(catalog, "q1") for _ in range(LOWER_CACHE_SIZE + 5)
    ]
    for plan in plans:
        runtime.lower(plan)
    assert len(runtime._lowered) <= LOWER_CACHE_SIZE
