"""Tests for the cost-based join-order optimizer extension."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.plan import (
    Comparison,
    GroupBy,
    Join,
    Project,
    Scan,
    Select,
    walk,
)
from repro.plan.optimizer import engine_stats_provider, optimize_joins
from repro.plan.stats import Estimator, TableStats
from repro.queries import ALL_QUERY_NAMES, build_query
from repro.rowstore import RowStoreEngine
from repro.sql import APPENDIX_SQL, plan_sql
from repro.storage import build_triple_store


@pytest.fixture(scope="module")
def deployed():
    dataset = generate_barton(n_triples=8_000, n_properties=40, seed=13)
    engine = ColumnStoreEngine()
    catalog = build_triple_store(
        engine, dataset.triples, dataset.interesting_properties,
        clustering="PSO",
    )
    return engine, catalog


class TestEstimator:
    def make(self):
        stats = {
            "big": TableStats(n_rows=100_000, distinct={"k": 100, "v": 50_000}),
            "small": TableStats(n_rows=100, distinct={"k": 100}),
        }
        return Estimator(lambda name: stats[name])

    def test_scan_cardinality(self):
        est = self.make()
        assert est.cardinality(Scan("big", ["k", "v"])) == 100_000

    def test_equality_selectivity(self):
        est = self.make()
        plan = Select(Scan("big", ["k", "v"]), [Comparison("k", "=", 1)])
        assert est.cardinality(plan) == pytest.approx(1000.0)

    def test_missing_constant_zero(self):
        est = self.make()
        plan = Select(Scan("big", ["k", "v"]), [Comparison("k", "=", None)])
        assert est.cardinality(plan) == 1.0  # floored

    def test_join_cardinality(self):
        est = self.make()
        plan = Join(
            Scan("big", ["k", "v"], alias="A"),
            Scan("small", ["k"], alias="B"),
            on=[("A.k", "B.k")],
        )
        # 100000 * 100 / max(100, 100) = 100000
        assert est.cardinality(plan) == pytest.approx(100_000.0)

    def test_group_by_cardinality(self):
        est = self.make()
        plan = GroupBy(Scan("big", ["k", "v"]), keys=["k"], count_column="n")
        assert est.cardinality(plan) == pytest.approx(100.0)

    def test_range_selectivity(self):
        est = self.make()
        plan = Select(Scan("big", ["k", "v"]), [Comparison("k", ">", 5)])
        assert est.cardinality(plan) == pytest.approx(100_000 / 3)


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("query_name", ALL_QUERY_NAMES)
    def test_benchmark_queries_unchanged_results(self, deployed, query_name):
        engine, catalog = deployed
        plan = build_query(catalog, query_name)
        optimized = optimize_joins(plan, engine_stats_provider(engine))
        original = engine.execute(plan).sorted_tuples(
            order=plan.output_columns()
        )
        rewritten = engine.execute(optimized).sorted_tuples(
            order=optimized.output_columns()
        )
        assert rewritten == original

    def test_appendix_sql_unchanged_results(self, deployed):
        engine, catalog = deployed
        for name in ("q4", "q5", "q7"):
            plan = plan_sql(APPENDIX_SQL[name], catalog)
            optimized = optimize_joins(plan, engine_stats_provider(engine))
            assert engine.execute(optimized).sorted_tuples(
                order=optimized.output_columns()
            ) == engine.execute(plan).sorted_tuples(
                order=plan.output_columns()
            )


class TestOptimizerImproves:
    def test_bad_join_order_repaired(self):
        """A deliberately terrible order — cross-scale join first — is
        rebuilt to start from the most selective relation."""
        engine = ColumnStoreEngine()
        rng = np.random.default_rng(0)
        n = 6_000
        engine.create_table(
            "facts",
            {"k": rng.integers(0, 50, n), "who": rng.integers(0, 2_000, n)},
            sort_by=["k"],
        )
        engine.create_table(
            "tiny",
            {"k": np.arange(3), "tag": np.arange(3)},
            sort_by=["k"],
        )
        # Hand-written order: facts x facts first (huge), tiny last.
        a = Scan("facts", ["k", "who"], alias="A")
        b = Scan("facts", ["k", "who"], alias="B")
        t = Select(
            Scan("tiny", ["k", "tag"], alias="T"),
            [Comparison("T.tag", "=", 1)],
        )
        bad = Join(
            Join(a, b, on=[("A.k", "B.k")]), t, on=[("B.k", "T.k")]
        )
        bad_plan = GroupBy(bad, keys=[], count_column="n")
        good_plan = optimize_joins(
            bad_plan, engine_stats_provider(engine)
        )

        engine.run(bad_plan)  # warm
        _, t_bad = engine.run(bad_plan)
        rel_good, t_good = engine.run(good_plan)
        rel_bad, _ = engine.run(bad_plan)
        assert rel_good.to_tuples() == rel_bad.to_tuples()
        assert t_good.user_seconds < t_bad.user_seconds

        # The optimizer anchored the join tree on the filtered tiny table.
        joins = [n for n in walk(good_plan) if isinstance(n, Join)]
        innermost = joins[-1]
        tables = {
            n.table for n in walk(innermost.left) if isinstance(n, Scan)
        }
        assert "tiny" in tables

    def test_row_store_stats_provider(self):
        engine = RowStoreEngine()
        engine.create_table(
            "t", {"a": [1, 1, 2], "b": [5, 6, 7]}, sort_by=["a"]
        )
        stats = engine_stats_provider(engine)("t")
        assert stats.n_rows == 3
        assert stats.distinct["a"] == 2
        assert stats.distinct["b"] == 3


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 5), n_rels=st.integers(2, 4))
def test_property_optimizer_preserves_results(seed, n_rels):
    """Random chain joins: optimized plans return identical bags."""
    rng = np.random.default_rng(seed)
    engine = ColumnStoreEngine()
    n = 300
    engine.create_table(
        "t",
        {
            "x": rng.integers(0, 6, n),
            "y": rng.integers(0, 6, n),
        },
        sort_by=["x"],
    )
    plan = Select(
        Scan("t", ["x", "y"], alias="R0"),
        [Comparison("R0.y", "!=", int(rng.integers(0, 6)))],
    )
    for i in range(1, n_rels):
        right = Scan("t", ["x", "y"], alias=f"R{i}")
        column = "x" if rng.integers(0, 2) else "y"
        plan = Join(
            plan, right, on=[(f"R{i-1}.{column}", f"R{i}.x")]
        )
    plan = GroupBy(plan, keys=["R0.x"], count_column="n")
    optimized = optimize_joins(plan, engine_stats_provider(engine))
    assert engine.execute(optimized).sorted_tuples(
        order=optimized.output_columns()
    ) == engine.execute(plan).sorted_tuples(order=plan.output_columns())
