"""EXTENSION — does join-order optimization change the benchmark verdict?

The paper's SQL implies a join order and the reproduction's Tables 6/7 run
it as-is.  This bench reruns the multi-join benchmark queries on the column
store with the greedy cost-based optimizer enabled and reports the delta —
checking that (a) results are unchanged, and (b) the paper's hand-written
orders were already close to optimal for this workload, so the
reproduction's timings are not an artifact of bad manual join orders.
"""

from repro.bench import format_table
from repro.bench.systems import data_scale
from repro.colstore import ColumnStoreEngine
from repro.engine import COLUMN_STORE_COSTS, MACHINE_B
from repro.plan.optimizer import engine_stats_provider, optimize_joins
from repro.queries import build_query
from repro.storage import build_triple_store

QUERIES = ("q2", "q3", "q4", "q5", "q6", "q7", "q8")


def run_optimizer_comparison(dataset):
    scale = data_scale(dataset)
    engine = ColumnStoreEngine(
        machine=MACHINE_B.scaled(scale),
        costs=COLUMN_STORE_COSTS.scaled(scale),
    )
    catalog = build_triple_store(
        engine, dataset.triples, dataset.interesting_properties,
        clustering="PSO",
    )
    provider = engine_stats_provider(engine)

    rows = []
    outcomes = {}
    for query in QUERIES:
        plan = build_query(catalog, query)
        optimized = optimize_joins(plan, provider)

        _, manual = engine.run(plan, mode="hot")
        _, auto = engine.run(optimized, mode="hot")

        same = engine.execute(plan).sorted_tuples(
            order=plan.output_columns()
        ) == engine.execute(optimized).sorted_tuples(
            order=optimized.output_columns()
        )
        manual_s = manual.real_seconds / scale
        auto_s = auto.real_seconds / scale
        outcomes[query] = (manual_s, auto_s, same)
        rows.append(
            [query, round(manual_s, 3), round(auto_s, 3),
             round(auto_s / manual_s, 2), "yes" if same else "NO"]
        )
    table = format_table(
        ["query", "paper order (s)", "optimized (s)", "ratio", "same rows"],
        rows,
        title="Extension: greedy join-order optimizer vs the paper's "
              "hand-written orders (column store, hot, scaled seconds)",
    )
    return table, outcomes


def test_optimizer_comparison(benchmark, dataset, publish):
    table, outcomes = benchmark.pedantic(
        run_optimizer_comparison, args=(dataset,), rounds=1, iterations=1
    )
    publish(("ext_optimizer", table))

    for query, (manual, auto, same) in outcomes.items():
        assert same, query
        # The optimizer never blows a query up badly (within 2x)...
        assert auto < manual * 2.0, query
    # ... and overall the hand-written orders were near-optimal: total
    # optimized time is within 25% either way.
    total_manual = sum(m for m, _, _ in outcomes.values())
    total_auto = sum(a for _, a, _ in outcomes.values())
    assert 0.6 < total_auto / total_manual < 1.25
