"""Ablation — row-store join-method selection.

The DBX replica's optimizer chooses between an index nested-loop join and a
hash join with a cost rule (probed pages vs inner scan bytes).  This
ablation forces each strategy on q2-like self-joins at two outer
cardinalities and verifies that the automatic rule never loses to either
forced strategy — in particular that it avoids the pathological
always-probe plan, whose scattered index+heap reads are 1-2 orders of
magnitude slower at both cardinalities on this dataset.
"""

from repro.bench.reporting import format_table
from repro.plan import Comparison, GroupBy, Join, Project, Scan, Select
from repro.rowstore import RowStoreEngine
from repro.storage import build_triple_store


def _q2_like_plan(catalog, prop_name, obj_name=None):
    """SELECT count per B.prop for subjects matching a selective filter."""
    predicates = [
        Comparison("A.prop", "=", catalog.encode(prop_name)),
    ]
    if obj_name is not None:
        predicates.append(Comparison("A.obj", "=", catalog.encode(obj_name)))
    a = Select(
        Scan(catalog.triples_table, ["subj", "prop", "obj"], alias="A"),
        predicates,
    )
    b = Scan(catalog.triples_table, ["subj", "prop", "obj"], alias="B")
    joined = Join(Project(a, [("s", "A.subj")]), b, on=[("s", "B.subj")])
    return GroupBy(joined, keys=["B.prop"], count_column="n")


def run_join_ablation(dataset):
    rows = []
    outcomes = {}
    # Two outers: tiny (conferences-style point lookup) and huge (all
    # <type> triples).
    cases = [
        ("tiny outer", "<Point>", '"end"'),
        ("large outer", "<type>", None),
    ]
    for label, prop, obj in cases:
        for forced, strategy in (("auto", "auto"), ("hash-only", "hash"),
                                 ("inl-always", "inl")):
            engine = RowStoreEngine()
            catalog = build_triple_store(
                engine, dataset.triples, dataset.interesting_properties,
                clustering="PSO",
            )
            engine._executor.join_strategy = strategy
            plan = _q2_like_plan(catalog, prop, obj)
            _, timing = engine.run(plan, mode="cold")
            outcomes[(label, forced)] = timing
            rows.append(
                [
                    label,
                    forced,
                    round(timing.real_seconds * 1e3, 3),
                    timing.io_requests,
                ]
            )
    table = format_table(
        ["outer", "strategy", "real (ms)", "io requests"],
        rows,
        title="Ablation: row-store join strategy vs outer cardinality",
    )
    return table, outcomes


def test_join_strategy_ablation(benchmark, dataset, publish):
    table, outcomes = benchmark.pedantic(
        run_join_ablation, args=(dataset,), rounds=1, iterations=1
    )
    publish(("ablation_join_strategy", table))

    # The automatic rule never loses badly to either forced strategy.
    for label in ("tiny outer", "large outer"):
        auto = outcomes[(label, "auto")].real_seconds
        best_forced = min(
            outcomes[(label, "hash-only")].real_seconds,
            outcomes[(label, "inl-always")].real_seconds,
        )
        assert auto <= best_forced * 1.25, label

    # Forcing index probes everywhere is pathological: scattered index and
    # heap reads cost an order of magnitude over the scan-based plan.
    for label in ("tiny outer", "large outer"):
        forced_inl = outcomes[(label, "inl-always")].real_seconds
        auto = outcomes[(label, "auto")].real_seconds
        assert forced_inl > auto * 5, label
