"""Ablation — all six triple-store clustering orders.

The paper compares SPO (the VLDB 2007 choice) against PSO (its proposal).
This ablation completes the picture: every permutation of (subject,
property, object) as the clustering order of the column-store triples
table, measured over the 12 benchmark queries.

Expected shape: the property-leading orders (PSO, POS) win, because every
benchmark query except q8 binds the property; object-leading orders help
q8's object join; subject-leading orders trail on the property-bound
queries.
"""

from repro.bench import TimingCell, format_table, summarize
from repro.bench.systems import data_scale
from repro.colstore import ColumnStoreEngine
from repro.engine import COLUMN_STORE_COSTS, MACHINE_B
from repro.queries import ALL_QUERY_NAMES, build_query
from repro.storage import build_triple_store
from repro.storage.catalog import CLUSTERINGS


def run_clustering_ablation(dataset):
    scale = data_scale(dataset)
    rows = []
    summaries = {}
    for clustering in sorted(CLUSTERINGS):
        engine = ColumnStoreEngine(
            machine=MACHINE_B.scaled(scale),
            costs=COLUMN_STORE_COSTS.scaled(scale),
        )
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering=clustering,
        )
        cells = {}
        for query in ALL_QUERY_NAMES:
            plan = build_query(catalog, query)
            _, timing = engine.run(plan, mode="cold")
            cells[query] = TimingCell(
                timing.real_seconds / scale,
                timing.user_seconds / scale,
            )
        summary = summarize(cells)
        summaries[clustering] = (cells, summary)
        rows.append(
            [clustering]
            + [round(cells[q].real, 2) for q in ALL_QUERY_NAMES]
            + [round(summary["G_real"], 2), round(summary["Gstar_real"], 2)]
        )
    table = format_table(
        ["clustering"] + list(ALL_QUERY_NAMES) + ["G", "G*"],
        rows,
        title="Ablation: triple-store clustering orders "
              "(MonetDB-like engine, cold, scaled seconds)",
    )
    return table, summaries


def test_clustering_ablation(benchmark, dataset, publish):
    table, summaries = benchmark.pedantic(
        run_clustering_ablation, args=(dataset,), rounds=1, iterations=1
    )
    publish(("ablation_clustering", table))

    g = {c: s["G_real"] for c, (_, s) in summaries.items()}
    gstar = {c: s["Gstar_real"] for c, (_, s) in summaries.items()}

    # Property-leading orders dominate the property-bound benchmark.
    best = min(g, key=g.get)
    assert best in ("PSO", "POS"), best
    for property_leading in ("PSO", "POS"):
        for subject_leading in ("SPO", "SOP"):
            assert g[property_leading] < g[subject_leading]
            assert gstar[property_leading] < gstar[subject_leading]

    # q8 (object-object join) prefers object-leading clustering.
    q8 = {c: cells["q8"].real for c, (cells, _) in summaries.items()}
    assert min(q8, key=q8.get) in ("OSP", "OPS")
