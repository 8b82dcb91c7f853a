"""EXTENSION — three-way storage-scheme comparison.

The paper excludes the property-table dimension from its experiments; this
extension bench runs it anyway: triple-store (PSO), vertically-partitioned,
and property-table on the column store, over all 12 queries, cold.

Expected shape (from the VLDB 2007 criticisms the paper quotes): the
property table is competitive on the property-restricted queries (its wide
rows serve bound single-valued properties well on a column store, which
prunes unused columns) but suffers the same union/join proliferation as
vertical partitioning on unbound-property queries, with the extra burden of
the leftover-table branches.
"""

from repro.bench import TimingCell, format_table, summarize
from repro.bench.systems import data_scale
from repro.colstore import ColumnStoreEngine
from repro.engine import COLUMN_STORE_COSTS, MACHINE_B
from repro.queries import ALL_QUERY_NAMES, build_query
from repro.storage import (
    build_property_table_store,
    build_triple_store,
    build_vertical_store,
)

BUILDERS = {
    "triple-PSO": lambda e, d: build_triple_store(
        e, d.triples, d.interesting_properties, clustering="PSO"
    ),
    "vertical": lambda e, d: build_vertical_store(
        e, d.triples, d.interesting_properties
    ),
    "property-table": lambda e, d: build_property_table_store(
        e, d.triples, d.interesting_properties
    ),
}


def run_three_way(dataset):
    scale = data_scale(dataset)
    rows = []
    summaries = {}
    for label, build in BUILDERS.items():
        engine = ColumnStoreEngine(
            machine=MACHINE_B.scaled(scale),
            costs=COLUMN_STORE_COSTS.scaled(scale),
        )
        catalog = build(engine, dataset)
        cells = {}
        for query in ALL_QUERY_NAMES:
            plan = build_query(catalog, query)
            _, timing = engine.run(plan, mode="cold")
            cells[query] = TimingCell(
                timing.real_seconds / scale,
                timing.user_seconds / scale,
            )
        summary = summarize(cells)
        summaries[label] = (cells, summary)
        rows.append(
            [label]
            + [round(cells[q].real, 2) for q in ALL_QUERY_NAMES]
            + [round(summary["G_real"], 2), round(summary["Gstar_real"], 2)]
        )
    table = format_table(
        ["scheme"] + list(ALL_QUERY_NAMES) + ["G", "G*"],
        rows,
        title="Extension: three-way scheme comparison "
              "(column store, cold, scaled seconds)",
    )
    return table, summaries


def test_three_way_scheme_comparison(benchmark, dataset, publish):
    table, summaries = benchmark.pedantic(
        run_three_way, args=(dataset,), rounds=1, iterations=1
    )
    publish(("ext_property_table", table))

    pt_cells, pt = summaries["property-table"]
    t_cells, triple = summaries["triple-PSO"]
    v_cells, vert = summaries["vertical"]

    # Results agree across schemes (sanity: same data, same answers) is
    # covered by unit tests; here we check the performance shape.

    # The property table pays the union tax on the full-scale queries:
    # the triple-store beats it on every star variant and q8.
    for q in ("q2*", "q3*", "q6*", "q8"):
        assert t_cells[q].real < pt_cells[q].real, q

    # Its G*/G growth is vertical-partitioning-like, not triple-store-like.
    assert pt["ratio_real"] > triple["ratio_real"]

    # But bound single-valued properties are served well: the wide table is
    # within a small factor of the vertical scheme on the restricted G.
    assert pt["G_real"] < vert["G_real"] * 3
