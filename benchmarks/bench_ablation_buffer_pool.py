"""Ablation — buffer pool size vs hot-run behaviour.

The benchmark's hot/cold dichotomy assumes the working set fits in memory
(it did on the paper's machines: the 28-property database was ~270 MB
against 2-4 GB of RAM).  This ablation shrinks the column store's buffer
pool below the q2 working set and watches hot runs degrade from CPU-bound
back to I/O-bound — the continuum between the paper's Table 6 and Table 7.
"""

from repro.bench.reporting import format_table
from repro.colstore import ColumnStoreEngine
from repro.queries import build_query
from repro.storage import build_vertical_store


def run_buffer_ablation(dataset):
    probe = ColumnStoreEngine()
    build_vertical_store(
        probe, dataset.triples, dataset.interesting_properties
    )
    database_bytes = probe.database_bytes()

    fractions = (2.0, 1.0, 0.5, 0.2, 0.05)
    rows = []
    measurements = {}
    for fraction in fractions:
        engine = ColumnStoreEngine(
            buffer_bytes=max(int(database_bytes * fraction), 8192 * 4)
        )
        catalog = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties
        )
        plan = build_query(catalog, "q2")
        _, cold = engine.run(plan, mode="cold")
        _, hot = engine.run(plan, mode="hot")
        measurements[fraction] = (cold, hot)
        rows.append(
            [
                f"{fraction:g}x database",
                round(cold.real_seconds * 1e3, 3),
                round(hot.real_seconds * 1e3, 3),
                hot.bytes_read,
            ]
        )
    table = format_table(
        ["buffer pool", "cold real (ms)", "hot real (ms)", "hot bytes read"],
        rows,
        title="Ablation: buffer pool size vs q2 hot-run behaviour "
              "(column store, vertically-partitioned)",
    )
    return table, measurements


def test_buffer_pool_ablation(benchmark, dataset, publish):
    table, measurements = benchmark.pedantic(
        run_buffer_ablation, args=(dataset,), rounds=1, iterations=1
    )
    publish(("ablation_buffer_pool", table))

    # Ample pool: hot runs are pure CPU.
    cold, hot = measurements[2.0]
    assert hot.bytes_read == 0
    assert hot.real_seconds < cold.real_seconds

    # Starved pool: hot runs re-read from disk and converge toward cold.
    _, starved_hot = measurements[0.05]
    assert starved_hot.bytes_read > 0
    assert starved_hot.real_seconds > hot.real_seconds

    # Monotone degradation as the pool shrinks.
    hots = [measurements[f][1].real_seconds for f in (2.0, 0.5, 0.05)]
    assert hots[0] <= hots[1] <= hots[2]
