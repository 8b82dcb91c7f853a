"""Table 6 — cold runs: every system x every query.

The Section 4.3 findings on it (PSO over SPO, the row-store and
column-store black swans, the larger G*/G of the vertical scheme) are the
entries of ``repro.bench.findings`` that read ``table6``; those that also
read ``table7`` are checked by ``bench_table7_hot.py``.
"""

from repro.bench.experiments import experiment_table6


def test_table6_cold_runs(benchmark, dataset, publish, findings_hold):
    result = benchmark.pedantic(
        experiment_table6, args=(dataset,), rounds=1, iterations=1
    )
    publish(result)
    findings_hold("table6", result)
