"""Table 7 — hot runs: every system x every query.

Its findings (user ~ real on the SQL engines, every hot cell at most its
cold one, the column-store black swans and G still holding hot) are the
entries of ``repro.bench.findings`` whose last read is ``table7``; the
cold side is the session's Table 6 result.
"""

from repro.bench.experiments import experiment_table7


def test_table7_hot_runs(benchmark, dataset, publish, findings_hold):
    result = benchmark.pedantic(
        experiment_table7, args=(dataset,), rounds=1, iterations=1
    )
    publish(result)
    findings_hold("table7", result)
