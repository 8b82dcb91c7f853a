"""Table 5 — data relevant to a query (bytes read from disk, rows returned).

Its findings (magnitudes within 10x of the paper, q1 the cheapest scan)
and the q5 deviation are the ``table5`` entries of ``repro.bench.findings``.
"""

from repro.bench.experiments import experiment_table5


def test_table5_data_read_per_query(benchmark, dataset, publish,
                                    findings_hold):
    result = benchmark.pedantic(
        experiment_table5, args=(dataset,), rounds=1, iterations=1
    )
    publish(result)
    findings_hold("table5", result)
