"""Figure 6 — execution time vs number of properties (28 to 222).

MonetDB, queries q2/q3/q4/q6, triple-PSO vs vertically-partitioned.  The
rise-flat-drop shape is the ``figure6`` entries of ``repro.bench.findings``.
"""

from repro.bench.experiments import experiment_figure6


def test_figure6_property_count_sweep(benchmark, dataset, publish,
                                      findings_hold):
    results = benchmark.pedantic(
        experiment_figure6, args=(dataset,), rounds=1, iterations=1
    )
    publish(results)
    findings_hold("figure6", results)
