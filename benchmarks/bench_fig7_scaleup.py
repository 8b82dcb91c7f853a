"""Figure 7 — the scalability experiment: splitting properties 222 -> 1000.

Same number of triples, growing property vocabulary (uniform redistribution
over sub-properties).  The scaling cliff of the vertically-partitioned
scheme is the ``figure7`` entries of ``repro.bench.findings``.
"""

from repro.bench.experiments import experiment_figure7


def test_figure7_property_splitting_scaleup(benchmark, dataset, publish,
                                            findings_hold):
    result = benchmark.pedantic(
        experiment_figure7, args=(dataset,), rounds=1, iterations=1
    )
    publish(result)
    findings_hold("figure7", result)
