"""Table 4 — repetition of the C-Store experiment (machines A and B).

The paper's Section 3 findings on it (hot far cheaper than cold, user below
real, machine B's faster disk buying little) are the ``table4`` entries of
``repro.bench.findings``.
"""

from repro.bench.experiments import experiment_table3, experiment_table4


def test_table4_cstore_repetition(benchmark, dataset, publish, findings_hold):
    publish(experiment_table3())  # the machine table the runs refer to
    result = benchmark.pedantic(
        experiment_table4, args=(dataset,), rounds=1, iterations=1
    )
    publish(result)
    findings_hold("table4", result)
