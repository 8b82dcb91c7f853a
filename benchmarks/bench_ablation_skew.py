"""Ablation — property-distribution skew.

Section 4.4: "The highly Zipfian skew of property distribution and the
small number of properties observed on the benchmark data-set keeps this
effect to a minimum level.  Given an RDF data-set with more properties but
with the same overall number of triples, we anticipate that these
scalability issues will arise to the surface in a more obvious way."

This ablation varies the *skew* at fixed triple and property counts: the
head properties carry 99%, 80% or 60% of the triples.  The measured result
sharpens the paper's diagnosis: the vert/triple ratio for the full-scale
queries is nearly *insensitive* to skew — q2* visits all 222 property
tables no matter where the mass sits, so the per-table overheads (unions,
joins, table opens) depend on the table COUNT, not the distribution.  The
scalability threat the paper anticipates is therefore driven by the number
of properties (Figure 7's knob), and a low-skew dataset is dangerous for
vertical partitioning exactly insofar as it implies that queries cannot be
restricted to a small interesting subset.
"""

from repro.bench import format_table
from repro.bench.systems import data_scale
from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.engine import COLUMN_STORE_COSTS, MACHINE_B
from repro.queries import build_query
from repro.storage import build_triple_store, build_vertical_store


def run_skew_ablation(n_triples, seed, head_masses=(0.99, 0.8, 0.6)):
    rows = []
    ratios = {}
    for head_mass in head_masses:
        dataset = generate_barton(
            n_triples=n_triples, seed=seed, head_mass=head_mass,
            tail_decay=0.999,
        )
        scale = data_scale(dataset)
        times = {}
        for label, build in (
            ("triple", lambda e, d: build_triple_store(
                e, d.triples, d.interesting_properties, clustering="PSO")),
            ("vert", lambda e, d: build_vertical_store(
                e, d.triples, d.interesting_properties)),
        ):
            engine = ColumnStoreEngine(
                machine=MACHINE_B.scaled(scale),
                costs=COLUMN_STORE_COSTS.scaled(scale),
            )
            catalog = build(engine, dataset)
            plan = build_query(catalog, "q2*")
            _, timing = engine.run(plan, mode="cold")
            times[label] = timing.real_seconds / scale
        ratio = times["vert"] / times["triple"]
        ratios[head_mass] = ratio
        rows.append(
            [
                f"{head_mass:.0%} in head",
                round(times["triple"], 2),
                round(times["vert"], 2),
                round(ratio, 2),
            ]
        )
    table = format_table(
        ["skew", "q2* triple (s)", "q2* vert (s)", "vert/triple"],
        rows,
        title="Ablation: property-distribution skew vs q2* "
              "(column store, cold, scaled seconds)",
    )
    return table, ratios


def test_skew_ablation(benchmark, publish):
    table, ratios = benchmark.pedantic(
        run_skew_ablation, args=(60_000, 42), rounds=1, iterations=1
    )
    publish(("ablation_skew", table))

    values = list(ratios.values())
    # The triple-store wins q2* at every skew level...
    assert all(r > 1.0 for r in values)
    # ... and the ratio is insensitive to skew (within 15%): the vertical
    # scheme's full-scale overhead is a per-TABLE cost, set by the property
    # count, not by the mass distribution.
    assert max(values) / min(values) < 1.15
