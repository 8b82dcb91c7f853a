"""Exec-parity harness: digest results and simulated costs per cell.

The unified execution layer (:mod:`repro.exec`) replaced two per-engine
``LogicalPlan`` interpreters.  Its contract is that the physical layer is
*invisible* to the benchmark: every engine x scheme cell must produce
byte-identical decoded results and bit-identical simulated timings to the
legacy executors.  This module packages that contract as a reusable sweep:

* :func:`parity_sweep` runs every benchmark query on every cell under the
  cold and hot protocols and returns a JSON-able document of result
  digests + exact timing fields;
* :func:`compare_parity` diffs two such documents field by field;
* ``scripts/capture_exec_goldens.py`` captures the document, and
  ``tests/test_exec_parity.py`` asserts the current tree still reproduces
  the goldens recorded from the pre-refactor executors.

Digests cover the *decoded* rows (sorted, so row order is out of scope —
SQL bags are unordered unless the plan sorts) while timings are compared
exactly: a single extra clock charge anywhere in an operator fails the
sweep.
"""

import hashlib

from repro.data import generate_barton
from repro.queries import ALL_QUERY_NAMES, build_query

PARITY_SCHEMA_VERSION = 1

#: Run protocols covered by the sweep.  ``cold`` clears the buffer pool
#: before the measured run; ``hot`` performs one unmeasured warm-up first,
#: which exercises the buffer-hit cost paths the cold run cannot.
PARITY_MODES = ("cold", "hot")


def parity_cells():
    """(label, engine factory, scheme builder) for every engine x scheme
    cell of the paper's matrix (the same grid ``repro verify`` sweeps)."""
    from repro.colstore import ColumnStoreEngine
    from repro.rowstore import RowStoreEngine
    from repro.storage import (
        build_property_table_store,
        build_triple_store,
        build_vertical_store,
    )

    return [
        ("column/triple-PSO", ColumnStoreEngine,
         lambda e, d: build_triple_store(
             e, d.triples, d.interesting_properties, clustering="PSO")),
        ("column/triple-SPO", ColumnStoreEngine,
         lambda e, d: build_triple_store(
             e, d.triples, d.interesting_properties, clustering="SPO")),
        ("column/vertical", ColumnStoreEngine,
         lambda e, d: build_vertical_store(
             e, d.triples, d.interesting_properties)),
        ("column/property-table", ColumnStoreEngine,
         lambda e, d: build_property_table_store(
             e, d.triples, d.interesting_properties)),
        ("row/triple-PSO", RowStoreEngine,
         lambda e, d: build_triple_store(
             e, d.triples, d.interesting_properties, clustering="PSO")),
        ("row/vertical", RowStoreEngine,
         lambda e, d: build_vertical_store(
             e, d.triples, d.interesting_properties)),
    ]


def result_digest(relation, dictionary, order):
    """SHA-256 over the sorted decoded rows (row order normalized)."""
    rows = sorted(relation.decoded_tuples(dictionary, order=order))
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
        digest.update(b"\n")
    return f"{len(rows)}:{digest.hexdigest()}"


def parity_sweep(n_triples=4000, n_properties=60, seed=42,
                 queries=ALL_QUERY_NAMES, modes=PARITY_MODES,
                 column_engine_options=None):
    """Run the full differential sweep; returns a JSON-able document.

    *column_engine_options* are extra constructor kwargs applied to every
    column-store cell — the morsel-parity suite passes ``workers`` and
    ``compression`` to assert that any worker count reproduces the serial
    goldens bit for bit, raw and compressed.
    """
    dataset = generate_barton(
        n_triples=n_triples,
        n_properties=n_properties,
        n_interesting=min(28, n_properties),
        seed=seed,
    )
    document = {
        "schema_version": PARITY_SCHEMA_VERSION,
        "meta": {
            "n_triples": n_triples,
            "n_properties": n_properties,
            "seed": seed,
            "modes": list(modes),
        },
        "cells": {},
    }
    for label, engine_cls, builder in parity_cells():
        options = {}
        if column_engine_options and engine_cls.kind == "column-store":
            options = dict(column_engine_options)
        engine = engine_cls(**options)
        catalog = builder(engine, dataset)
        cell = document["cells"][label] = {}
        for query in queries:
            plan = build_query(catalog, query)
            cell[query] = {}
            for mode in modes:
                relation, timing = engine.run(plan, mode=mode)
                cell[query][mode] = {
                    "digest": result_digest(
                        relation, catalog.dictionary, plan.output_columns()
                    ),
                    "timing": timing.to_dict(),
                }
    return document


def compare_parity(expected, actual):
    """Field-by-field diff of two sweep documents; returns mismatch strings
    (empty = parity holds)."""
    mismatches = []
    if expected.get("meta") != actual.get("meta"):
        mismatches.append(
            f"meta differs: {expected.get('meta')} vs {actual.get('meta')}"
        )
    expected_cells = expected.get("cells", {})
    actual_cells = actual.get("cells", {})
    for label in sorted(set(expected_cells) | set(actual_cells)):
        if label not in actual_cells:
            mismatches.append(f"{label}: missing from actual sweep")
            continue
        if label not in expected_cells:
            mismatches.append(f"{label}: unexpected extra cell")
            continue
        for query in sorted(
            set(expected_cells[label]) | set(actual_cells[label])
        ):
            left = expected_cells[label].get(query)
            right = actual_cells[label].get(query)
            if left is None or right is None:
                mismatches.append(f"{label} {query}: present on one side only")
                continue
            for mode in sorted(set(left) | set(right)):
                a, b = left.get(mode), right.get(mode)
                if a == b:
                    continue
                if a is None or b is None:
                    mismatches.append(
                        f"{label} {query} {mode}: present on one side only"
                    )
                    continue
                if a["digest"] != b["digest"]:
                    mismatches.append(
                        f"{label} {query} {mode}: result digest "
                        f"{a['digest']} != {b['digest']}"
                    )
                for field in sorted(set(a["timing"]) | set(b["timing"])):
                    if a["timing"].get(field) != b["timing"].get(field):
                        mismatches.append(
                            f"{label} {query} {mode}: timing.{field} "
                            f"{a['timing'].get(field)!r} != "
                            f"{b['timing'].get(field)!r}"
                        )
    return mismatches
