"""Deploy the vertically-partitioned scheme into an engine.

One two-column ``(subj, obj)`` table per distinct property, data sorted on
(subject, object).  On the row store each table additionally gets a
clustered B+tree on SO and an unclustered B+tree on OS (paper, Section 4.2).
For the Barton-like data set "this calls for 222 tables, many with just a
small number of rows (less than 10)".
"""

import numpy as np

from repro.storage.catalog import clustering_columns
from repro.storage.payload import (
    build_store, prepare_triples, properties_entry, store_payload,
    table_entry,
)


def build_vertical_store(engine, triples, interesting_properties,
                         dictionary=None, with_indexes=None):
    """Create per-property tables inside *engine*; returns a StoreCatalog."""
    return build_store(
        engine, prepare_vertical_payload, triples, interesting_properties,
        with_indexes, dictionary=dictionary,
    )


def property_table_indexes(table_name, with_indexes):
    """Index specs of one property table: the unclustered OS B+tree when
    *with_indexes* (the row store), else none."""
    if not with_indexes:
        return None
    return [{"name": f"{table_name}_os", "columns": ["obj", "subj"]}]


def prepare_vertical_payload(triples, interesting_properties,
                             dictionary=None, with_indexes=False):
    """Prepare the vertically-partitioned design without an engine.

    Returns a picklable payload (see :mod:`repro.storage.payload`) carrying
    one ``(subj, obj)`` table per property, for the artifact cache to
    persist between benchmark runs.  The triples are sorted PSO, so each
    property's table is a slice of one column pair, already in SO order;
    the tables are views of that pair, created in first-seen property
    order.
    """
    prepared = prepare_triples(
        triples, interesting_properties, clustering_columns("PSO"),
        dictionary,
    )
    subj, prop, obj = (prepared.columns[c] for c in ("subj", "prop", "obj"))
    oids = prepared.first_seen
    runs = zip(
        prepared.dictionary.decode_many(oids),
        oids.tolist(),
        np.searchsorted(prop, oids, side="left").tolist(),
        np.searchsorted(prop, oids, side="right").tolist(),
    )
    tables = []
    property_tables = {}
    for p_name, oid, lo, hi in runs:
        table_name = f"vp_{oid}"
        tables.append(table_entry(
            table_name,
            {"subj": subj[lo:hi], "obj": obj[lo:hi]},
            ["subj", "obj"],
            property_table_indexes(table_name, with_indexes),
        ))
        property_tables[p_name] = table_name
    tables.append(properties_entry(prepared, with_indexes))
    return store_payload(
        prepared.dictionary,
        tables,
        scheme="vertical",
        clustering="SO",
        interesting_properties=prepared.interesting_properties,
        all_properties=prepared.all_properties,
        properties_table="properties",
        property_tables=property_tables,
    )
