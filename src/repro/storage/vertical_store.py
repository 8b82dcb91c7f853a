"""Deploy the vertically-partitioned scheme into an engine.

One two-column ``(subj, obj)`` table per distinct property, data sorted on
(subject, object).  On the row store each table additionally gets a
clustered B+tree on SO and an unclustered B+tree on OS (paper, Section 4.2).
For the Barton-like data set "this calls for 222 tables, many with just a
small number of rows (less than 10)".
"""

import numpy as np

from repro.storage.encoding import order_preserving_dictionary
from repro.storage.payload import (
    build_store_from_payload,
    store_payload,
    table_entry,
)


def build_vertical_store(engine, triples, interesting_properties,
                         dictionary=None, with_indexes=None,
                         with_properties_table=True):
    """Create per-property tables inside *engine*; returns a StoreCatalog."""
    if with_indexes is None:
        with_indexes = engine.kind == "row-store"
    payload = prepare_vertical_payload(
        triples, interesting_properties, dictionary=dictionary,
        with_indexes=with_indexes,
        with_properties_table=with_properties_table,
    )
    return build_store_from_payload(engine, payload)


def property_table_indexes(table_name, with_indexes):
    """Index specs of one property table: the unclustered OS B+tree when
    *with_indexes* (the row store), else none."""
    if not with_indexes:
        return None
    return [{"name": f"{table_name}_os", "columns": ["obj", "subj"]}]


def prepare_vertical_payload(triples, interesting_properties,
                             dictionary=None, with_indexes=False,
                             with_properties_table=True):
    """Prepare the vertically-partitioned design without an engine.

    Returns a picklable payload (see :mod:`repro.storage.payload`) carrying
    one pre-sorted ``(subj, obj)`` table per property, for the artifact
    cache to persist between benchmark runs.
    """
    triples = list(triples)
    dictionary = order_preserving_dictionary(triples, dictionary)

    # Encode column-at-a-time, then find every property group with a single
    # stable argsort over the property oids: each group is one contiguous
    # run of the sorted order, with the triples' original relative order
    # preserved inside it (stable sort).
    n = len(triples)
    p_list = [t.p for t in triples]
    subjects = np.fromiter(
        dictionary.encode_many([t.s for t in triples]), dtype=np.int64, count=n
    )
    p_oids = np.fromiter(
        dictionary.encode_many(p_list), dtype=np.int64, count=n
    )
    objects = np.fromiter(
        dictionary.encode_many([t.o for t in triples]), dtype=np.int64, count=n
    )
    order = np.argsort(p_oids, kind="stable")
    sorted_p = p_oids[order]
    if n:
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_p[1:] != sorted_p[:-1]))
        )
        ends = np.concatenate((starts[1:], [n]))
        runs = {
            int(sorted_p[s]): (int(s), int(e)) for s, e in zip(starts, ends)
        }
    else:
        runs = {}

    tables = []
    property_tables = {}
    property_counts = {}
    # dict.fromkeys keeps first-seen property order, matching the table
    # creation order of the per-triple loop this replaces.
    for p_name in dict.fromkeys(p_list):
        oid = dictionary.lookup(p_name)
        start, end = runs[oid]
        property_counts[p_name] = end - start
        members = order[start:end]
        table_name = f"vp_{oid}"
        tables.append(table_entry(
            table_name,
            {"subj": subjects[members], "obj": objects[members]},
            ["subj", "obj"],
            property_table_indexes(table_name, with_indexes),
        ))
        property_tables[p_name] = table_name

    properties_table = None
    if with_properties_table:
        oids = np.asarray(
            [dictionary.encode(p) for p in interesting_properties],
            dtype=np.int64,
        )
        tables.append(table_entry(
            "properties", {"prop": oids}, ["prop"],
            [] if with_indexes else None,
        ))
        properties_table = "properties"

    all_properties = sorted(
        property_counts, key=lambda p: (-property_counts[p], p)
    )
    return store_payload(
        dictionary,
        tables,
        scheme="vertical",
        clustering="SO",
        interesting_properties=list(interesting_properties),
        all_properties=all_properties,
        properties_table=properties_table,
        property_tables=property_tables,
    )
