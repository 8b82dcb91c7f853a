"""EXTENSION — the property-table storage scheme.

The third physical organization in the debate: the property-table approach
of Jena2 (Wilkinson et al.) and Oracle (Chong et al.), which the VLDB 2007
paper criticizes and this paper explicitly leaves out of its experiments
("We do not analyze the property table dimension, which requires amongst
others an evaluation using database design wizards").  It is provided here
as an extension so the full three-way comparison can be run; the benchmark
harness and EXPERIMENTS.md treat it as out-of-paper material.

Layout (Jena2-style single-valued clustering):

* a wide ``ptable(subj, p_<oid>, p_<oid>, ...)`` holds one row per subject
  that has at least one *single-valued* clustered property; absent values
  are NULL (the ``NULL_OID`` sentinel),
* every other triple — non-clustered properties and every instance of a
  multi-valued (subject, property) pair — lives in a leftover ``triples``
  table clustered PSO.

Each stored triple is represented exactly once.  Queries that do not
bind the property, or bind one that is multi-valued somewhere, must UNION
the wide-table columns with the leftover table — the "proliferation of
union clauses and joins" criticism the paper quotes.
"""

import numpy as np

from repro.errors import StorageError
from repro.storage.catalog import clustering_columns
from repro.storage.payload import (
    build_store, prepare_triples, properties_entry, store_payload,
    table_entry,
)

#: Sentinel oid representing SQL NULL in wide-table columns.  Real oids are
#: non-negative, so -1 can never collide.
NULL_OID = -1


def property_column_name(prop_oid):
    return f"p_{prop_oid}"


def build_property_table_store(engine, triples, interesting_properties,
                               clustered_properties=None, dictionary=None):
    """Deploy the property-table scheme; returns a StoreCatalog.

    *clustered_properties* defaults to the interesting (Longwell) set —
    the choice a database design wizard would make from the query workload.
    """
    return build_store(
        engine, prepare_property_table_payload, triples,
        interesting_properties, clustered_properties=clustered_properties,
        dictionary=dictionary,
    )


def prepare_property_table_payload(triples, interesting_properties,
                                   clustered_properties=None,
                                   dictionary=None, with_indexes=False):
    """Prepare the property-table design without an engine.

    Works on the PSO-sorted triples: a ``(prop, subj)`` run of length one
    of a clustered property is a single-valued cell of the wide table;
    every other row stays, in PSO order, in the leftover table.
    """
    sort_by = clustering_columns("PSO")
    prepared = prepare_triples(
        triples, interesting_properties, sort_by, dictionary
    )
    if clustered_properties is None:
        clustered_properties = prepared.interesting_properties
    if not clustered_properties:
        raise StorageError("property-table scheme needs clustered properties")
    missing = set(clustered_properties).difference(prepared.all_properties)
    if missing:
        raise StorageError(
            f"clustered property {min(missing)!r} has no triples in the data"
        )
    oids = prepared.dictionary.lookup_many(clustered_properties)

    columns = prepared.columns
    subj, prop, obj = columns["subj"], columns["prop"], columns["obj"]
    run_start = np.ones(len(prop), dtype=bool)
    run_start[1:] = (prop[1:] != prop[:-1]) | (subj[1:] != subj[:-1])
    lengths = np.diff(np.append(np.flatnonzero(run_start), len(prop)))
    wide = np.repeat(lengths == 1, lengths) & np.isin(prop, oids)

    subjects = np.unique(subj[wide])
    wide_columns = {"subj": subjects}
    clustered_columns = {}
    for name, oid in zip(clustered_properties, oids):
        lo, hi = np.searchsorted(prop, [oid, oid + 1])
        cells = lo + np.flatnonzero(wide[lo:hi])
        values = np.full(len(subjects), NULL_OID, dtype=np.int64)
        values[np.searchsorted(subjects, subj[cells])] = obj[cells]
        column = property_column_name(oid)
        wide_columns[column] = values
        clustered_columns[name] = column

    leftover_indexes = [
        {"name": "leftover_pos", "columns": ["prop", "obj", "subj"]},
        {"name": "leftover_spo", "columns": ["subj", "prop", "obj"]},
    ]
    tables = [
        table_entry(
            "ptable", wide_columns, ["subj"], [] if with_indexes else None
        ),
        table_entry(
            "triples", {c: a[~wide] for c, a in columns.items()}, sort_by,
            leftover_indexes if with_indexes else None,
        ),
        properties_entry(prepared, with_indexes),
    ]
    return store_payload(
        prepared.dictionary,
        tables,
        scheme="property_table",
        clustering="subj+PSO",
        interesting_properties=prepared.interesting_properties,
        all_properties=prepared.all_properties,
        triples_table="triples",
        properties_table="properties",
        property_table_name="ptable",
        clustered_property_columns=clustered_columns,
    )
