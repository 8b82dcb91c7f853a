"""Deploy the triple-store scheme into an engine.

The triples table holds one dictionary-encoded row per triple.  On the row
store the clustering order materializes as the clustered B+tree; the paper's
two configurations are

* ``SPO`` — the VLDB 2007 design: clustered SPO, unclustered POS and OSP,
* ``PSO`` — this paper's improvement: clustered PSO plus unclustered
  B+trees on all five other permutations ("having all index permutations
  allows DBX's optimizer to create more efficient query plans").

On the column store the clustering is realized purely as a sort order
(MonetDB has no user-defined indices).
"""

from repro.storage.catalog import CLUSTERINGS, clustering_columns
from repro.storage.payload import (
    build_store, prepare_triples, properties_entry, store_payload,
    table_entry,
)

#: Indexes per clustering for row stores, mirroring the paper's setups.
_INDEX_SETS = {
    "SPO": ("POS", "OSP"),
    "PSO": tuple(sorted(set(CLUSTERINGS) - {"PSO"})),
}


def build_triple_store(engine, triples, interesting_properties,
                       clustering="PSO", dictionary=None, with_indexes=None):
    """Create the triples + properties tables inside *engine*.

    *triples* is an iterable of string triples; *interesting_properties* the
    property names of the Longwell filter (most frequent first).  Returns a
    :class:`StoreCatalog`.
    """
    return build_store(
        engine, prepare_triple_payload, triples, interesting_properties,
        with_indexes, clustering=clustering, dictionary=dictionary,
    )


def prepare_triple_payload(triples, interesting_properties,
                           clustering="PSO", dictionary=None,
                           with_indexes=False):
    """Prepare the triple-store physical design without an engine.

    Returns a payload (see :mod:`repro.storage.payload`) holding the
    encoded, load-ordered tables — the expensive half of a deploy.
    """
    clustering = clustering.upper()
    sort_by = list(clustering_columns(clustering))
    prepared = prepare_triples(
        triples, interesting_properties, sort_by, dictionary
    )
    indexes = None
    if with_indexes:
        indexes = [
            {"name": f"idx_{perm.lower()}",
             "columns": list(clustering_columns(perm))}
            for perm in _INDEX_SETS.get(clustering, ())
        ]
    return store_payload(
        prepared.dictionary,
        [
            table_entry("triples", prepared.columns, sort_by, indexes),
            properties_entry(prepared, with_indexes),
        ],
        scheme="triple",
        clustering=clustering,
        interesting_properties=prepared.interesting_properties,
        all_properties=prepared.all_properties,
        triples_table="triples",
        properties_table="properties",
    )
