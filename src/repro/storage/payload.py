"""Pickle-friendly store payloads: prepared physical designs.

A *store payload* is everything a storage-scheme builder computes before it
touches an engine: the dictionary's string heap, every table's columns
already dictionary-encoded and sorted into load order, the index specs, and
the catalog fields.  Payloads are plain dicts of numpy arrays, lists and
strings — picklable, so the benchmark artifact cache can persist them — and
applying one to an engine (:func:`build_store_from_payload`) produces a
store byte-identical to a fresh build: same table creation order, same
segment layout, same frozen dictionary.

Every scheme starts from the one preparation, :func:`prepare_triples`, and
only cuts its sorted columns into tables.
"""

from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.dictionary import Dictionary
from repro.model.triple import Triple
from repro.storage.catalog import StoreCatalog
from repro.storage.encoding import order_preserving_dictionary

#: Interesting properties when none are named: the 28 most frequent.
DEFAULT_INTERESTING = 28


class Prepared(NamedTuple):
    """What :func:`prepare_triples` returns; ``columns`` maps ``subj`` /
    ``prop`` / ``obj`` to oid arrays, ``first_seen`` lists property oids in
    input order."""

    dictionary: Dictionary
    columns: dict
    all_properties: list
    first_seen: np.ndarray
    interesting_properties: list
    interesting_oids: np.ndarray


def prepare_triples(triples, interesting_properties, sort_by,
                    dictionary=None):
    """Build the order-preserving dictionary, encode the triples
    column-at-a-time, sort the rows once into *sort_by* order and drop
    repeated rows (an RDF graph is a set).

    *interesting_properties* ``None`` means the :data:`DEFAULT_INTERESTING`
    most frequent properties.  A named one without triples filters nothing
    in: it keeps its oid in the ``properties`` table, interned in order with
    the vocabulary, but no scheme lists it (the vertical store has no table
    for it).
    """
    triples = list(triples)
    named = list(interesting_properties or ())
    dictionary = order_preserving_dictionary(
        triples + [Triple(p, p, p) for p in named], dictionary
    )
    columns = {
        name: np.fromiter(
            dictionary.encode_many(map(attrgetter(term), triples)),
            dtype=np.int64, count=len(triples),
        )
        for name, term in (("subj", "s"), ("prop", "p"), ("obj", "o"))
    }
    oids, first = np.unique(columns["prop"], return_index=True)
    order = _load_order([columns[c] for c in sort_by], len(dictionary))
    columns = {c: a[order] for c, a in columns.items()}
    # Sorted, a repeated triple is a row equal to its predecessor.
    fresh = np.ones(len(order), dtype=bool)
    fresh[1:] = np.any([a[1:] != a[:-1] for a in columns.values()], axis=0)
    if not fresh.all():
        columns = {c: a[fresh] for c, a in columns.items()}
    all_properties = properties_by_frequency(dictionary, columns["prop"])
    if interesting_properties is None:
        named = all_properties[:DEFAULT_INTERESTING]
    present = set(all_properties)
    return Prepared(
        dictionary, columns, all_properties, oids[np.argsort(first)],
        [p for p in named if p in present],
        np.sort(np.asarray(dictionary.lookup_many(named), dtype=np.int64)),
    )


def _load_order(keys, width):
    """The permutation sorting rows by *keys*, most significant first.

    Every oid is below *width*, so while ``width ** len(keys)`` fits an
    int64 the keys fold into one integer and a single argsort orders them;
    a wider vocabulary takes the engines' ``np.lexsort``.
    """
    if width ** len(keys) <= 2 ** 63:
        folded = keys[0]
        for key in keys[1:]:
            folded = folded * width + key
        return np.argsort(folded)
    return np.lexsort(keys[::-1])


def properties_by_frequency(dictionary, prop_column):
    """Names of the properties in *prop_column*, most frequent first."""
    oids, counts = np.unique(prop_column, return_counts=True)
    ranked = sorted(zip((-counts).tolist(), dictionary.decode_many(oids)))
    return [p for _, p in ranked]


def table_entry(name, columns, sort_by, indexes=None):
    """One table of a payload; *columns* already arrive in *sort_by*
    order, which ``presorted=True`` tells the engine."""
    return {"name": name, "columns": columns, "sort_by": list(sort_by),
            "indexes": indexes}


def properties_entry(prepared, with_indexes):
    """The interesting-property filter table joined by q2/q3/q4/q6."""
    return table_entry(
        "properties", {"prop": prepared.interesting_oids}, ["prop"],
        [] if with_indexes else None,
    )


def store_payload(dictionary, tables, **catalog_fields):
    """Bundle a prepared physical design into a picklable payload dict."""
    return {
        "strings": list(dictionary),
        "tables": tables,
        "catalog": catalog_fields,
    }


def build_store(engine, prepare, triples, interesting_properties,
                with_indexes=None, **options):
    """Create the payload *prepare* returns inside *engine*;
    *with_indexes* defaults to the row store's B+trees."""
    if with_indexes is None:
        with_indexes = engine.kind == "row-store"
    return build_store_from_payload(engine, prepare(
        triples, interesting_properties, with_indexes=with_indexes, **options
    ))


def build_store_from_payload(engine, payload):
    """Create every table of *payload* inside *engine*.

    The per-table ``presorted=True`` skips the engine's load sort — the
    payload already holds the columns in load order.  Returns the
    :class:`StoreCatalog` described by the payload.
    """
    dictionary = Dictionary.from_interned(payload["strings"])
    for entry in payload["tables"]:
        engine.create_table(
            entry["name"],
            entry["columns"],
            sort_by=entry["sort_by"],
            indexes=entry["indexes"],
            presorted=True,
        )
    return StoreCatalog(
        dictionary=dictionary.freeze(),
        compression=getattr(engine, "compression_mode", None),
        **payload["catalog"],
    )
