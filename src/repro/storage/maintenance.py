"""EXTENSION — incremental maintenance of deployed storage schemes.

The benchmark is read-only by convention (Section 2.3), but the paper makes
a structural point about updates: "in case of an update in properties, the
queries have to be re-produced.  Here holds the general observation that
data-driven logical schemes make queries susceptible to updates"
(Section 4.2).  This module makes that observation executable:

* inserting triples into a **triple-store** rewrites one table (a sorted
  merge into the clustered order) and never changes the logical schema,
* inserting into a **vertically-partitioned** store rewrites only the
  touched property tables — but a triple with a *previously unseen
  property* requires ``CREATE TABLE`` and invalidates every generated
  query that iterates the property list (the q2*/q3*/q4*/q6*/q8 family).

An insert runs in two phases, so a batch that fails leaves the tables,
the disk and the caller's catalog as they were:

1. **Encode.** The frozen dictionary is thawed by copy
   (:meth:`~repro.dictionary.Dictionary.copy_of`), and the whole batch is
   encoded and validated before any table is touched.
2. **Apply.** Each touched table absorbs its rows through the engine's
   :meth:`~repro.exec.host.PlanHost.merge_rows`: the few new rows are
   sorted, searched into the stored sorted columns and inserted there, and
   the table is re-created from the merged columns exactly as a
   drop-and-resort would have laid it out.  A new vertical property gets
   ``create_table``.

Tables hold sets: a triple already stored, or repeated in the batch, is
stored once, and a batch with nothing new touches no table.  The
:class:`MaintenanceReport` accounts what had to be rewritten (the
re-created tables' bytes) so the cost asymmetry between the schemes is
measurable.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.dictionary import Dictionary
from repro.errors import StorageError
from repro.storage.encoding import is_order_preserving
from repro.storage.payload import properties_by_frequency
from repro.storage.vertical_store import property_table_indexes


@dataclass
class MaintenanceReport:
    """What one batch insert did to the physical store."""

    n_triples: int
    tables_rebuilt: list = field(default_factory=list)
    tables_created: list = field(default_factory=list)
    bytes_rewritten: int = 0
    new_properties: list = field(default_factory=list)
    #: New strings got appended oids that broke the order-preserving
    #: dictionary assignment; range predicates on encoded columns need a
    #: dictionary rebuild.
    needs_reorganization: bool = False

    @property
    def schema_changed(self):
        """Did the logical schema change (new tables appear)?"""
        return bool(self.tables_created)

    @property
    def plans_invalidated(self):
        """Must generated all-property queries be re-produced?

        True exactly when the logical schema grew: every
        vertically-partitioned query that iterates the property tables in
        its FROM clause is now incomplete (the paper's Section 4.2 point).
        A triple-store absorbs new properties without schema change, so its
        queries never go stale.
        """
        return self.schema_changed


def insert_triples(engine, catalog, triples):
    """Insert *triples* into a deployed scheme; returns
    ``(new_catalog, MaintenanceReport)``.

    The catalog is replaced (its dictionary may have grown and, for the
    vertical scheme, its table map may have gained entries); the engine is
    updated in place.  Nothing is applied unless the whole batch encodes.
    """
    if catalog.is_triple_store():
        insert = _insert_triple_store
    elif catalog.is_vertical():
        insert = _insert_vertical
    else:
        raise StorageError(
            f"incremental maintenance not implemented for scheme "
            f"{catalog.scheme!r}"
        )
    triples = list(triples)
    dictionary = Dictionary.copy_of(catalog.dictionary)
    report = MaintenanceReport(n_triples=len(triples))
    changes = insert(engine, catalog, triples, dictionary, report)
    report.new_properties.sort()
    if dictionary.needs_reorganization or not is_order_preserving(dictionary):
        dictionary.needs_reorganization = True
        report.needs_reorganization = True
    new_catalog = dataclasses.replace(
        catalog, dictionary=dictionary.freeze(), **changes
    )
    return new_catalog, report


def _merge(engine, name, columns, report):
    table = engine.merge_rows(name, columns)
    if table is not None:
        report.tables_rebuilt.append(name)
        report.bytes_rewritten += table.bytes_on_disk()


def _insert_triple_store(engine, catalog, triples, dictionary, report):
    # Encode: subject, property, object of each triple in batch order.
    rows = dictionary.encode_many(
        [x for t in triples for x in (t.s, t.p, t.o)]
    ).reshape(-1, 3)
    report.new_properties = list(
        {t.p for t in triples}.difference(catalog.all_properties)
    )
    # Apply.  New properties extend the vocabulary but NOT the schema: the
    # triple-store's queries never enumerate properties.
    name = catalog.triples_table
    _merge(engine, name, {
        "subj": rows[:, 0], "prop": rows[:, 1], "obj": rows[:, 2],
    }, report)
    return {"all_properties": properties_by_frequency(
        dictionary, engine.table(name).array("prop")
    )}


def _insert_vertical(engine, catalog, triples, dictionary, report):
    # Encode: subject and object of each triple in batch order, then the
    # name of each new property in first-seen order.
    pairs = dictionary.encode_many(
        [x for t in triples for x in (t.s, t.o)]
    ).reshape(-1, 2)
    rows_of = {}
    for i, t in enumerate(triples):
        rows_of.setdefault(t.p, []).append(i)
    property_tables = dict(catalog.property_tables)
    new = [p for p in rows_of if p not in property_tables]
    for p, oid in zip(new, dictionary.encode_many(new).tolist()):
        property_tables[p] = f"vp_{oid}"
    report.new_properties = new

    # Apply, one table per property in first-seen order.  A new property
    # table copies the index design of the store's existing ones.
    sibling = next(iter(catalog.property_tables.values()), None)
    with_indexes = sibling is not None and bool(
        engine.table(sibling).definition()[1]
    )
    for p, rows in rows_of.items():
        name = property_tables[p]
        if p in catalog.property_tables:
            _merge(engine, name, {
                "subj": pairs[rows, 0], "obj": pairs[rows, 1],
            }, report)
            continue
        # The data-driven schema grows: CREATE TABLE, and every generated
        # all-property query is now stale.
        distinct = np.unique(pairs[rows], axis=0)
        table = engine.create_table(
            name, {"subj": distinct[:, 0], "obj": distinct[:, 1]},
            sort_by=["subj", "obj"],
            indexes=property_table_indexes(name, with_indexes),
        )
        report.tables_created.append(name)
        report.bytes_rewritten += table.bytes_on_disk()

    ranked = sorted(
        [(-engine.table(t).n_rows, p) for p, t in property_tables.items()]
    )
    return {
        "property_tables": property_tables,
        "all_properties": [p for _, p in ranked],
    }
