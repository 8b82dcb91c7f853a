"""Tour of the library's beyond-the-paper extensions.

1. SPARQL over any engine x scheme,
2. SQL with ORDER BY / LIMIT (order-preserving dictionary encoding),
3. the property-table scheme (the third layout of the debate),
4. incremental maintenance and the schema-change asymmetry.

Run with::

    python examples/extensions_tour.py
"""

from repro import RDFStore
from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.model.triple import Triple
from repro.queries import build_query
from repro.storage import (
    build_property_table_store,
    build_triple_store,
    build_vertical_store,
    insert_triples,
)

CATALOG = """
<book/1> <type> <Text> .
<book/1> <language> <fre> .
<book/1> <pages> "096" .
<book/2> <type> <Text> .
<book/2> <language> <eng> .
<book/2> <pages> "635" .
<book/3> <type> <Text> .
<book/3> <language> <eng> .
<book/3> <pages> "310" .
"""


def sparql_demo():
    print("=== SPARQL ===")
    store = RDFStore.from_ntriples(CATALOG, scheme="vertical")
    bindings = store.connection().session().query("""
        SELECT ?book ?pages WHERE {
            ?book <type> <Text> .
            ?book <pages> ?pages .
            FILTER(?book != <book/2>)
        } LIMIT 5
    """).bindings()
    for b in bindings:
        print(f"  {b['book']}: {b['pages']} pages")


def order_by_demo():
    print("\n=== SQL ORDER BY / LIMIT ===")
    store = RDFStore.from_ntriples(CATALOG, scheme="triple")
    rows = store.connection().session().query(
        "SELECT A.subj, A.obj FROM triples AS A "
        "WHERE A.prop = '<pages>' ORDER BY A.obj DESC LIMIT 2"
    )
    print("  two longest books (string order via order-preserving oids):")
    for subj, pages in rows:
        print(f"    {subj}: {pages}")


def property_table_demo():
    print("\n=== Property-table scheme (the layout the paper excluded) ===")
    dataset = generate_barton(n_triples=20_000, n_properties=40, seed=7)
    engine = ColumnStoreEngine()
    catalog = build_property_table_store(
        engine, dataset.triples, dataset.interesting_properties
    )
    wide = engine.table(catalog.property_table_name)
    print(f"  wide table: {wide.n_rows} subjects x "
          f"{len(wide.column_names()) - 1} property columns")
    leftover = engine.table(catalog.triples_table)
    print(f"  leftover triples (multi-valued + unclustered): "
          f"{leftover.n_rows}")
    plan = build_query(catalog, "q1")
    relation, timing = engine.run(plan)
    print(f"  q1 -> {relation.n_rows} classes in "
          f"{timing.real_seconds * 1e3:.2f} simulated ms")


def maintenance_demo():
    print("\n=== Incremental maintenance (Section 4.2, made executable) ===")
    dataset = generate_barton(n_triples=20_000, n_properties=40, seed=7)
    batch = [
        Triple("<entity/3>", "<type>", "<Text>"),
        Triple("<entity/3>", "<isbn>", '"978-0241972939"'),  # new property
    ]
    for label, build in (
        ("triple-store", build_triple_store),
        ("vertical", build_vertical_store),
    ):
        engine = ColumnStoreEngine()
        catalog = build(
            engine, dataset.triples, dataset.interesting_properties
        )
        catalog, report = insert_triples(engine, catalog, batch)
        print(
            f"  {label:>12}: rebuilt {len(report.tables_rebuilt)} table(s), "
            f"created {len(report.tables_created)}, "
            f"rewrote {report.bytes_rewritten} bytes, "
            f"generated queries stale: {report.plans_invalidated}"
        )


if __name__ == "__main__":
    sparql_demo()
    order_by_demo()
    property_table_demo()
    maintenance_demo()
