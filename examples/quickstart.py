"""Quickstart: load RDF data, pick a storage scheme, and query it.

Run with::

    python examples/quickstart.py
"""

from repro import RDFStore, Var

CATALOG = """
# A miniature library catalog in N-Triples.
<book/1> <type> <Text> .
<book/1> <language> <language/iso639-2b/fre> .
<book/1> <title> "Le Petit Prince" .
<book/2> <type> <Text> .
<book/2> <language> <language/iso639-2b/eng> .
<book/2> <title> "Moby Dick" .
<map/1> <type> <Map> .
<map/1> <title> "Atlas Maior" .
<collection/1> <records> <book/1> .
<collection/1> <records> <map/1> .
<collection/1> <type> <Collection> .
"""


def main():
    # The vertically-partitioned scheme on the column store: the
    # configuration the VLDB 2007 paper proposed and this paper re-examines.
    store = RDFStore.from_ntriples(CATALOG, engine="column", scheme="vertical")
    print(f"loaded {store.n_triples} triples into "
          f"{len(store.table_names())} tables "
          f"({store.database_bytes()} simulated bytes on disk)\n")

    # 1. Simple pattern matching.
    print("Texts in the catalog:")
    for s, p, o in store.match(p="<type>", o="<Text>"):
        print(f"  {s}")

    # 2. A basic graph pattern: French-language texts with their titles
    #    (join pattern A — two patterns sharing their subject).  Queries
    #    run through a session of the store's connection.
    session = store.connection().session()
    print("\nFrench texts:")
    for binding in session.solve(
        [
            (Var("book"), "<type>", "<Text>"),
            (Var("book"), "<language>", "<language/iso639-2b/fre>"),
            (Var("book"), "<title>", Var("title")),
        ]
    ):
        print(f"  {binding['book']}: {binding['title']}")

    # 3. An object-subject join (pattern C): what do collections record?
    print("\nRecorded resources and their types:")
    for binding in session.solve(
        [
            (Var("c"), "<records>", Var("r")),
            (Var("r"), "<type>", Var("t")),
        ]
    ):
        print(f"  {binding['c']} -> {binding['r']} ({binding['t']})")

    # 4. The same data under the triple-store scheme, queried with SQL.
    triple_store = RDFStore.from_ntriples(
        CATALOG, engine="column", scheme="triple", clustering="PSO"
    )
    print("\nType histogram via SQL on the triple store:")
    for obj, count in sorted(
        triple_store.connection().session().query(
            "SELECT A.obj, count(*) FROM triples AS A "
            "WHERE A.prop = '<type>' GROUP BY A.obj"
        )
    ):
        print(f"  {obj}: {count}")

    # 5. Look at the logical plan an engine actually runs.
    print("\nPlan for the French-texts BGP (vertically-partitioned):")
    print(
        store.explain(
            [
                (Var("book"), "<type>", "<Text>"),
                (Var("book"), "<language>", "<language/iso639-2b/fre>"),
            ]
        )
    )


if __name__ == "__main__":
    main()
