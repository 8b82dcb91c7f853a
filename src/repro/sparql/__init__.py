"""A SPARQL front-end for the basic-graph-pattern fragment.

The paper's Section 2.2 grounds its query-space analysis in SPARQL triple
patterns; this package parses the corresponding SPARQL fragment and lowers
it onto any store through the BGP translator:

* ``SELECT ?x ?y`` / ``SELECT *`` / ``SELECT DISTINCT ...``
* ``WHERE { ... }`` with dot-separated triple patterns,
* terms: variables ``?name``, IRIs ``<...>``, literals ``"..."``,
* ``FILTER(?x != <iri>)`` / ``FILTER(?x = "lit")`` comparisons,
* ``LIMIT n``.

Example::

    store.connection().session().query('''
        SELECT ?book ?lang WHERE {
            ?book <type> <Text> .
            ?book <language> ?lang .
            FILTER(?lang != <language/iso639-2b/eng>)
        }
    ''').bindings()
"""

from repro.sparql.parser import parse_sparql, SparqlQuery

__all__ = ["parse_sparql", "SparqlQuery"]
