"""Public high-level API.

:class:`RDFStore` wraps the whole stack — engine, storage scheme, dictionary,
query builders, SQL front-end — behind one object::

    from repro.core import RDFStore

    store = RDFStore.from_triples(triples, engine="column", scheme="vertical")
    session = store.connection().session()
    rows = session.query("SELECT A.obj, count(*) FROM triples AS A "
                         "WHERE A.prop = '<type>' GROUP BY A.obj").rows
    bindings = session.solve([(Var("s"), "<type>", "<Text>"),
                              (Var("s"), "<language>", Var("lang"))])
"""

from repro.core.store import RDFStore, Var
from repro.core.bgp import bgp_plan

__all__ = ["RDFStore", "Var", "bgp_plan"]
