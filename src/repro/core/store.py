"""The RDFStore facade.

Construction and deployment (engine × scheme × clustering) live here.
Queries run through the stable public API in :mod:`repro.api`:
``store.connection().session().query(...)`` (SQL, SPARQL or a benchmark
query name) and ``.solve(...)`` (basic graph patterns), which carry
sessions, timeouts, result objects with simulated costs, and the
prepared-plan cache.
"""

from repro.colstore import ColumnStoreEngine
from repro.core.bgp import bgp_plan
from repro.errors import StorageError
from repro.model.parser import parse_ntriples_text
from repro.model.triple import Variable
from repro.rowstore import RowStoreEngine
from repro.storage import build_triple_store, build_vertical_store

#: Convenience alias so user code reads ``Var("s")``.
Var = Variable

_ENGINES = {
    "column": ColumnStoreEngine,
    "row": RowStoreEngine,
}

_SCHEMES = ("triple", "vertical")


class RDFStore:
    """An RDF database: one engine hosting one storage scheme.

    Parameters
    ----------
    triples:
        Iterable of :class:`~repro.model.triple.Triple` (or 3-tuples of
        strings).
    engine:
        ``"column"`` (MonetDB-like, the default) or ``"row"`` (DBX-like).
    scheme:
        ``"vertical"`` (one table per property, the proposal evaluated by
        the paper) or ``"triple"`` (single triples table).
    clustering:
        Triple-store clustering order (default ``"PSO"``, the paper's
        recommendation); ignored for the vertical scheme.
    interesting_properties:
        The property subset used by the benchmark's restricted queries;
        default: the 28 most frequent properties in the data.
    """

    def __init__(self, triples, engine="column", scheme="vertical",
                 clustering="PSO", interesting_properties=None,
                 engine_options=None):
        if engine not in _ENGINES:
            raise StorageError(
                f"unknown engine {engine!r}; expected one of {sorted(_ENGINES)}"
            )
        if scheme not in _SCHEMES:
            raise StorageError(
                f"unknown scheme {scheme!r}; expected one of {_SCHEMES}"
            )
        triples = [t if hasattr(t, "s") else _as_triple(t) for t in triples]
        self.engine_kind = engine
        self.scheme = scheme
        self.engine = _ENGINES[engine](**(engine_options or {}))
        if scheme == "triple":
            self.catalog = build_triple_store(
                self.engine, triples, interesting_properties,
                clustering=clustering,
            )
        else:
            self.catalog = build_vertical_store(
                self.engine, triples, interesting_properties,
            )
        # The builders store a set: repeated input triples count once.
        tables = self.catalog.property_tables.values()
        if scheme == "triple":
            tables = [self.catalog.triples_table]
        self.n_triples = sum(self.engine.table(t).n_rows for t in tables)
        self._api_connection = None  # lazy repro.api.Connection

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_triples(cls, triples, **options):
        """Build a store from an iterable of triples (or 3-tuples)."""
        return cls(triples, **options)

    @classmethod
    def from_ntriples(cls, text, **options):
        """Build a store from N-Triples text."""
        return cls(parse_ntriples_text(text), **options)

    @classmethod
    def from_file(cls, path, **options):
        """Build a store from an N-Triples file (``.gz`` supported)."""
        from repro.model.parser import parse_ntriples_file

        return cls(parse_ntriples_file(path), **options)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def connection(self):
        """The store's :class:`repro.api.Connection` (created lazily).

        The stable query surface: ``store.connection().session().query(...)``.
        All sessions share this store's engine and buffer pool.
        """
        if self._api_connection is None:
            from repro.api import Connection

            self._api_connection = Connection(self)
        return self._api_connection

    def match(self, s=None, p=None, o=None):
        """All triples matching the given constants (None = wildcard)."""
        pattern = (
            s if s is not None else Var("s"),
            p if p is not None else Var("p"),
            o if o is not None else Var("o"),
        )
        bindings = self.connection().session().solve([pattern])
        result = []
        for binding in bindings:
            result.append(
                (
                    binding.get("s", s),
                    binding.get("p", p),
                    binding.get("o", o),
                )
            )
        return result

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def explain(self, sql_or_patterns, physical=False):
        """Render the logical plan for query text or a BGP pattern list.

        With ``physical=True``, additionally render the engine-lowered
        physical operator tree the unified execution layer will run.
        Text goes through the store's session
        (:meth:`repro.api.Session.explain`).
        """
        connection = self.connection()
        if isinstance(sql_or_patterns, str):
            return connection.session().explain(
                sql_or_patterns, physical=physical
            )
        plan, _ = bgp_plan(self.catalog, sql_or_patterns)
        return connection._explain(plan, physical)

    def profile(self, query, mode="cold", scope=None):
        """EXPLAIN ANALYZE: run *query* with full observability and return
        a :class:`~repro.observe.profiler.QueryProfile`.

        *query* is a benchmark query name (``q1``..``q8``, ``q2*``..),
        SPARQL text (anything containing ``{``), or SQL text.  *mode* is
        ``"cold"`` (buffer pool cleared first, the default) or ``"hot"``
        (one unobserved warm-up run first).  Runs under the connection's
        execution lock (:meth:`repro.api.Session.profile`).
        """
        return self.connection().session().profile(query, mode, scope)

    def analyze(self, query, scope=None, physical=False):
        """Run the static plan linter over *query* without executing it.

        *query* is a benchmark query name (``q1``..``q8``, ``q2*``..),
        SPARQL text (anything containing ``{``), or SQL text.  Returns the
        list of :class:`~repro.analysis.Diagnostic` findings, most severe
        first (empty = clean).

        With ``physical=True`` the plan is first lowered through this
        store's engine registry and the physical rule set (e.g.
        ``wrong-engine-operator``) runs alongside the logical rules.
        """
        from repro.analysis import lint_physical_plan, lint_plan

        connection = self.connection()
        plan = connection._plan_for(query, scope=scope)[1]
        if physical:
            return list(lint_physical_plan(connection._lower(plan)))
        return list(lint_plan(plan))

    def statistics(self):
        """Table-1-style statistics of the loaded data
        (:class:`~repro.data.stats.DatasetStatistics`)."""
        from repro.data.stats import compute_statistics
        from repro.model.triple import Triple

        return compute_statistics(Triple(*t) for t in self.match())

    def table_names(self):
        return self.engine.table_names()

    def database_bytes(self):
        """Simulated on-disk footprint of the deployed scheme."""
        return self.engine.database_bytes()

    def make_cold(self):
        """Clear the buffer pool (simulated server restart)."""
        self.engine.make_cold()


def _as_triple(value):
    from repro.model.triple import Triple

    s, p, o = value
    return Triple(s, p, o)

