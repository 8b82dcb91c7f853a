"""repro.api — the stable public query interface.

The one query surface: :class:`~repro.core.store.RDFStore` deploys a
store (engine × scheme × clustering), and every SQL, SPARQL, benchmark or
graph-pattern query runs through a session opened here::

    import repro.api as api

    conn = api.connect(triples=my_triples, engine="column", scheme="vertical")
    with conn.session() as session:
        result = session.query("SELECT ?s WHERE { ?s <type> <Text> }")
        for row in result:
            ...
        result.cost.real_seconds   # simulated cost of this query

The object model:

* :func:`connect` builds (or wraps) a store deployment and returns a
  :class:`Connection` — one engine instance, one storage scheme, one
  buffer pool.
* :meth:`Connection.session` opens a :class:`Session`: a serialized
  query stream with its own defaults (timeout, lint mode).  Sessions of
  one connection **share the engine and its buffer pool** — exactly the
  contention the query server (:mod:`repro.server`) measures — so query
  execution is serialized through the connection's execution lock.
* :meth:`Session.query` accepts SQL, SPARQL, or a benchmark query name
  and returns a :class:`Result` carrying decoded rows, the simulated
  :class:`~repro.engine.clock.QueryTiming`, and (on request) the full
  EXPLAIN ANALYZE profile.

Timeouts are cooperative: ``Session.query(..., timeout=0.5)`` arms a
timer that sets a :class:`~repro.exec.cancel.CancellationToken`; the
unified runtime polls it at operator boundaries and the query unwinds
with :class:`~repro.errors.QueryTimeout`, leaving the shared buffer pool
consistent.
"""

import threading
from dataclasses import dataclass

from repro.analysis import plan_lint
from repro.core.store import RDFStore
from repro.errors import (
    QueryCancelled,
    QueryTimeout,
    ReproError,
    ServerOverloaded,
    SessionClosed,
)
from repro.exec.cancel import CancellationToken
from repro.lru import LruCache
from repro.queries import ALL_QUERY_NAMES, build_query

__all__ = [
    "connect",
    "Connection",
    "Session",
    "Result",
    "classify_query",
    "QueryTimeout",
    "QueryCancelled",
    "SessionClosed",
    "ServerOverloaded",
]

#: Upper bound on cached logical plans per connection (prepared-statement
#: cache; LRU eviction).  Plans are immutable, so sharing one plan object
#: across repeated executions is sound and keeps the runtime's
#: identity-keyed lowering cache hot.
PLAN_CACHE_SIZE = 256


def _normalise_scope(scope):
    """*scope* as a hashable plan-cache key component.

    ``None`` / ``"interesting"`` / ``"all"`` pass through; an explicit
    property-name list (what a JSON array decodes to) or tuple becomes a
    tuple of strings.  Anything else — an empty list, a repeated property
    (which would count its triples twice) — is a typed error: over HTTP a
    clean 400, not a ``TypeError`` from the cache's dict.
    """
    if scope is None or scope in ("interesting", "all"):
        return scope
    if not isinstance(scope, (list, tuple)) or not all(
        isinstance(name, str) for name in scope
    ):
        raise ReproError(
            f"scope must be 'interesting', 'all' or a list of property "
            f"names, got {scope!r}"
        )
    if not scope or len(set(scope)) < len(scope):
        raise ReproError(
            f"scope must name each property once, got {list(scope)!r}"
        )
    return tuple(scope)


def classify_query(text):
    """``"benchmark"`` | ``"sparql"`` | ``"sql"`` for a query string.

    Benchmark names are the paper's ``q1``..``q8`` / ``q2*``..``q6*``;
    anything containing ``{`` is treated as SPARQL; everything else is
    handed to the SQL front-end.  (The same dispatch the profiler has
    always used.)
    """
    if not isinstance(text, str):
        raise ReproError(
            f"query must be a string, got {type(text).__name__}; "
            "use Session.solve() for basic graph patterns"
        )
    if text in ALL_QUERY_NAMES:
        return "benchmark"
    if "{" in text:
        return "sparql"
    return "sql"


class Result:
    """The outcome of one :meth:`Session.query` call.

    Attributes
    ----------
    query / kind:
        The submitted text and its classification
        (``"sql"`` | ``"sparql"`` | ``"benchmark"``).
    columns:
        Output column (or SPARQL variable) names, in order.
    rows:
        Decoded row tuples in *columns* order.
    n_rows:
        Result cardinality — equals ``len(rows)`` except for SPARQL
        queries projecting no variables (fully-bound patterns), where
        each match is an empty binding.
    cost:
        The **simulated** :class:`~repro.engine.clock.QueryTiming` — the
        deterministic quantity the paper's tables compare.  Byte-identical
        across runs of the same store state and query sequence.
    profile:
        A :class:`~repro.observe.profiler.QueryProfile` when the query ran
        with ``profile=True``, else ``None``.
    """

    __slots__ = ("query", "kind", "columns", "rows", "n_rows", "cost",
                 "profile")

    def __init__(self, query, kind, columns, rows, cost, n_rows=None,
                 profile=None):
        self.query = query
        self.kind = kind
        self.columns = list(columns)
        self.rows = rows
        self.n_rows = len(rows) if n_rows is None else n_rows
        self.cost = cost
        self.profile = profile

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return (
            f"Result({self.kind} {self.query!r}, {self.n_rows} row(s), "
            f"real {self.cost.real_seconds:.6f}s)"
        )

    def bindings(self):
        """Rows as a list of ``{variable: value}`` dicts (SPARQL shape)."""
        if not self.columns:
            return [{} for _ in range(self.n_rows)]
        return [dict(zip(self.columns, row)) for row in self.rows]

    def cost_dict(self):
        """The simulated cost as a plain JSON-ready dict."""
        return self.cost.to_dict()

    def to_dict(self):
        """JSON-ready document (the server's wire format for one query)."""
        return {
            "query": self.query,
            "kind": self.kind,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "n_rows": self.n_rows,
            "cost": self.cost_dict(),
        }


@dataclass
class _Prepared:
    """One plan-cache entry; its lint findings are filled in on first ask."""

    kind: str
    plan: object
    columns: list
    diagnostics: list = None
    warned: bool = False


class Session:
    """A serialized query stream over a :class:`Connection`.

    Sessions are cheap (no per-session engine state); what they add is
    per-session defaults and a close() boundary.  All sessions of one
    connection share the engine, catalog, and buffer pool, and execution
    is serialized through the connection's lock — concurrent sessions
    interleave at query granularity, which is what makes buffer-pool
    contention observable in the server.
    """

    def __init__(self, connection, default_timeout=None, lint=None):
        self.connection = connection
        self.default_timeout = default_timeout
        self.lint = lint
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def close(self):
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    @property
    def closed(self):
        return self._closed

    def _check_open(self):
        if self._closed:
            raise SessionClosed("session is closed")
        return self.connection._check_open()

    # -- querying -------------------------------------------------------

    def query(self, text, *, timeout=None, lint=None, mode=None,
              optimize=False, scope=None, profile=False, workers=None):
        """Run one query; returns a :class:`Result`.

        Parameters
        ----------
        text:
            SQL, SPARQL, or a benchmark query name (``q1``..``q8``,
            ``q2*``..``q6*``) — see :func:`classify_query`.
        timeout:
            Seconds of *wall clock* this query may run before cooperative
            cancellation; ``None`` uses the session default.  On expiry
            :class:`~repro.errors.QueryTimeout` is raised and the shared
            engine state stays consistent.
        lint:
            Per-call lint mode (``"off"`` / ``"warn"`` / ``"strict"``);
            ``None`` uses the session's, else the process default
            (:func:`repro.analysis.set_lint_mode`).  Each cached plan is
            linted once: warn logs its findings once, strict raises on
            every query of it, plan-cache hits included.
        mode:
            Buffer-pool protocol, handed to the engine's
            :meth:`~repro.exec.host.EngineHost.run`: ``None``/``"current"``
            runs against the pool as it stands (server semantics),
            ``"cold"`` clears the pool first, ``"hot"`` performs one
            unobserved warm-up run (the paper's protocols); anything else
            raises :class:`~repro.errors.BenchmarkError`.
        optimize:
            Run the cost-based join-order optimizer over SQL plans.
        scope:
            Benchmark-query property scope override (as in
            :func:`repro.queries.build_query`): ``"interesting"``,
            ``"all"``, or an explicit list/tuple of property names.
        profile:
            Capture the full EXPLAIN ANALYZE profile; available on
            ``result.profile``.  Simulated costs are unaffected.
        workers:
            Per-query degree-of-parallelism cap.  Clamps the engine's
            configured morsel parallelism *down* for this query (it can
            never raise it); ``None`` runs at the engine's setting.
            Results and simulated costs are identical at any value.
        """
        self._check_open()
        effective_timeout = (
            timeout if timeout is not None else self.default_timeout
        )
        if lint is None:
            lint = plan_lint.lint_mode() if self.lint is None else self.lint
        # Rejected before planning: a bad mode costs no plan.
        plan_lint.validate_lint_mode(lint)
        connection = self.connection
        entry = connection._plan_for(text, optimize=optimize, scope=scope)
        if lint != "off":
            connection._lint(entry, lint)
        relation, timing, query_profile = connection._execute(
            entry.plan, timeout=effective_timeout, mode=mode,
            profile=profile, query=text, workers=workers,
        )
        n_rows = relation.n_rows
        rows = relation.decoded_tuples(
            connection.store.catalog.dictionary, order=entry.columns
        )
        return Result(
            query=text, kind=entry.kind, columns=entry.columns, rows=rows,
            cost=timing, n_rows=n_rows, profile=query_profile,
        )

    def solve(self, patterns, projection=None, *, timeout=None):
        """Evaluate a basic graph pattern; returns binding dicts.

        The BGP equivalent of :meth:`query` — patterns are ``(s, p, o)``
        triples of constants and :class:`~repro.core.store.Var` terms.
        """
        self._check_open()
        from repro.core.bgp import bgp_plan

        connection = self.connection
        plan, names = bgp_plan(
            connection.store.catalog, patterns, projection
        )
        effective_timeout = (
            timeout if timeout is not None else self.default_timeout
        )
        relation, _timing, _ = connection._execute(
            plan, timeout=effective_timeout, mode=None,
            profile=False, query="<bgp>",
        )
        if not names:
            return [{} for _ in range(relation.n_rows)]
        rows = relation.decoded_tuples(
            connection.store.catalog.dictionary, order=names
        )
        return [dict(zip(names, row)) for row in rows]

    def profile(self, text, mode="cold", scope=None):
        """EXPLAIN ANALYZE *text* under the benchmark protocol; returns a
        :class:`~repro.observe.profiler.QueryProfile` (the CLI ``repro
        profile`` verb goes through here)."""
        result = self.query(text, mode=mode, scope=scope, profile=True)
        return result.profile

    def explain(self, text, physical=False, scope=None):
        """Render the logical (and optionally physical) plan for *text*."""
        self._check_open()
        connection = self.connection
        plan = connection._plan_for(text, scope=scope).plan
        return connection._explain(plan, physical)


class Connection:
    """One deployed store: engine + storage scheme + shared buffer pool.

    Build one with :func:`connect` (or wrap an existing
    :class:`~repro.core.store.RDFStore`).  Thread-safe: sessions may be
    driven from multiple threads; execution serializes on an internal
    lock so the single-threaded simulated engine below is never
    re-entered, while the buffer pool carries state *across* the
    interleaved queries — the contention the server measures.
    """

    def __init__(self, store):
        if not isinstance(store, RDFStore):
            raise ReproError(
                f"Connection wraps an RDFStore, got {type(store).__name__}"
            )
        self.store = store
        self._exec_lock = threading.RLock()
        self._plan_lock = threading.Lock()
        # cache key -> _Prepared
        self._plans = LruCache(PLAN_CACHE_SIZE)
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    @property
    def engine_kind(self):
        return self.store.engine_kind

    @property
    def scheme(self):
        return self.store.scheme

    def close(self):
        """Close the connection; subsequent queries raise
        :class:`SessionClosed`.  (The simulated store has no external
        resources to release — closing is a correctness boundary.)"""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    @property
    def closed(self):
        return self._closed

    def _check_open(self):
        if self._closed:
            raise SessionClosed("connection is closed")
        return self

    # -- sessions -------------------------------------------------------

    def session(self, default_timeout=None, lint=None):
        """Open a :class:`Session` (usable as a context manager)."""
        self._check_open()
        return Session(self, default_timeout=default_timeout, lint=lint)

    def query(self, text, **kwargs):
        """One-shot convenience: ``connection.session().query(...)``."""
        return self.session().query(text, **kwargs)

    def make_cold(self):
        """Clear the shared buffer pool (simulated server restart)."""
        with self._exec_lock:
            self.store.make_cold()

    # -- planning -------------------------------------------------------

    def _plan_for(self, text, optimize=False, scope=None):
        """The :class:`_Prepared` plan for *text*, served from the
        prepared-plan cache.  Plans are immutable, so cached plan objects
        are shared across sessions and executions."""
        kind = classify_query(text)
        scope = _normalise_scope(scope)
        key = (kind, text, bool(optimize), scope)
        with self._plan_lock:
            cached = self._plans.get(key)
            if cached is not None:
                return cached
        entry = self._build_plan(kind, text, optimize, scope)
        with self._plan_lock:
            return self._plans.put(key, entry)

    def _lint(self, entry, mode="off"):
        """Plan-cache *entry*'s lint findings, linted on first ask (two
        racing threads may both lint, to the same result), and enforced
        under *mode*: strict raises every time, warn logs once."""
        if entry.diagnostics is None:
            entry.diagnostics = plan_lint.lint_plan(entry.plan)
        if mode == "warn":
            with self._plan_lock:
                if entry.warned:
                    return entry.diagnostics
                entry.warned = True
        plan_lint.enforce(entry.diagnostics, f"api:{entry.kind}", mode)
        return entry.diagnostics

    def plan_cache_stats(self):
        """Prepared-plan cache counters: size, capacity, hits, misses,
        evictions.  Exposed through ``/v1/stats`` and the Prometheus
        exporter of the query server."""
        with self._plan_lock:
            return self._plans.stats()

    def _build_plan(self, kind, text, optimize, scope):
        catalog = self.store.catalog
        if kind == "benchmark":
            plan = build_query(catalog, text, scope=scope)
            return _Prepared(kind, plan, plan.output_columns())
        if kind == "sparql":
            from repro.sparql import parse_sparql
            from repro.sparql.executor import sparql_plan

            plan, names = sparql_plan(catalog, parse_sparql(text))
            return _Prepared(kind, plan, list(names))
        from repro.sql.planner import plan_sql

        plan = plan_sql(text, catalog)
        if optimize:
            from repro.plan.optimizer import (
                engine_stats_provider,
                optimize_joins,
            )

            plan = optimize_joins(
                plan, engine_stats_provider(self.store.engine)
            )
        return _Prepared(kind, plan, plan.output_columns())

    # -- execution ------------------------------------------------------

    def _lower(self, plan):
        """Physical plan for *plan*.  Lowering goes through the runtime's
        lowering cache, which only the holder of the execution lock may
        touch."""
        with self._exec_lock:
            return self.store.engine.lower(plan)

    def _explain(self, plan, physical=False):
        """Render *plan*, and with *physical* its lowered operator tree."""
        from repro.plan.render import render_physical_plan, render_plan

        rendered = render_plan(plan)
        if physical:
            rendered += "\n\nphysical plan:\n" + render_physical_plan(
                self._lower(plan)
            )
        return rendered

    def _execute(self, plan, timeout=None, mode=None, profile=False,
                 query="", workers=None):
        """Run *plan* under the execution lock with optional cooperative
        timeout; returns ``(relation, timing, profile_or_none)``.

        *workers*, when given, installs a per-query degree-of-parallelism
        clamp on the runtime for the duration of this execution (the
        server's admission path sets it from the request).
        """
        engine = self.store.engine
        runtime = engine.executor()
        token = timer = None
        if timeout is not None:
            if timeout <= 0:
                raise QueryTimeout(
                    f"query exceeded timeout of {timeout}s (never started)"
                )
            token = CancellationToken().bind()
            timer = threading.Timer(
                timeout, token.cancel, kwargs={"reason": "deadline exceeded"}
            )
            timer.daemon = True
        with self._exec_lock:
            self._check_open()
            try:
                if workers is not None:
                    runtime.dop_override = int(workers)
                if token is not None:
                    runtime.cancel_token = token
                    timer.start()
                if profile:
                    from repro.observe.profiler import profile_plan

                    query_profile = profile_plan(
                        engine, plan,
                        mode=mode if mode is not None else "current",
                        query=query,
                    )
                    return (
                        query_profile.relation, query_profile.timing,
                        query_profile,
                    )
                relation, timing = engine.run(plan, mode=mode)
                return relation, timing, None
            except QueryCancelled as exc:
                if token is not None and token.is_set():
                    raise QueryTimeout(
                        f"query exceeded timeout of {timeout}s"
                    ) from exc
                raise
            finally:
                if workers is not None:
                    runtime.dop_override = None
                if token is not None:
                    timer.cancel()
                    runtime.cancel_token = None


def connect(source=None, *, triples=None, ntriples=None, path=None,
            store=None, engine="column", scheme="vertical",
            clustering="PSO", interesting_properties=None,
            engine_options=None):
    """Open a :class:`Connection` to a store deployment.

    Exactly one data source may be given:

    * ``store=`` — wrap an existing :class:`~repro.core.store.RDFStore`,
    * ``triples=`` — an iterable of triples (or 3-tuples of strings),
    * ``ntriples=`` — N-Triples text,
    * ``path=`` — an N-Triples file (``.gz`` supported),
    * positional *source* — convenience dispatch: an ``RDFStore`` is
      wrapped, a string is treated as a path, any other iterable as
      triples.

    The remaining keyword arguments mirror :class:`RDFStore`:
    *engine* (``"column"`` | ``"row"``), *scheme* (``"vertical"`` |
    ``"triple"``), *clustering*, *interesting_properties*,
    *engine_options*.
    """
    if source is not None:
        if isinstance(source, RDFStore):
            store = source
        elif isinstance(source, str):
            path = source
        else:
            triples = source
    given = [x for x in (store, triples, ntriples, path) if x is not None]
    if len(given) != 1:
        raise ReproError(
            "connect() needs exactly one of store=, triples=, ntriples=, "
            f"path= (got {len(given)})"
        )
    if store is not None:
        return Connection(store)
    options = dict(
        engine=engine, scheme=scheme, clustering=clustering,
        interesting_properties=interesting_properties,
        engine_options=engine_options,
    )
    if triples is not None:
        built = RDFStore.from_triples(triples, **options)
    elif ntriples is not None:
        built = RDFStore.from_ntriples(ntriples, **options)
    else:
        built = RDFStore.from_file(path, **options)
    return Connection(built)
