"""The shared execution runtime: one driver for vector and pull engines.

:class:`Runtime` owns everything the two legacy executors duplicated
around their operator bodies:

* **Lowering + caching** — logical plans are lowered through the operator
  registry once and the physical tree is reused across runs (plans are
  sealed/immutable, so identity-keyed caching is sound; the benchmark's
  cold/hot protocol runs every plan at least twice).
* **Observability** — trace spans are entered/exited per physical
  operator, attributed to the operator's bound logical node so the
  EXPLAIN ANALYZE profiler sees one span tree regardless of engine.
  Vector operators are bracketed per call; pull operators are bracketed
  per tuple pull (the row store's work happens inside generators while a
  parent pulls).
* **Materialization** — the vector paradigm threads a needed-column set
  down and returns :class:`Intermediate` relations; the pull paradigm
  builds a :class:`Stream` tree and drains it into a
  :class:`~repro.relation.Relation`.

Operator functions receive the runtime as their first argument and call
:meth:`Runtime.run_child` / :meth:`Runtime.build_child` to evaluate their
physical children, which keeps recursion — and therefore tracing — in one
place.
"""

from repro.errors import EngineError
from repro.exec.registry import engine_ops, lower_plan
from repro.lru import LruCache
from repro.observe import counters
from repro.plan import logical as L
from repro.relation import Relation

#: Lowered-plan cache capacity per runtime (plans are cached by identity;
#: the cache keeps plan objects alive so ids cannot be recycled).
LOWER_CACHE_SIZE = 64

#: Process-wide always-on lowering-cache accounting, aggregated over every
#: Runtime this process creates (the ``lowering_cache`` group of
#: :mod:`repro.observe.counters`; :meth:`Runtime.lowering_cache_stats` is
#: the per-runtime view).
_COUNTERS = counters.declare("lowering_cache", hits=0, misses=0, evictions=0)


class Intermediate:
    """A vector-engine relation in flight plus the sort order it is known
    to satisfy (drives merge-join and binary-search decisions)."""

    __slots__ = ("relation", "sorted_by")

    def __init__(self, relation, sorted_by=()):
        self.relation = relation
        self.sorted_by = tuple(sorted_by)


class Stream:
    """A pull-engine stream of tuples plus its (qualified) column names."""

    __slots__ = ("columns", "_iterator")

    def __init__(self, columns, iterator):
        self.columns = list(columns)
        self._iterator = iterator

    def __iter__(self):
        return iter(self._iterator)

    def position(self, column):
        try:
            return self.columns.index(column)
        except ValueError:
            raise EngineError(
                f"stream has no column {column!r}; has {self.columns}"
            ) from None


class Runtime:
    """Drives physical plans for one engine instance."""

    #: Row-store join-method policy: "auto" (cost rule), "hash" (never
    #: probe an index), or "inl" (always probe when an index exists).  The
    #: non-auto settings exist for the join-strategy ablation bench.
    join_strategy = "auto"

    #: Cooperative cancellation: when a caller installs a
    #: :class:`~repro.exec.cancel.CancellationToken` here, the runtime
    #: polls it at every operator boundary (vector) / tuple pull (pull)
    #: and raises :class:`~repro.errors.QueryCancelled` once set.  The
    #: session layer serializes engine access, so one slot suffices.
    cancel_token = None

    #: Per-query degree-of-parallelism clamp.  The session layer installs
    #: the admitted dop here (under its execution lock) before running a
    #: plan; ``effective_dop`` can only lower the engine's configured
    #: parallelism, never raise it.
    dop_override = None

    def __init__(self, engine):
        self.engine = engine
        self.costs = engine.costs
        self.clock = engine.clock
        self.pool = engine.pool
        self.ops = engine_ops(engine.kind)
        # id(plan) -> (plan, PhysicalPlan); touched only under the owning
        # session/connection's execution lock.
        self._lowered = LruCache(LOWER_CACHE_SIZE)
        #: What operators resolved from the catalog for every lowered
        #: plan to share: the column store's whole-column scan charge per
        #: ``(table, column)``, its first-probe charge per ``(table,
        #: column, "probe")``.
        self.resolved = {}

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------

    def lower(self, plan):
        """Physical tree for *plan* (cached by plan identity, LRU)."""
        cache = self._lowered
        cached = cache.get(id(plan))
        if cached is not None:
            _COUNTERS.add(1, 0, 0)
            return cached[1]
        physical = lower_plan(plan, self.engine.kind, instance=self.engine)
        evictions = cache.evictions
        cache.put(id(plan), (plan, physical))
        _COUNTERS.add(0, 1, cache.evictions - evictions)
        return physical

    def forget_lowered(self):
        """Drop every cached physical tree and :attr:`resolved`: the
        engine's catalog changed, and both hold what was read from it."""
        self._lowered.clear()
        self.resolved.clear()

    def lowering_cache_stats(self):
        """This runtime's lowering-cache counters (a fresh dict)."""
        return self._lowered.stats()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def execute(self, plan):
        """Run a logical plan end to end; returns a Relation."""
        physical = self.lower(plan)
        if self.ops.paradigm == "vector":
            result = self.run_child(
                physical, set(physical.logical.output_columns())
            )
            return result.relation
        stream = self.build_child(physical)
        out_names = physical.logical.output_columns()
        rows = list(stream)
        oid = set(out_names) - L.count_columns(physical.logical)
        return Relation.from_rows(out_names, rows, oid_columns=oid)

    # ------------------------------------------------------------------
    # vector paradigm
    # ------------------------------------------------------------------

    def run_child(self, pnode, needed):
        """Evaluate a vector operator, attributing its work to a trace
        span when a tracer is installed (children subtract
        themselves)."""
        token = self.cancel_token
        if token is not None:
            token.raise_if_cancelled()
        tracer = self.engine.tracer
        if not tracer.enabled:
            return pnode.op.fn(self, pnode, needed)
        tracer.enter(pnode.logical)
        try:
            result = pnode.op.fn(self, pnode, needed)
        finally:
            tracer.exit(pnode.logical)
        tracer.set_rows(pnode.logical, result.relation.n_rows)
        return result

    def traced_block(self, key, fn):
        """Run *fn* under a span keyed by logical node *key*, reporting the
        result's cardinality there.  Fused operators use this so absorbed
        nodes (a scan inside a fused scan+select) still get their own
        span, mirroring the legacy executors' attribution."""
        tracer = self.engine.tracer
        if not tracer.enabled:
            return fn()
        tracer.enter(key)
        try:
            result = fn()
        finally:
            tracer.exit(key)
        tracer.set_rows(key, result.relation.n_rows)
        return result

    # ------------------------------------------------------------------
    # pull paradigm
    # ------------------------------------------------------------------

    def build_child(self, pnode):
        """Build a pull operator's stream; when a tracer is installed,
        wrap it so every tuple pull is attributed to the operator's span.

        Pull executors are lazy — an operator's work happens inside its
        generator while a parent pulls — so attribution brackets each
        ``next()`` call; pulls from child streams (themselves wrapped)
        subtract automatically.
        """
        token = self.cancel_token
        if token is not None:
            token.raise_if_cancelled()
        stream = pnode.op.fn(self, pnode)
        if token is not None:
            stream = Stream(
                stream.columns, self._cancellable_iter(stream, token)
            )
        tracer = self.engine.tracer
        if tracer.enabled:
            return self._traced_stream(pnode.logical, stream, tracer)
        return stream

    @staticmethod
    def _cancellable_iter(stream, token):
        for row in stream:
            token.raise_if_cancelled()
            yield row

    def _traced_stream(self, node, stream, tracer):
        def generate():
            iterator = iter(stream)
            span = None
            rows = 0
            while True:
                tracer.enter(node)
                try:
                    try:
                        row = next(iterator)
                    except StopIteration:
                        break
                finally:
                    tracer.exit(node)
                rows += 1
                if span is None:
                    span = tracer.span_for(node)
                if span is not None:
                    span.rows = rows
                yield row
            tracer.set_rows(node, rows)

        return Stream(stream.columns, generate())

