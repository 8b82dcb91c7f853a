"""The engine host: what every engine is before it is a particular engine.

Two levels, and nothing in either branches on which engine it hosts:

* :class:`EngineHost` — the simulated substrate (machine profile, cost
  table, :class:`~repro.engine.disk.SimulatedDisk`,
  :class:`~repro.engine.clock.QueryClock`,
  :class:`~repro.engine.buffer.BufferPool`) and the **measured-run
  protocol** of the paper's Section 2.3.  :meth:`EngineHost.run` is its
  only implementation: a *cold* run restarts the server and flushes every
  cache, a *hot* run measures after one warm-up.  A subclass supplies the
  measured body (:meth:`EngineHost._measure`) — whatever it charges
  between the clock reset and the timing snapshot is the run.
* :class:`PlanHost` — the level the two :class:`~repro.exec.runtime.Runtime`
  backed engines share: a table catalog, the one sorted merge of new rows
  into a stored table (:meth:`PlanHost.merge_rows`), lowering, and the one
  measured body for a logical plan (clock reset, plan-overhead charge,
  ``Runtime.execute``, output charge).

The C-Store replica subclasses the substrate only: it has no lowering and
no plans, just seven hardwired queries with their own charge sequence.
"""

import numpy as np

from repro.engine import BufferPool, QueryClock, SimulatedDisk
from repro.errors import BenchmarkError, StorageError
from repro.exec.runtime import Runtime
from repro.observe import NULL_TRACER
from repro.plan.logical import count_operators
from repro.storage.compress import CompressionCounts
from repro.storage.encoding import row_keys


class EngineHost:
    """Simulated hardware plus the cold/hot protocol."""

    #: Registry key of the engine's operator set / label in reports.
    kind = None

    #: Degree of intra-query parallelism.  Engines are serial unless they
    #: say otherwise; the column store overrides this and
    #: :meth:`parallelism`.
    workers = 1

    def __init__(self, machine, costs, page_size, buffer_bytes,
                 max_run_bytes, sequential_coalescing=True):
        self.machine = machine
        self.costs = costs
        #: The per-query sink: engines write per-query events to the
        #: tracer and nothing else (inert until :meth:`install_tracer`).
        self.tracer = NULL_TRACER
        self.disk = SimulatedDisk(page_size=page_size)
        self.clock = QueryClock(machine)
        if buffer_bytes is None:
            buffer_bytes = int(machine.ram_bytes * 0.8)
        self.pool = BufferPool(
            self.disk, self.clock, buffer_bytes, max_run_bytes=max_run_bytes,
            sequential_coalescing=sequential_coalescing,
        )
        self.compression_counts = CompressionCounts()

    def install_tracer(self, tracer):
        """Install (or, with ``None``, remove) a tracer.

        Every event site reads the tracer from the engine or its pool, so
        swapping it turns tracing on or off without rebuilding the engine.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pool.tracer = self.tracer
        return self.tracer

    def parallelism(self):
        """The installed :class:`~repro.exec.morsel.ParallelContext`, or
        ``None`` (serial)."""
        return None

    def database_bytes(self):
        """Simulated on-disk footprint: every segment the engine created."""
        return self.disk.total_bytes()

    # ------------------------------------------------------------------
    # the measured run
    # ------------------------------------------------------------------

    def prepare(self, query, mode):
        """The protocol's first half: put the buffer pool in the state
        *mode* asks for.

        ``None`` / ``"current"`` leaves the pool as it stands (server
        semantics), ``"cold"`` clears it (server restart + cache flush),
        ``"hot"`` performs one unmeasured run of *query*.  Anything else
        raises :class:`~repro.errors.BenchmarkError` before the clock or
        the pool is touched.  :meth:`run` is this plus one measured body;
        only the profiler calls it on its own, because its measured body
        runs under a tracer the warm-up must not see.

        A hot run may still read from disk when the pool is smaller than
        the query's working set — the C-Store replica does, by design
        (restrictive buffer space, paper Section 3); its hot runs stay
        partially I/O-bound exactly as Table 4 shows.

        Called on its own, it flushes what it counted before it returns,
        so none of it lands in the measured run that follows.
        """
        try:
            self._prepare(query, mode)
        finally:
            self.flush_counters()

    def _prepare(self, query, mode):
        if mode is None or mode == "current":
            return
        if mode == "cold":
            self.make_cold()
        elif mode == "hot":
            self._measure(query)
        else:
            raise BenchmarkError(
                f"unknown mode {mode!r}; expected one of "
                "None, 'current', 'cold', 'hot'"
            )

    def run(self, query, mode=None):
        """One measured run; returns ``(Relation, QueryTiming)``.

        The clock restarts for the measured body, so the timing covers
        exactly one execution.  The simulated clock is deterministic: one
        measured run replaces the paper's average-of-three.

        The pool and the compressed reads count in plain fields; they
        reach the process-wide counters here, once per run — also when the
        run raises (cancellation, a failing operator).
        """
        try:
            if mode is not None:
                self._prepare(query, mode)
            return self._measure(query)
        finally:
            self.flush_counters()

    def flush_counters(self):
        """Publish the pool's and the compressed reads' counts: one ``add``
        per counter group."""
        self.pool.flush_counters()
        self.compression_counts.flush()

    def _measure(self, query):
        """Reset the clock, execute *query*, return ``(Relation,
        QueryTiming)`` — the engine-specific measured body."""
        raise NotImplementedError

    def execute(self, query):
        """Run and return only the relation (timing discarded)."""
        return self.run(query)[0]

    def make_cold(self):
        """Clear every cached page (server restart + cache flush)."""
        self.pool.clear()

    def io_history(self):
        """Figure-5-style (seconds, cumulative bytes) trace of the last run."""
        return self.clock.io_history()


class PlanHost(EngineHost):
    """An engine that runs logical plans through a :class:`Runtime`.

    Subclasses set ``kind`` to a key with a registered
    :class:`~repro.exec.registry.EngineOperatorSet` and provide
    ``create_table`` / ``drop_table`` over their own table class, whose
    tables answer ``column_names()``, ``array(column)`` and
    ``definition()`` — all :meth:`merge_rows` reads.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tables = {}
        self._executor = Runtime(self)

    def executor(self):
        """The engine's execution runtime (unified layer)."""
        return self._executor

    def lower(self, plan):
        """Physical plan for *plan* under this engine's operator set."""
        return self._executor.lower(plan)

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def _catalog_changed(self):
        """Every ``create_table`` / ``drop_table`` ends here: lowered
        plans bind guards and tables resolved from the catalog."""
        self._executor.forget_lowered()

    def table(self, name):
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no such table: {name!r}") from None

    def has_table(self, name):
        return name in self._tables

    def table_names(self):
        return list(self._tables)

    def merge_rows(self, name, delta_columns):
        """Merge *delta_columns* into table *name* as a set; return the
        re-created table, or ``None`` when no delta row was new.

        The table's sort key must name every column, so a row is its key.
        Stored and delta rows are keyed in one pass
        (:func:`~repro.storage.encoding.row_keys`: a folded int64 per row
        while the composite fits, a structured record otherwise), the few
        delta rows are stable-sorted, rows already stored or repeated are
        dropped, ``np.searchsorted`` over the stored sorted keys finds
        where the rest go (after equal keys, as a stable sort would put
        them), and ``np.insert`` builds the merged columns.  The table is
        then dropped and re-created through ``create_table`` with
        ``presorted=True``: the merged columns are exactly what the load
        sort of stored plus new rows produces, so segment names, the
        append-at-end disk layout, table order, codecs and every simulated
        number equal a drop-and-resort.  Interpreter work is O(delta);
        only numpy's memory moves are O(rows).
        """
        table = self.table(name)
        sort_by, indexes = table.definition()
        names = table.column_names()
        if sorted(sort_by) != sorted(names) or set(delta_columns) != set(names):
            raise StorageError(
                f"merge_rows into {name!r} needs a sort key over every "
                f"column {names} and delta columns {sorted(delta_columns)} "
                "naming each of them"
            )
        # One row per key column: delta is k x m, stored k x n.  Both are
        # keyed in one pass, so the folded keys share one base and width.
        delta = np.array([delta_columns[c] for c in sort_by], dtype=np.int64)
        stored = np.array([table.array(c) for c in sort_by], dtype=np.int64)
        both = np.concatenate([stored, delta], axis=1)
        keys = row_keys(both)
        if keys is None:
            keys = _records(both)
        n = stored.shape[1]
        stored_keys, delta_keys = keys[:n], keys[n:]
        order = np.argsort(delta_keys, kind="stable")
        delta, delta_keys = delta[:, order], delta_keys[order]
        at = np.searchsorted(stored_keys, delta_keys, side="right")
        fresh = np.searchsorted(stored_keys, delta_keys, side="left") == at
        fresh[1:] &= delta_keys[1:] != delta_keys[:-1]
        if not fresh.any():
            return None
        merged = dict(zip(
            sort_by, np.insert(stored, at[fresh], delta[:, fresh], axis=1)
        ))
        self.drop_table(name)
        return self.create_table(
            name, {c: merged[c] for c in names}, sort_by=sort_by,
            indexes=indexes, presorted=True,
        )

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------

    def _measure(self, plan):
        self.clock.reset()
        n_operators = count_operators(plan)
        self.clock.charge_cpu(
            self.costs.query_overhead
            + self.costs.plan_operator * n_operators
            + self.costs.plan_quadratic * n_operators * n_operators,
            category="plan",
        )
        relation = self._executor.execute(plan)
        self.clock.charge_cpu(
            self.costs.output_tuple * relation.n_rows, category="output"
        )
        return relation, self.clock.timing()


def _records(columns):
    """The k x n int64 *columns* as n structured rows: numpy compares and
    searches them lexicographically, field by field."""
    fields = [f"f{i}" for i in range(len(columns))]
    records = np.empty(columns.shape[1], dtype=[(f, np.int64) for f in fields])
    for field, column in zip(fields, columns):
        records[field] = column
    return records
