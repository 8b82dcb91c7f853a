"""Morsel-driven parallel dispatch for the unified execution layer.

A *morsel* is a contiguous row range of a base-table segment — small
enough to load-balance, large enough to amortize dispatch.  The column
store's scan/union kernel (``_run_ranges`` in
:mod:`repro.colstore.operators`) splits its input into morsels whenever
the query is admitted at more than one lane, runs the pure data-plane
work (predicate masks, position narrowing, column gathers) on a shared
work-stealing :class:`WorkerPool`, and merges the per-morsel results **by
morsel index** — never by completion order — so the merged arrays are
bit-identical to the one-range (serial) run of the same kernel.

Cost accounting never runs on a worker.  Workers touch numpy arrays
only; the coordinator replays every buffer-pool read and clock charge in
the exact serial order after the barrier (buffer-pool request counts
depend on global access order, and float accumulation is not
associative, so per-worker cost shards could never fold back exactly).
This is the determinism contract the parity suite gates on: rows AND
simulated-cost documents are byte-identical at any worker count.

The pool is process-wide (:func:`shared_pool`) so server sessions share
one set of helper threads; the calling thread always participates as
lane 0, so ``dop`` workers means ``dop - 1`` helpers.  Cancellation fans
out through the batch: every lane polls the query's
:class:`~repro.exec.cancel.CancellationToken` between tasks, and the
first observation aborts all lanes.
"""

import collections
import os
import threading

from repro.observe import counters
from repro.observe.race import guard_lock, shared_state

#: Environment switch for the default engine degree of parallelism.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment override for the morsel row-range size.
MORSEL_ROWS_ENV = "REPRO_MORSEL_ROWS"

#: Default rows per morsel.  Fixed independently of the worker count so
#: morsel boundaries — and therefore the merge order — never depend on
#: how many workers happen to be configured.
DEFAULT_MORSEL_ROWS = 4096

#: Hard cap on the degree of parallelism (helper threads are cheap but
#: not free; beyond this the simulated engine gains nothing).
MAX_WORKERS = 16

#: Process-wide morsel dispatch counters: the ``parallel`` group of
#: :mod:`repro.observe.counters` (informational — steal counts depend on
#: thread scheduling and are deliberately not byte-gated).
_COUNTERS = counters.declare(
    "parallel", batches=0, inline_batches=0, morsels=0, steals=0
)


def workers_from_env(default=1):
    """The ``REPRO_WORKERS`` degree of parallelism, clamped to
    ``[1, MAX_WORKERS]``; *default* when unset or unparsable."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(1, min(value, MAX_WORKERS))


def morsel_rows_from_env(default=DEFAULT_MORSEL_ROWS):
    """The ``REPRO_MORSEL_ROWS`` morsel size; *default* when unset."""
    raw = os.environ.get(MORSEL_ROWS_ENV, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return max(1, value)


def split_morsels(lo, hi, rows):
    """Split the row range ``[lo, hi)`` into ``(mlo, mhi)`` morsels of at
    most *rows* rows each, in ascending order."""
    rows = max(1, int(rows))
    return [(start, min(start + rows, hi)) for start in range(lo, hi, rows)]


class ParallelContext:
    """Engine-side handle installed by ``install_parallelism``: the
    configured degree of parallelism, the shared pool, and the morsel
    size.  Lowering never consults it; the effective per-query dop is a
    runtime clamp (``Runtime.dop_override``) read by the kernel's dispatch
    point, so cached lowered plans never go stale."""

    __slots__ = ("dop", "pool", "morsel_rows")

    def __init__(self, dop, pool, morsel_rows=DEFAULT_MORSEL_ROWS):
        self.dop = max(1, int(dop))
        self.pool = pool
        self.morsel_rows = max(1, int(morsel_rows))


def effective_dop(runtime, context):
    """The degree of parallelism for the current query: the engine's
    configured dop, clamped down (never up) by the per-query admission
    override the server or API installed on the runtime."""
    dop = context.dop
    override = getattr(runtime, "dop_override", None)
    if override is not None:
        dop = min(dop, max(1, int(override)))
    return dop


class _Batch:
    """One dispatched set of morsel tasks with per-lane deques.

    Tasks are dealt round-robin by morsel index; an idle lane first
    drains its own deque from the head, then steals from the *tail* of a
    victim's deque.  ``results`` is indexed by task position, so the
    merge downstream is keyed by morsel index regardless of which lane
    ran which task.  The internal lock is a plain leaf lock: it guards
    only this batch's bookkeeping and nothing else is acquired under it.
    """

    __slots__ = ("tasks", "lanes", "deques", "results", "errors", "abort",
                 "steals", "pending", "done", "cancel_token", "lock")

    def __init__(self, tasks, lanes, cancel_token=None):
        self.tasks = tasks
        self.lanes = lanes
        self.deques = [collections.deque() for _ in range(lanes)]
        for index in range(len(tasks)):
            self.deques[index % lanes].append(index)
        self.results = [None] * len(tasks)
        self.errors = []
        self.abort = False
        self.steals = 0
        self.pending = len(tasks)
        self.done = threading.Event()
        self.cancel_token = cancel_token
        self.lock = threading.Lock()

    def _next_index(self, lane):
        with self.lock:
            if self.abort:
                return None
            own = self.deques[lane]
            if own:
                return own.popleft()
            for offset in range(1, self.lanes):
                victim = self.deques[(lane + offset) % self.lanes]
                if victim:
                    self.steals += 1
                    return victim.pop()
        return None

    def _mark_abort(self, error=None):
        with self.lock:
            if error is not None:
                self.errors.append(error)
            self.abort = True
        self.done.set()

    def _task_done(self):
        with self.lock:
            self.pending -= 1
            finished = self.pending == 0
        if finished:
            self.done.set()

    def run_lane(self, lane):
        """Drain tasks on the calling thread until the batch is empty,
        aborted, or cancelled."""
        token = self.cancel_token
        while True:
            if self.abort:
                return
            if token is not None and token.is_set():
                self._mark_abort()
                return
            index = self._next_index(lane)
            if index is None:
                return
            try:
                self.results[index] = self.tasks[index]()
            except BaseException as exc:  # first error aborts all lanes
                self._mark_abort(exc)
                return
            self._task_done()


class WorkerPool:
    """A process-wide pool of persistent helper threads.

    The pool holds at most one posted batch at a time (``run_batch``
    serializes submitters), helpers pick it up lane-by-lane, and the
    calling thread always runs lane 0 — a ``dop``-way batch therefore
    needs only ``dop - 1`` helpers.  Completion is tracked per *task*,
    not per lane, so a helper that is still finishing an older batch (or
    that never wakes) costs load balance, never correctness: the caller
    and the remaining lanes steal the stragglers.
    """

    def __init__(self, helpers):
        self.helpers = max(0, int(helpers))
        self._cond = threading.Condition()
        self._batch = None
        self._seq = 0
        self._shutdown = False
        self._submit_lock = threading.Lock()
        self._threads = []
        for lane in range(1, self.helpers + 1):
            thread = threading.Thread(
                target=self._helper_loop,
                args=(lane,),
                name=f"repro-morsel-{lane}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _helper_loop(self, lane):
        seen = 0
        while True:
            with self._cond:
                while not self._shutdown and (
                    self._batch is None
                    or self._seq == seen
                    or lane >= self._batch.lanes
                ):
                    self._cond.wait()
                if self._shutdown:
                    return
                batch = self._batch
                seen = self._seq
            batch.run_lane(lane)

    def shutdown(self):
        """Stop the helper threads (used when the shared pool grows)."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def run_batch(self, tasks, dop, cancel_token=None):
        """Run *tasks* (zero-argument callables) at up to *dop* lanes.

        Returns ``(results, steals)`` with ``results`` ordered by task
        index.  Raises the first task error, or the cancellation error
        if the query's token fired mid-batch.  ``dop <= 1`` (or a single
        task) runs inline on the caller with no pool traffic at all.
        """
        lanes = max(1, min(int(dop), self.helpers + 1, len(tasks)))
        if lanes <= 1:
            results = []
            for task in tasks:
                if cancel_token is not None:
                    cancel_token.raise_if_cancelled()
                results.append(task())
            _note_batch(len(tasks), 0, inline=True)
            return results, 0
        batch = _Batch(tasks, lanes, cancel_token=cancel_token)
        with self._submit_lock:
            with self._cond:
                self._batch = batch
                self._seq += 1
                self._cond.notify_all()
            try:
                batch.run_lane(0)
                batch.done.wait()
            finally:
                with self._cond:
                    self._batch = None
        if batch.errors:
            raise batch.errors[0]
        if cancel_token is not None:
            cancel_token.raise_if_cancelled()
        _note_batch(len(tasks), batch.steals, inline=False)
        return batch.results, batch.steals


def _note_batch(n_tasks, steals, inline):
    _COUNTERS.add(0 if inline else 1, 1 if inline else 0, n_tasks, steals)


_POOL_LOCK = guard_lock("exec.morsel.pool")
#: The process-wide shared pool slot (grown on demand, never shrunk).
_POOL_STATE = shared_state(  # guarded-by: _POOL_LOCK
    "exec.morsel.pool", {"pool": None}, _POOL_LOCK
)


def shared_pool(helpers):
    """The process-wide :class:`WorkerPool`, grown to at least *helpers*
    helper threads.  Sessions of one server share this pool, so the
    total helper count is bounded by the largest engine dop, not the
    session count."""
    helpers = max(0, int(helpers))
    with _POOL_LOCK:
        pool = _POOL_STATE["pool"]
        if pool is None or pool.helpers < helpers:
            old = pool
            pool = WorkerPool(helpers)
            _POOL_STATE["pool"] = pool
            if old is not None:
                old.shutdown()
        return pool
