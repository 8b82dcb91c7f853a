"""Morsel-driven parallel dispatch for the unified execution layer.

A *morsel* is a contiguous row range of a base-table segment — small
enough to load-balance, large enough to amortize dispatch.  The column
store's scan/union kernel (``_run_ranges`` in
:mod:`repro.colstore.operators`) splits its input into morsels whenever
the query is admitted at more than one lane, runs the pure data-plane
work (predicate masks, position narrowing, column gathers) through
:func:`run_batch`, and merges the per-morsel results **by morsel index**
— never by completion order — so the merged arrays are bit-identical to
the one-range (serial) run of the same kernel.

Cost accounting never runs on a worker.  Workers touch numpy arrays
only; the coordinator replays every buffer-pool read and clock charge in
the exact serial order after the barrier (buffer-pool request counts
depend on global access order, and float accumulation is not
associative, so per-worker cost shards could never fold back exactly).
This is the determinism contract the parity suite gates on: rows AND
simulated-cost documents are byte-identical at any worker count.

Helper lanes run on one process-wide stdlib
:class:`~concurrent.futures.ThreadPoolExecutor`, so server sessions
share one bounded set of lazily spawned threads; the calling thread
always runs a lane itself, so ``dop`` workers means ``dop - 1`` helpers.
Cancellation fans out through the batch: every lane polls the query's
:class:`~repro.exec.cancel.CancellationToken` between tasks, and the
first observation stops all lanes.
"""

import os
from concurrent.futures import ThreadPoolExecutor

from repro.observe import counters
from repro.observe.log import get_logger

log = get_logger("exec.morsel")

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
#: :mod:`repro.observe.counters`.  All three are functions of the plan
#: and the morsel size, never of thread scheduling.
_COUNTERS = counters.declare(
    "parallel", batches=0, inline_batches=0, morsels=0
)


def _int_from_env(name, default):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        log.warning("ignoring invalid %s=%r", name, raw)
        return default


def workers_from_env(default=1):
    """The ``REPRO_WORKERS`` degree of parallelism, clamped to
    ``[1, MAX_WORKERS]``; *default* when unset or unparsable."""
    return max(1, min(_int_from_env(WORKERS_ENV, default), MAX_WORKERS))


def morsel_rows_from_env(default=DEFAULT_MORSEL_ROWS):
    """The ``REPRO_MORSEL_ROWS`` morsel size; *default* when unset or
    unparsable."""
    return max(1, _int_from_env(MORSEL_ROWS_ENV, default))


def split_morsels(lo, hi, rows):
    """Split the row range ``[lo, hi)`` into ``(mlo, mhi)`` morsels of at
    most *rows* rows each, in ascending order."""
    rows = max(1, int(rows))
    return [(start, min(start + rows, hi)) for start in range(lo, hi, rows)]


class ParallelContext:
    """Engine-side handle installed by ``install_parallelism``: the
    configured degree of parallelism and the morsel size.  Lowering never
    consults it; the effective per-query dop is a runtime clamp
    (``Runtime.dop_override``) read by the kernel's dispatch point, so
    cached lowered plans never go stale."""

    __slots__ = ("dop", "morsel_rows")

    def __init__(self, dop, morsel_rows=DEFAULT_MORSEL_ROWS):
        self.dop = max(1, int(dop))
        self.morsel_rows = max(1, int(morsel_rows))


def effective_dop(runtime, context):
    """The degree of parallelism for the current query: the engine's
    configured dop, clamped down (never up) by the per-query admission
    override the server or API installed on the runtime."""
    dop = context.dop
    override = runtime.dop_override
    if override is not None:
        dop = min(dop, max(1, int(override)))
    return dop


def _new_executor():
    global _EXECUTOR
    # unguarded-ok: runs at import and in a freshly forked child, both
    # before any second thread exists
    _EXECUTOR = ThreadPoolExecutor(
        MAX_WORKERS - 1, thread_name_prefix="repro-morsel"
    )


#: The helper lanes of every batch in the process.  The executor spawns
#: threads on demand and keeps them; nothing here grows or replaces it.
#: A forked child (bench worker) inherits the bookkeeping but not the
#: threads, so it starts over with an empty executor instead of queueing
#: lanes nobody will ever run.
_EXECUTOR = None
_new_executor()
os.register_at_fork(after_in_child=_new_executor)


def run_batch(tasks, dop, cancel_token=None):
    """Run *tasks* (zero-argument callables) at up to *dop* lanes and
    return their results ordered by task index.

    Raises the first task error, or the cancellation error if the query's
    token fired mid-batch.  ``dop <= 1`` (or a single task) runs inline
    on the caller with no executor traffic at all.

    Every lane — ``lanes - 1`` submitted helpers plus the caller — pulls
    the next index from one shared iterator (``next`` on a range iterator
    is a single C call, atomic under the GIL), so a slow task never
    strands work behind it.  Completion is per *task*, not per lane: once
    the caller's lane runs dry every index has been claimed, helpers that
    never started are cancelled and only those that did are waited on.  A
    helper that never wakes (saturated executor) costs load balance,
    never completion.
    """
    lanes = max(1, min(int(dop), MAX_WORKERS, len(tasks)))
    if lanes <= 1:
        results = []
        for task in tasks:
            if cancel_token is not None:
                cancel_token.raise_if_cancelled()
            results.append(task())
        _COUNTERS.add(0, 1, len(tasks))
        return results
    results = [None] * len(tasks)
    indices = iter(range(len(tasks)))
    errors = []

    def lane():
        try:
            for index in indices:
                if errors or (
                    cancel_token is not None and cancel_token.is_set()
                ):
                    return
                results[index] = tasks[index]()
        except BaseException as exc:  # first error stops all lanes
            errors.append(exc)

    helpers = [_EXECUTOR.submit(lane) for _ in range(lanes - 1)]
    lane()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    if errors:
        raise errors[0]
    if cancel_token is not None:
        cancel_token.raise_if_cancelled()
    _COUNTERS.add(1, 0, len(tasks))
    return results
