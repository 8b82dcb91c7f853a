"""Process-pool scheduler for benchmark experiments.

The experiment drivers decompose their sweeps into independent *cells* —
one (system-configuration | sweep-point | machine) unit of work that
deploys its own engines, runs its queries, and returns a small picklable
result.  The scheduler runs cells either in-process (``jobs=1``) or across
a pool of worker processes (``jobs=N``), and hands the results back **in
submission order**, so merging is deterministic regardless of which worker
finished first.

Determinism guarantee
---------------------
A cell is a pure function of ``(dataset, *args)``: it builds fresh engines,
the simulated :class:`~repro.engine.clock.QueryClock` is deterministic, and
no state is shared between cells.  Parallel runs therefore produce tables,
figures, and simulated timings byte-identical to serial runs; only the
wall-clock metadata (``wall_ms``) differs.

Workers
-------
On POSIX the pool uses the ``fork`` start method and workers inherit the
dataset through a module global — no per-task pickling of the triple list.
Elsewhere (``spawn``) the dataset is shipped once per worker through the
pool initializer.  Cell functions must be module-level (picklable by
reference) and take the dataset as their first argument.

The default job count comes from the ``REPRO_BENCH_JOBS`` environment
variable (see ``docs/benchmarking.md``); ``repro bench --jobs N`` overrides
it per invocation.
"""

import os
import time
from dataclasses import dataclass

from repro.errors import BenchmarkError
from repro.observe import counters
from repro.observe.log import get_logger

log = get_logger("bench.scheduler")

#: Environment knob for the default worker count (``repro bench --jobs``
#: and the ``benchmarks/`` suite both start from it).
JOBS_ENV = "REPRO_BENCH_JOBS"

#: Environment knob for wall-clock repeats per cell: with ``N > 1`` every
#: cell runs N times and reports the **minimum** wall-clock, which is what
#: the regression gate compares — min-of-N is far more stable than a single
#: sample.  Cells are pure functions, so the extra runs cannot change any
#: simulated result; only ``wall_ms`` is affected.
REPEATS_ENV = "REPRO_BENCH_REPEATS"

#: Process-wide always-on scheduler accounting (cells executed, repeats
#: performed, total wall-clock): the ``scheduler`` group of
#: :mod:`repro.observe.counters`.  In-process for serial runs; parallel
#: workers accumulate their own copies, so the perf observatory records
#: runs serially.
_COUNTERS = counters.declare("scheduler", cells=0, repeats=0, wall_ms=0.0)


def default_repeats():
    """Wall-clock repeats per cell (``REPRO_BENCH_REPEATS``, default 1)."""
    raw = os.environ.get(REPEATS_ENV, "")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        log.warning("ignoring invalid %s=%r", REPEATS_ENV, raw)
        return 1


def _available_cpus():
    """CPUs this process may run on — the useful worker ceiling."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def default_jobs():
    """Worker count from ``REPRO_BENCH_JOBS`` (default 1 = serial)."""
    raw = os.environ.get(JOBS_ENV, "")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        log.warning("ignoring invalid %s=%r", JOBS_ENV, raw)
        return 1


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``fn`` must be a module-level function ``fn(dataset, *args)`` returning
    a picklable value; ``label`` is used for logging and wall-clock
    reporting.
    """

    fn: object
    args: tuple = ()
    label: str = ""


@dataclass(frozen=True)
class CellOutcome:
    """A cell's return value plus its wall-clock cost."""

    label: str
    value: object
    wall_ms: float


#: Dataset shared with forked workers (set just before the pool forks).
_WORKER_DATASET = None


def _set_worker_dataset(dataset):
    global _WORKER_DATASET
    # unguarded-ok: rebound by the parent before the pool forks and by the
    # worker initializer before any cell runs; never raced by query threads
    _WORKER_DATASET = dataset


def _run_cell(cell, dataset, repeats=None):
    """Run one cell, ``repeats`` times (default :func:`default_repeats`),
    reporting min-of-N wall-clock.  Repeat runs recompute the same value —
    cells are pure — so only the wall-clock measurement is affected."""
    if repeats is None:
        repeats = default_repeats()
    value = None
    wall_ms = None
    total_ms = 0.0
    for attempt in range(repeats):
        start = time.perf_counter()
        result = cell.fn(dataset, *cell.args)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        if attempt == 0:
            value = result
        if wall_ms is None or elapsed_ms < wall_ms:
            wall_ms = elapsed_ms
        total_ms += elapsed_ms
    _COUNTERS.add(1, repeats, total_ms)
    return CellOutcome(cell.label, value, wall_ms)


def _worker_entry(cell):
    return _run_cell(cell, _WORKER_DATASET)


def run_cells(cells, dataset=None, jobs=None):
    """Run every cell; returns :class:`CellOutcome` in submission order.

    ``jobs=None`` reads :data:`JOBS_ENV`; ``jobs<=1`` (or a single cell)
    runs serially in-process — the same cell functions, so the parallel
    path cannot diverge from it.
    """
    cells = list(cells)
    if jobs is None:
        jobs = default_jobs()
    jobs = max(1, int(jobs))
    if jobs == 1 or len(cells) <= 1:
        return [_run_cell(cell, dataset) for cell in cells]

    # Imported here: the package loads this module (its counter group must
    # exist in every process), and only a parallel sweep needs the ~3 MB
    # of process-pool machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
        initializer, initargs = None, ()
        _set_worker_dataset(dataset)  # inherited by the forked workers
    else:  # spawn fallback: ship the dataset once per worker
        context = multiprocessing.get_context()
        initializer, initargs = _set_worker_dataset, (dataset,)

    n_workers = min(jobs, len(cells), max(_available_cpus(), 2))
    if n_workers < jobs:
        log.debug("clamping %d jobs to %d workers", jobs, n_workers)
    log.debug("running %d cells on %d workers", len(cells), n_workers)
    try:
        with ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        ) as pool:
            futures = [pool.submit(_worker_entry, cell) for cell in cells]
            return [f.result() for f in futures]
    except BenchmarkError:
        raise
    finally:
        _set_worker_dataset(None)


def map_cells(fn, args_list, dataset=None, jobs=None, labels=None):
    """Run ``fn(dataset, *args)`` for each args tuple; values in order.

    Convenience wrapper over :func:`run_cells` for drivers that only need
    the values.  Returns ``(values, outcomes)``.
    """
    if labels is None:
        labels = [str(args) for args in args_list]
    cells = [
        Cell(fn=fn, args=tuple(args), label=label)
        for args, label in zip(args_list, labels)
    ]
    outcomes = run_cells(cells, dataset=dataset, jobs=jobs)
    return [o.value for o in outcomes], outcomes


def scheduler_meta(outcomes, jobs):
    """The ``meta`` block recorded on scheduled experiment results.

    Wall-clock numbers ride along in benchmark JSON twins but are excluded
    from byte-identity comparisons (see ``scripts/compare_bench_json.py``).
    """
    return {
        "jobs": max(1, int(jobs)) if jobs is not None else default_jobs(),
        "repeats": default_repeats(),
        "wall_ms": round(sum(o.wall_ms for o in outcomes), 3),
        "cells": [
            {"label": o.label, "wall_ms": round(o.wall_ms, 3)}
            for o in outcomes
        ],
    }
