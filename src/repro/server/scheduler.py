"""The session scheduler: bounded admission, worker threads, deadlines.

One :class:`SessionScheduler` fronts one :class:`repro.api.Connection`.
Requests enter a **bounded** queue (`queue.Queue(maxsize=queue_depth)`);
when it is full, :meth:`submit` raises
:class:`~repro.errors.ServerOverloaded` immediately — backpressure is
explicit, never unbounded buffering.  N worker threads drain the queue,
each through its own :class:`~repro.api.Session`; execution itself
serializes on the connection's lock (the simulated engine is
single-threaded), so concurrency shows up as *interleaving* at query
granularity: queries contend for the shared buffer pool, and a request's
latency decomposes into queue wait + execution.

Deadlines are enforced twice: a request whose deadline passed while still
queued is failed without ever touching the engine, and a request that
starts executing arms the runtime's cooperative
:class:`~repro.exec.cancel.CancellationToken` through
``Session.query(timeout=...)``.

All accounting is a closed set of plain fields (admission and outcome
counts, queue-wait / execution / total latency
:class:`~repro.observe.metrics.Histogram` in milliseconds) mutated under
one internal lock, once per event: admission, pick-up, completion.
:meth:`SessionScheduler.samples` yields them as series for the Prometheus
exporter and :meth:`SessionScheduler.stats` as the ``/v1/stats`` document.
"""

import math
import queue
import threading
import time
from dataclasses import dataclass

from repro.errors import (
    QueryTimeout,
    ReproError,
    ServerOverloaded,
    SessionClosed,
)
from repro.observe.log import get_logger
from repro.observe.metrics import Histogram

log = get_logger("server.scheduler")


def _is_number(value, types=(int, float)):
    """A JSON number of one of *types* (``true``/``false`` are not)."""
    return isinstance(value, types) and not isinstance(value, bool)


def validate_timeout(timeout):
    """Raise :class:`ReproError` unless *timeout* is a finite number of
    seconds > 0 (the value arrives straight from request bodies)."""
    if not (_is_number(timeout) and 0 < timeout < math.inf):
        raise ReproError(
            f"'timeout' must be a finite number of seconds > 0, "
            f"got {timeout!r}"
        )


@dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs for a :class:`SessionScheduler`."""

    workers: int = 4
    queue_depth: int = 64
    default_timeout: object = None  # seconds, None = no deadline
    #: Per-query degree-of-parallelism admission cap: a request asking for
    #: more intra-query workers than this is clamped, never rejected.
    #: ``None`` admits whatever the engine is configured for.
    max_dop: object = None

    def __post_init__(self):
        if self.workers < 1:
            raise ReproError("scheduler needs at least one worker")
        if self.queue_depth < 1:
            raise ReproError("queue depth must be >= 1")
        if self.max_dop is not None and int(self.max_dop) < 1:
            raise ReproError("max_dop must be >= 1 (or None)")


class _Request:
    """One enqueued query plus its completion plumbing."""

    __slots__ = ("text", "kwargs", "deadline", "enqueued_at", "done",
                 "result", "error", "queue_ms", "exec_ms")

    def __init__(self, text, kwargs, deadline):
        self.text = text
        self.kwargs = kwargs
        self.deadline = deadline
        self.enqueued_at = time.monotonic()
        self.done = threading.Event()
        self.result = None
        self.error = None
        self.queue_ms = None
        self.exec_ms = None


class SessionScheduler:
    """Thread-pool executor for queries against one shared connection."""

    def __init__(self, connection, config=None):
        self.connection = connection
        self.config = config or SchedulerConfig()
        self._queue = queue.Queue(maxsize=self.config.queue_depth)
        self._stats_lock = threading.Lock()
        self._stopped = threading.Event()
        # Admission tests the flag and enqueues under the lock shutdown()
        # flips it under, so no request is enqueued behind the drain.
        self._accepting = True  # guarded-by: _stats_lock
        self._in_flight = 0  # guarded-by: _stats_lock
        self._counts = {  # guarded-by: _stats_lock
            ("server.admission", "accepted"): 0,
            ("server.admission", "rejected"): 0,
            ("server.queries", "completed"): 0,
            ("server.queries", "failed"): 0,
            ("server.queries", "timeout"): 0,
        }
        self._histograms = {  # guarded-by: _stats_lock
            "server.queue_wait_ms": Histogram(),
            "server.execution_ms": Histogram(),
            "server.latency_ms": Histogram(),
        }
        self._workers = []
        for index in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            self._workers.append(worker)
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, text, **kwargs):
        """Enqueue a query; returns a :class:`_Request` handle.

        Raises :class:`ServerOverloaded` when the admission queue is full,
        :class:`SessionClosed` after :meth:`shutdown`, and a plain
        :class:`ReproError` for a *timeout* or *workers* value that is not
        a number in range (both arrive straight from request bodies).
        """
        timeout = kwargs.pop("timeout", None)
        if timeout is None:
            timeout = self.config.default_timeout
        else:
            validate_timeout(timeout)
        workers = kwargs.get("workers")
        if workers is not None:
            if not (_is_number(workers, int) and workers >= 1):
                raise ReproError(
                    f"'workers' must be an integer >= 1, got {workers!r}"
                )
            if self.config.max_dop is not None:
                workers = min(workers, int(self.config.max_dop))
            kwargs["workers"] = workers
        elif self.config.max_dop is not None:
            kwargs["workers"] = int(self.config.max_dop)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        request = _Request(text, kwargs, deadline)
        with self._stats_lock:
            if not self._accepting:
                raise SessionClosed("server is shutting down")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self._counts["server.admission", "rejected"] += 1
                raise ServerOverloaded(
                    f"admission queue full ({self.config.queue_depth} "
                    "pending); retry later"
                ) from None
            self._counts["server.admission", "accepted"] += 1
        return request

    def execute(self, text, **kwargs):
        """Submit and wait; returns the :class:`repro.api.Result` or
        raises the query's error (including :class:`QueryTimeout`)."""
        request = self.submit(text, **kwargs)
        request.done.wait()
        if request.error is not None:
            raise request.error
        return request.result

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------

    def _worker_loop(self):
        session = self.connection.session()
        while True:
            try:
                request = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stopped.is_set():
                    return
                continue
            with self._stats_lock:
                self._in_flight += 1
            try:
                self._run_request(session, request)
            finally:
                self._queue.task_done()

    def _run_request(self, session, request):
        started = time.monotonic()
        request.queue_ms = (started - request.enqueued_at) * 1000.0
        remaining = None
        if request.deadline is not None:
            remaining = request.deadline - started
            if remaining <= 0:
                request.error = QueryTimeout(
                    "query timed out while queued "
                    f"(waited {request.queue_ms:.1f}ms)"
                )
                self._finish(request, started, "timeout")
                return
        try:
            request.result = session.query(
                request.text, timeout=remaining, **request.kwargs
            )
            outcome = "completed"
        except QueryTimeout as exc:
            request.error = exc
            outcome = "timeout"
        except ReproError as exc:
            request.error = exc
            outcome = "failed"
        except Exception as exc:  # defensive: never kill a worker
            log.exception("worker crashed on %r", request.text)
            request.error = ReproError(f"internal error: {exc}")
            outcome = "failed"
        self._finish(request, started, outcome)

    def _finish(self, request, started, outcome):
        """Book *outcome* and wake the waiter; a worker is in flight until
        its request is booked, so the two move in one acquisition."""
        finished = time.monotonic()
        request.exec_ms = (finished - started) * 1000.0
        total_ms = (finished - request.enqueued_at) * 1000.0
        with self._stats_lock:
            self._in_flight -= 1
            self._counts["server.queries", outcome] += 1
            self._histograms["server.queue_wait_ms"].observe(request.queue_ms)
            self._histograms["server.execution_ms"].observe(request.exec_ms)
            self._histograms["server.latency_ms"].observe(total_ms)
        request.done.set()

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------

    def samples(self):
        """The scheduler's series as ``(kind, name, labels, value)``
        samples, one snapshot under the stats lock.  A series appears with
        its first event: zero counts and empty histograms are left out."""
        with self._stats_lock:
            samples = [
                ("counter", name, {"outcome": outcome}, count)
                for (name, outcome), count in self._counts.items() if count
            ]
            samples += [
                ("summary", name, {}, histogram.summary())
                for name, histogram in self._histograms.items()
                if histogram.count
            ]
        samples.append(("gauge", "server.queue_depth", {}, self._queue.qsize()))
        return samples

    def stats(self):
        """JSON-ready snapshot: the samples keyed ``name{label=value}``
        under ``counters`` / ``gauges`` / ``histograms``, plus ``live``."""
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        sections = {
            "counter": "counters", "gauge": "gauges", "summary": "histograms",
        }
        for kind, name, labels, value in self.samples():
            if labels:
                inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                name = f"{name}{{{inner}}}"
            snapshot[sections[kind]][name] = value
        snapshot["live"] = {
            "queue_depth": self._queue.qsize(),
            "in_flight": self._in_flight,
            "workers": self.config.workers,
            "queue_capacity": self.config.queue_depth,
            "accepting": self._accepting,
            "max_dop": self.config.max_dop,
        }
        return snapshot

    def latency_summary(self):
        """p50/p95/p99/mean of total latency (ms)."""
        with self._stats_lock:
            return self._histograms["server.latency_ms"].summary()

    def shutdown(self, drain=True, timeout=30.0):
        """Stop the scheduler.

        With ``drain=True`` (graceful), admission closes first, every
        already-accepted query runs to completion, then workers exit.
        With ``drain=False``, queued-but-unstarted requests are failed
        with :class:`SessionClosed`.
        """
        with self._stats_lock:
            self._accepting = False
        if not drain:
            while True:
                try:
                    request = self._queue.get_nowait()
                except queue.Empty:
                    break
                request.error = SessionClosed("server shut down")
                request.done.set()
                self._queue.task_done()
        self._queue.join()
        self._stopped.set()
        for worker in self._workers:
            worker.join(timeout=timeout)
