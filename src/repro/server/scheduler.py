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

All accounting (accepted / rejected / completed / failed / timeout
counters, queue-wait / execution / total latency histograms in
milliseconds, queue-depth gauge) lands in a
:class:`~repro.observe.metrics.MetricsRegistry` owned by the scheduler,
mutated only under an internal lock, and exportable as JSON or Prometheus
text via the existing :mod:`repro.observe` exporters.
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
from repro.observe.metrics import MetricsRegistry

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
        self.registry = MetricsRegistry()
        self._queue = queue.Queue(maxsize=self.config.queue_depth)
        self._stats_lock = threading.Lock()
        self._accepting = True
        self._stopped = threading.Event()
        self._in_flight = 0
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
        if not self._accepting:
            raise SessionClosed("server is shutting down")
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
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            self._count("rejected")
            raise ServerOverloaded(
                f"admission queue full ({self.config.queue_depth} pending); "
                "retry later"
            ) from None
        self._count("accepted")
        self._gauge_depth()
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
                with self._stats_lock:
                    self._in_flight -= 1
                self._queue.task_done()
                self._gauge_depth()

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
                self._observe_outcome(request, started, "timeout")
                request.done.set()
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
        self._observe_outcome(request, started, outcome)
        request.done.set()

    def _observe_outcome(self, request, started, outcome):
        finished = time.monotonic()
        request.exec_ms = (finished - started) * 1000.0
        total_ms = (finished - request.enqueued_at) * 1000.0
        with self._stats_lock:
            self.registry.counter("server.queries", outcome=outcome).inc()
            self.registry.histogram("server.queue_wait_ms").observe(
                request.queue_ms
            )
            self.registry.histogram("server.execution_ms").observe(
                request.exec_ms
            )
            self.registry.histogram("server.latency_ms").observe(total_ms)

    def _count(self, name):
        with self._stats_lock:
            self.registry.counter("server.admission", outcome=name).inc()

    def _gauge_depth(self):
        with self._stats_lock:
            self.registry.gauge("server.queue_depth").set(
                self._queue.qsize()
            )

    def publish_plan_cache(self, stats):
        """Mirror the connection's prepared-plan cache counters into the
        metrics registry as gauges (the cache lives on the connection,
        outside the registry, so the Prometheus exporter refreshes these
        just before rendering)."""
        with self._stats_lock:
            for key, value in stats.items():
                self.registry.gauge(f"server.plan_cache_{key}").set(value)

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self):
        """JSON-ready snapshot: registry dump plus live depth/in-flight."""
        with self._stats_lock:
            snapshot = self.registry.to_dict()
            in_flight = self._in_flight
        snapshot["live"] = {
            "queue_depth": self._queue.qsize(),
            "in_flight": in_flight,
            "workers": self.config.workers,
            "queue_capacity": self.config.queue_depth,
            "accepting": self._accepting,
            "max_dop": self.config.max_dop,
        }
        return snapshot

    def latency_summary(self):
        """p50/p95/p99/mean of total latency (ms), from the registry."""
        with self._stats_lock:
            histogram = self.registry.histogram("server.latency_ms")
            return histogram.summary()

    def shutdown(self, drain=True, timeout=30.0):
        """Stop the scheduler.

        With ``drain=True`` (graceful), admission closes first, every
        already-accepted query runs to completion, then workers exit.
        With ``drain=False``, queued-but-unstarted requests are failed
        with :class:`SessionClosed`.
        """
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
