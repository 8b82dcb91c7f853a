"""The session scheduler: bounded admission, execution slots, deadlines.

One :class:`SessionScheduler` fronts one :class:`repro.api.Connection`
and starts no thread: each query runs on the thread that calls
:meth:`~SessionScheduler.execute` (for HTTP, the listener's
per-connection thread).  At most ``workers`` admitted queries run at
once; the rest wait for a slot and start in arrival order.  When
``queue_depth`` requests already wait, a new one raises
:class:`~repro.errors.ServerOverloaded` immediately — backpressure is
explicit, never unbounded buffering.  Execution serializes on the
connection's lock (the simulated engine is single-threaded), so queries
interleave at query granularity, contend for the shared buffer pool, and
a request's latency decomposes into slot wait + execution.

Deadlines are enforced twice: a request whose deadline passes while it
waits fails without ever touching the engine, and a running one arms the
runtime's cooperative :class:`~repro.exec.cancel.CancellationToken`
through ``Session.query(timeout=...)``.

All accounting is a closed set of plain fields (admission and outcome
counts, queue-wait / execution / total latency
:class:`~repro.observe.metrics.Histogram` in milliseconds) under one
lock, taken once to admit and start a request and once to finish it,
which also hands the slot to the oldest waiter.  No lock is held while a
query runs.  :meth:`SessionScheduler.samples` yields the fields as
series for the Prometheus exporter, :meth:`SessionScheduler.stats` as
the ``/v1/stats`` document.
"""

import collections
import math
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

    #: Admitted queries that run at once.
    workers: int = 4
    #: Requests that may wait for a slot before admission answers 429.
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


class _Turn(threading.Event):
    """A request waiting for a slot.  ``granted`` is written under the
    stats lock before the event is set; set without ``granted`` means
    :meth:`SessionScheduler.shutdown` refused the request."""

    granted = False


class SessionScheduler:
    """Admission and execution slots for queries against one shared
    connection, each run on its caller's thread."""

    def __init__(self, connection, config=None):
        self.connection = connection
        self.config = config or SchedulerConfig()
        # Anonymous queries share it: a Session holds only defaults.
        self._session = connection.session()
        self._stats_lock = threading.Condition(threading.Lock())
        # Admission tests the flag under the lock shutdown() flips it
        # under, so no request is admitted behind the drain.
        self._accepting = True  # guarded-by: _stats_lock
        self._in_flight = 0  # guarded-by: _stats_lock
        self._waiting = collections.deque()  # guarded-by: _stats_lock
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

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, text, **kwargs):
        """Run a query on the calling thread once admitted; returns the
        :class:`repro.api.Result` or raises the query's error.

        Admission raises :class:`ServerOverloaded` when ``queue_depth``
        requests already wait, :class:`SessionClosed` after
        :meth:`shutdown`, and a plain :class:`ReproError` for a *timeout*,
        *workers* or *optimize* value out of range.
        """
        result, error, _queue_ms, _exec_ms = self.run(text, **kwargs)
        if error is not None:
            raise error
        return result

    def run(self, text, **kwargs):
        """:meth:`execute`, returning ``(result, error, queue_ms,
        exec_ms)``: a refusal raises, the query's own error is returned
        beside its wall-clock slot wait and execution time."""
        kwargs, deadline = self._admission_kwargs(kwargs)
        arrived = time.monotonic()
        turn = self._admit()
        holds_slot = turn is None or self._await_slot(turn, deadline)
        started = time.monotonic()
        queue_ms = (started - arrived) * 1000.0
        result = error = None
        if not holds_slot or (deadline is not None and deadline <= started):
            error = QueryTimeout(
                f"query timed out while queued (waited {queue_ms:.1f}ms)"
            )
            outcome = "timeout"
        else:
            try:
                result = self._session.query(
                    text, timeout=None if deadline is None
                    else deadline - started, **kwargs
                )
                outcome = "completed"
            except QueryTimeout as exc:
                error, outcome = exc, "timeout"
            except ReproError as exc:
                error, outcome = exc, "failed"
            except Exception as exc:  # defensive: answer, never unwind
                log.exception("query crashed on %r", text)
                error = ReproError(f"internal error: {exc}")
                outcome = "failed"
        exec_ms = (time.monotonic() - started) * 1000.0
        with self._stats_lock:
            self._counts["server.queries", outcome] += 1
            self._histograms["server.queue_wait_ms"].observe(queue_ms)
            self._histograms["server.execution_ms"].observe(exec_ms)
            self._histograms["server.latency_ms"].observe(queue_ms + exec_ms)
            if holds_slot and self._waiting:  # in-flight stays
                successor = self._waiting.popleft()
                successor.granted = True
                successor.set()
            elif holds_slot:
                self._in_flight -= 1
                if not self._in_flight:
                    self._stats_lock.notify_all()  # a drain may be waiting
        return result, error, queue_ms, exec_ms

    def _admit(self):
        """Admit one request: ``None`` when it holds a slot now, else the
        :class:`_Turn` it waits on."""
        with self._stats_lock:
            if not self._accepting:
                raise SessionClosed("server is shutting down")
            if self._in_flight < self.config.workers and not self._waiting:
                turn = None
                self._in_flight += 1
            elif len(self._waiting) >= self.config.queue_depth:
                self._counts["server.admission", "rejected"] += 1
                raise ServerOverloaded(
                    f"admission queue full ({self.config.queue_depth} "
                    "pending); retry later"
                )
            else:
                turn = _Turn()
                self._waiting.append(turn)
            self._counts["server.admission", "accepted"] += 1
        return turn

    def _admission_kwargs(self, kwargs):
        """Validate the values a request body sets; returns the kwargs
        for ``Session.query`` (``workers`` clamped to ``max_dop``) and the
        absolute deadline, or ``None``."""
        timeout = kwargs.pop("timeout", None)
        if timeout is None:
            timeout = self.config.default_timeout
        else:
            validate_timeout(timeout)
        optimize = kwargs.get("optimize", False)
        if not isinstance(optimize, bool):
            raise ReproError(
                f"'optimize' must be a JSON boolean, got {optimize!r}"
            )
        workers = kwargs.get("workers")
        if workers is not None and not (
            _is_number(workers, int) and workers >= 1
        ):
            raise ReproError(
                f"'workers' must be an integer >= 1, got {workers!r}"
            )
        if self.config.max_dop is not None:
            max_dop = int(self.config.max_dop)
            kwargs["workers"] = min(workers or max_dop, max_dop)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        return kwargs, deadline

    def _await_slot(self, turn, deadline):
        """Wait until *turn* holds a slot (``True``) or its deadline
        passes first (``False``, and it has left the line)."""
        turn.wait(
            None if deadline is None else max(deadline - time.monotonic(), 0)
        )
        with self._stats_lock:
            if turn.granted:
                return True
            if turn.is_set():
                raise SessionClosed("server shut down")
            self._waiting.remove(turn)
        return False

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
            samples.append(
                ("gauge", "server.queue_depth", {}, len(self._waiting))
            )
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
            "queue_depth": len(self._waiting),
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
        """Stop admission, then wait up to *timeout* seconds until nothing
        waits or runs.

        With ``drain=True`` (graceful) every admitted query runs to
        completion.  With ``drain=False`` requests still waiting for a
        slot fail with :class:`SessionClosed`; running ones finish.
        """
        with self._stats_lock:
            self._accepting = False
            if not drain:
                while self._waiting:
                    self._waiting.popleft().set()
            # Requests wait only while every slot is taken.
            self._stats_lock.wait_for(lambda: not self._in_flight, timeout)
