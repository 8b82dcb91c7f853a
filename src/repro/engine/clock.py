"""Deterministic query clock: simulated "real" and "user" time.

The paper's timing definitions (Section 2.3):

* **Real time** — wall clock between the server receiving the query and
  returning results: read + parse + optimize + execute.
* **User time** — CPU time spent in the DBMS process, excluding time the OS
  spends on I/O.

The clock therefore keeps two accumulators: CPU seconds (charged by
operators per tuple processed) and I/O seconds (charged by the buffer pool
per disk request).  Simulated real time is their sum — the engines under
study issue synchronous I/O, which is exactly the behaviour the paper
criticizes in C-Store (Figure 5) — and simulated user time is the CPU part.

The clock also keeps the cumulative bytes-read history that reproduces
Figure 5 ("I/O Read history"): one ``(real_time_so_far, cumulative_bytes)``
sample per disk request.

For observability every charge is attributed twice more:

* by **category** — callers tag CPU charges (``"plan"``, ``"execute"``,
  ``"output"``); I/O charges split into ``"io.seek"`` (per-request latency)
  and ``"io.transfer"`` (bandwidth time), the decomposition behind the
  paper's latency-bound-C-Store diagnosis;
* by **span** — :meth:`profile_snapshot` exposes the accumulators so a
  :class:`~repro.observe.trace.Tracer` can compute exact per-operator
  deltas.

Per-tuple operators do not pay a method call per charge: they append to
the clock's ordered pending-charge log (:meth:`QueryClock.cpu_log`), and
the clock folds the log onto its accumulators — exactly, in arrival
order — before anything can observe them.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

_INF = float("inf")
_BAD_CPU_CHARGE = "cannot charge negative or non-finite CPU time"

#: Pending logs shorter than this fold in a plain Python loop: with a
#: tracer on the log is flushed at every tuple pull and holds a handful of
#: entries, far below where numpy's array set-up pays for itself.
_FOLD_ARRAY_MIN = 64


@dataclass(frozen=True)
class QueryTiming:
    """Timing outcome of one query run."""

    real_seconds: float
    user_seconds: float
    bytes_read: int
    io_requests: int
    seek_seconds: float = 0.0
    transfer_seconds: float = 0.0

    def __add__(self, other):
        if not isinstance(other, QueryTiming):
            return NotImplemented
        return QueryTiming(
            self.real_seconds + other.real_seconds,
            self.user_seconds + other.user_seconds,
            self.bytes_read + other.bytes_read,
            self.io_requests + other.io_requests,
            self.seek_seconds + other.seek_seconds,
            self.transfer_seconds + other.transfer_seconds,
        )

    def to_dict(self):
        """The exact timing fields as a plain JSON-ready dict (floats
        survive JSON round-trips bit-for-bit).  The one rendering: API
        results, parity documents, profiles and the perf ledger all
        carry these six keys in this order."""
        return {
            "real_seconds": self.real_seconds,
            "user_seconds": self.user_seconds,
            "seek_seconds": self.seek_seconds,
            "transfer_seconds": self.transfer_seconds,
            "bytes_read": self.bytes_read,
            "io_requests": self.io_requests,
        }


class QueryClock:
    """Accumulates CPU and I/O charges for the query currently running.

    CPU charges arrive two ways.  :meth:`charge_cpu` is the scalar API:
    validate, scale, add.  :meth:`cpu_log` hands a per-tuple operator the
    bound ``append`` of one ordered pending list of ``"execute"`` charges
    (:meth:`charge_cpu_many` extends the same list), and :meth:`_flush`
    folds that list onto the accumulators.  The two are interchangeable
    bit for bit, for three reasons:

    * **strict left fold** — each entry is scaled by ``cpu_scale`` and
      added to the running accumulator in arrival order, by a Python loop
      or by ``np.add.accumulate`` over ``[accumulator, *scaled]``, which
      computes every prefix sequentially.  Builtin ``sum`` and ``np.sum``
      are compensated/pairwise and would round differently.
    * **flush points** — the log is folded before anything can observe
      or interleave with the accumulators: :meth:`charge_io` (the
      Figure-5 trace samples :meth:`real_seconds`), a scalar
      :meth:`charge_cpu` of any category, and every read.  With a tracer
      installed that is every tuple pull.
    * **one shared log** — a pull pipeline interleaves charges from
      different operators; a log per operator would regroup the float
      additions, one log keeps the global order.

    :meth:`reset` clears the log in place, so a bound ``append`` obtained
    once per operator never goes stale.
    """

    def __init__(self, machine):
        self.machine = machine
        self._pending = []
        self.reset()

    def reset(self):
        """Start timing a new query."""
        self._pending.clear()
        self._cpu_seconds = 0.0
        self._io_seconds = 0.0
        self._seek_seconds = 0.0
        self._transfer_seconds = 0.0
        self._bytes_read = 0
        self._io_requests = 0
        self._categories = {}
        self._trace = [(0.0, 0)]

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------

    def charge_cpu(self, seconds, category="execute"):
        """Charge *seconds* of CPU work (already cost-model-weighted)."""
        if self._pending:
            self._flush()
        if not 0 <= seconds < _INF:
            raise ValueError(_BAD_CPU_CHARGE)
        scaled = seconds * self.machine.cpu_scale
        self._cpu_seconds += scaled
        self._categories[category] = self._categories.get(category, 0.0) + scaled

    def cpu_log(self):
        """``charge(seconds)``: append one ``"execute"`` CPU charge to the
        pending log — :meth:`charge_cpu` without the call overhead, for
        per-tuple loops.  Entries are validated when the log is folded."""
        return self._pending.append

    def charge_cpu_many(self, seconds, n):
        """Log *n* consecutive ``"execute"`` charges of *seconds* each."""
        self._pending.extend(repeat(seconds, n))

    def _flush(self):
        """Fold the non-empty pending log onto the CPU and ``"execute"``
        accumulators in arrival order (callers test ``self._pending``
        first: the scalar path pays one truth test, not a call).  A
        negative or non-finite entry raises ``ValueError``; the log is
        left empty and none of it is applied."""
        pending = self._pending
        scale = self.machine.cpu_scale
        cpu = self._cpu_seconds
        execute = self._categories.get("execute", 0.0)
        try:
            if len(pending) < _FOLD_ARRAY_MIN:
                for seconds in pending:
                    if not 0 <= seconds < _INF:
                        raise ValueError(_BAD_CPU_CHARGE)
                    scaled = seconds * scale
                    cpu += scaled
                    execute += scaled
            else:
                terms = np.empty(len(pending) + 1)
                scaled = terms[1:]
                scaled[:] = pending
                # min/max propagate NaN, so one comparison each covers it.
                if not (scaled.min() >= 0 and scaled.max() < _INF):
                    raise ValueError(_BAD_CPU_CHARGE)
                scaled *= scale
                terms[0] = cpu
                cpu = float(np.add.accumulate(terms)[-1])
                terms[0] = execute
                execute = float(np.add.accumulate(terms)[-1])
        finally:
            pending.clear()
        self._cpu_seconds = cpu
        self._categories["execute"] = execute

    def charge_io(self, nbytes, n_requests, bandwidth_penalty=1.0):
        """Charge a disk transfer: per-request latency plus bandwidth time.

        *bandwidth_penalty* > 1 models scattered (non-sequential) access:
        the same bytes transfer at a fraction of the sustained rate.

        Returns ``(seek_seconds, transfer_seconds)`` of this charge so the
        caller can attribute them without re-deriving the cost model.
        """
        if self._pending:
            self._flush()
        if nbytes < 0 or n_requests < 0:
            raise ValueError("cannot charge negative I/O")
        if not 1.0 <= bandwidth_penalty < _INF:
            raise ValueError("bandwidth_penalty must be finite and >= 1")
        if nbytes == 0 and n_requests == 0:
            return 0.0, 0.0
        seek = n_requests * self.machine.request_latency
        transfer = nbytes * bandwidth_penalty / self.machine.read_bandwidth
        self._io_seconds += seek + transfer
        self._seek_seconds += seek
        self._transfer_seconds += transfer
        if seek:
            self._categories["io.seek"] = (
                self._categories.get("io.seek", 0.0) + seek
            )
        if transfer:
            self._categories["io.transfer"] = (
                self._categories.get("io.transfer", 0.0) + transfer
            )
        self._bytes_read += nbytes
        self._io_requests += n_requests
        self._trace.append((self.real_seconds(), self._bytes_read))
        return seek, transfer

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def real_seconds(self):
        if self._pending:
            self._flush()
        return self._cpu_seconds + self._io_seconds

    def user_seconds(self):
        if self._pending:
            self._flush()
        return self._cpu_seconds

    def bytes_read(self):
        return self._bytes_read

    def seek_seconds(self):
        return self._seek_seconds

    def transfer_seconds(self):
        return self._transfer_seconds

    def category_seconds(self):
        """Charged seconds by attribution category (a fresh dict)."""
        if self._pending:
            self._flush()
        return dict(self._categories)

    def profile_snapshot(self):
        """Accumulator vector for exact span attribution:
        ``(cpu, io, bytes, requests, seek, transfer)``."""
        if self._pending:
            self._flush()
        return (
            self._cpu_seconds,
            self._io_seconds,
            self._bytes_read,
            self._io_requests,
            self._seek_seconds,
            self._transfer_seconds,
        )

    def timing(self):
        """Snapshot the accumulated charges as a :class:`QueryTiming`."""
        return QueryTiming(
            real_seconds=self.real_seconds(),
            user_seconds=self.user_seconds(),
            bytes_read=self._bytes_read,
            io_requests=self._io_requests,
            seek_seconds=self._seek_seconds,
            transfer_seconds=self._transfer_seconds,
        )

    def io_history(self):
        """Figure-5-style read history: list of (seconds, cumulative_bytes)."""
        return list(self._trace)
