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
"""

from dataclasses import dataclass


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
    """Accumulates CPU and I/O charges for the query currently running."""

    def __init__(self, machine):
        self.machine = machine
        self.reset()

    def reset(self):
        """Start timing a new query."""
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
        if seconds < 0:
            raise ValueError("cannot charge negative CPU time")
        scaled = seconds * self.machine.cpu_scale
        self._cpu_seconds += scaled
        self._categories[category] = self._categories.get(category, 0.0) + scaled

    def charge_io(self, nbytes, n_requests, bandwidth_penalty=1.0):
        """Charge a disk transfer: per-request latency plus bandwidth time.

        *bandwidth_penalty* > 1 models scattered (non-sequential) access:
        the same bytes transfer at a fraction of the sustained rate.

        Returns ``(seek_seconds, transfer_seconds)`` of this charge so the
        caller can attribute them without re-deriving the cost model.
        """
        if nbytes < 0 or n_requests < 0:
            raise ValueError("cannot charge negative I/O")
        if bandwidth_penalty < 1.0:
            raise ValueError("bandwidth_penalty must be >= 1")
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
        return self._cpu_seconds + self._io_seconds

    def user_seconds(self):
        return self._cpu_seconds

    def bytes_read(self):
        return self._bytes_read

    def seek_seconds(self):
        return self._seek_seconds

    def transfer_seconds(self):
        return self._transfer_seconds

    def category_seconds(self):
        """Charged seconds by attribution category (a fresh dict)."""
        return dict(self._categories)

    def profile_snapshot(self):
        """Accumulator vector for exact span attribution:
        ``(cpu, io, bytes, requests, seek, transfer)``."""
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
