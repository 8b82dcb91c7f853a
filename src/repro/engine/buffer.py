"""LRU buffer pool with I/O-time accounting.

The buffer pool is the single place where simulated I/O happens.  Engines
call :meth:`BufferPool.read` for every segment access; the pool works out
which pages are missing, groups contiguous misses into disk requests, splits
requests at the engine's request-size cap, and charges the query clock.

The request-size cap is how the paper's C-Store finding is reproduced: an
engine that issues small synchronous requests pays the per-request latency
so often that the effective read rate is latency-bound and a 4x faster RAID
array barely helps (Section 3, Figure 5).  Engines that scan sequentially
with large requests run at the disk's sustained bandwidth.
"""

from collections import OrderedDict

from repro.errors import BufferPoolError
from repro.observe import counters
from repro.observe.trace import NULL_TRACER

#: Effective-bandwidth divisor for scattered (index-order) page reads: the
#: same bytes stream at roughly a quarter of the sequential rate — the
#: regime behind the paper's SPO-vs-PSO gap, where an unclustered index's
#: heap fetches read the table at a fraction of what a clustered range scan
#: achieves (Section 4.3: "DBX is spending half of the execution time
#: waiting for the data to be retrieved from disk").
SCATTERED_BANDWIDTH_PENALTY = 4.0

#: Process-wide always-on accounting, aggregated across every pool this
#: process creates (the ``buffer_pool`` group of
#: :mod:`repro.observe.counters`).  Each ``read()`` flushes its deltas in
#: one ``add`` — negligible next to the page walk the read performs.
_COUNTERS = counters.declare(
    "buffer_pool", page_hits=0, page_misses=0, evictions=0,
    disk_requests=0, bytes_transferred=0, account_calls=0,
)


def hit_ratio(stats):
    """Page-hit ratio of a stats dict; ``None`` when no pages were read."""
    touched = stats["page_hits"] + stats["page_misses"]
    if not touched:
        return None
    return stats["page_hits"] / touched


class BufferPool:
    """Page cache over a :class:`~repro.engine.disk.SimulatedDisk`."""

    def __init__(self, disk, clock, capacity_bytes, max_run_bytes=None,
                 sequential_coalescing=True):
        if capacity_bytes < disk.page_size:
            raise BufferPoolError("buffer pool smaller than one page")
        self.disk = disk
        self.clock = clock
        #: The per-query sink (swapped by ``EngineHost.install_tracer``);
        #: the default is inert, so accounting beyond the plain counters
        #: below is skipped.
        self.tracer = NULL_TRACER
        self.page_size = disk.page_size
        self.capacity_pages = capacity_bytes // disk.page_size
        # Always-on accounting: plain ints, negligible next to the page walk.
        self.hit_count = 0
        self.miss_count = 0
        self.eviction_count = 0
        self.request_count = 0
        self.bytes_transferred = 0
        #: Largest number of bytes the engine fetches per disk request.
        #: ``None`` means unbounded (one request per contiguous miss run).
        self.max_run_bytes = max_run_bytes
        #: When True, a read continuing exactly where the previous disk read
        #: ended rides the OS readahead stream and pays no new seek.  The
        #: C-Store replica turns this off: its synchronous request-at-a-time
        #: I/O pays full latency per request (paper, Section 3 / Figure 5).
        self.sequential_coalescing = sequential_coalescing
        self._pages = OrderedDict()  # page_id -> True, LRU order
        # Last page transferred from disk: a read continuing at the very
        # next page is sequential (readahead) and pays no new seek.
        self._last_disk_page = None
        # Evictions since the last _account() flush: the process-wide
        # counters take their lock once per read, not once per evicted
        # page.
        self._unflushed_evictions = 0

    # ------------------------------------------------------------------
    # cache state management (cold/hot protocol)
    # ------------------------------------------------------------------

    def clear(self):
        """Drop every cached page: the benchmark's *cold* starting state."""
        self._pages.clear()
        self._last_disk_page = None

    def stats(self):
        """The always-on accounting counters as a dict."""
        return {
            "page_hits": self.hit_count,
            "page_misses": self.miss_count,
            "evictions": self.eviction_count,
            "disk_requests": self.request_count,
            "bytes_transferred": self.bytes_transferred,
        }

    def reset_stats(self):
        self.hit_count = 0
        self.miss_count = 0
        self.eviction_count = 0
        self.request_count = 0
        self.bytes_transferred = 0

    def hit_ratio(self):
        """This pool's page-hit ratio (``None`` before any read)."""
        return hit_ratio(self.stats())

    def resident_pages(self):
        return len(self._pages)

    def is_resident(self, segment, first_byte=0, nbytes=None):
        """True when every page of the byte range is cached."""
        start, end = segment.page_span(first_byte, nbytes)
        return all(p in self._pages for p in range(start, end))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, segment, first_byte=0, nbytes=None):
        """Read a byte range of *segment*, charging I/O for page misses.

        Returns the number of bytes actually transferred from disk (0 when
        the range was fully cached).
        """
        start, end = segment.page_span(first_byte, nbytes)
        miss_runs = self._collect_misses(start, end)
        transferred = 0
        n_requests = 0
        for run_start, run_end in miss_runs:
            run_bytes = (run_end - run_start) * self.page_size
            transferred += run_bytes
            n_requests += self._requests_for_run(run_bytes, run_start)
            self._last_disk_page = run_end - 1
        seek = transfer = 0.0
        if transferred:
            seek, transfer = self.clock.charge_io(transferred, n_requests)
        self._install(start, end)
        misses = transferred // self.page_size
        self._account(
            segment, (end - start) - misses, misses, n_requests,
            transferred, seek, transfer, scattered=False,
        )
        return transferred

    def read_segment(self, name_or_segment):
        """Read a whole segment (a full column / table scan)."""
        segment = self._resolve(name_or_segment)
        return self.read(segment, 0, segment.nbytes)

    def read_pages(self, segment, page_indices, scattered=False):
        """Read pages of *segment* by number (index lookups, row fetches).

        *page_indices* are segment-relative page numbers.  Contiguous runs
        of missing pages still coalesce into single requests.  With
        ``scattered=True`` the pages arrive in index order rather than disk
        order, so the transfer pays the random-access bandwidth penalty.
        """
        base_page, end_page = segment.page_span()
        unique = sorted(set(int(p) for p in page_indices))
        if unique and (unique[0] < 0 or base_page + unique[-1] >= end_page):
            raise BufferPoolError(
                f"page index out of range for segment {segment.name!r}"
            )
        transferred = 0
        n_requests = 0
        hits = 0
        run = []
        for p in unique:
            page = base_page + p
            if page in self._pages:
                self._pages.move_to_end(page)
                hits += 1
                continue
            if run and page != run[-1] + 1:
                transferred, n_requests = self._flush_run(
                    run, transferred, n_requests
                )
                run = []
            run.append(page)
        if run:
            transferred, n_requests = self._flush_run(run, transferred, n_requests)
        seek = transfer = 0.0
        if transferred:
            penalty = SCATTERED_BANDWIDTH_PENALTY if scattered else 1.0
            seek, transfer = self.clock.charge_io(
                transferred, n_requests, bandwidth_penalty=penalty
            )
        self._account(
            segment, hits, transferred // self.page_size, n_requests,
            transferred, seek, transfer, scattered=scattered,
        )
        return transferred

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _account(self, segment, hits, misses, n_requests, transferred,
                 seek_seconds, transfer_seconds, scattered):
        """Update the always-on counters, the disk's per-segment read log,
        and the active trace span."""
        self.hit_count += hits
        self.miss_count += misses
        self.request_count += n_requests
        self.bytes_transferred += transferred
        evictions = self._unflushed_evictions
        self._unflushed_evictions = 0
        _COUNTERS.add(hits, misses, evictions, n_requests, transferred, 1)
        if transferred:
            self.disk.record_read(
                segment.name, transferred, n_requests,
                seek_seconds, transfer_seconds, scattered=scattered,
            )
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.current_add(
            page_hits=hits, page_misses=misses, disk_requests=n_requests,
        )
        if evictions:
            tracer.current_add(evictions=evictions)

    def _resolve(self, name_or_segment):
        if isinstance(name_or_segment, str):
            return self.disk.segment(name_or_segment)
        return name_or_segment

    def _collect_misses(self, start, end):
        """Contiguous runs of missing pages within [start, end)."""
        runs = []
        run_start = None
        for page in range(start, end):
            if page in self._pages:
                self._pages.move_to_end(page)
                if run_start is not None:
                    runs.append((run_start, page))
                    run_start = None
            elif run_start is None:
                run_start = page
        if run_start is not None:
            runs.append((run_start, end))
        return runs

    def _requests_for_run(self, run_bytes, run_start):
        if self.max_run_bytes is None:
            chunks = 1
        else:
            chunks = max(1, -(-run_bytes // self.max_run_bytes))
        if (
            self.sequential_coalescing
            and self._last_disk_page is not None
            and run_start == self._last_disk_page + 1
        ):
            # Sequential continuation: the disk head is already there.
            chunks -= 1
        return chunks

    def _flush_run(self, run, transferred, n_requests):
        run_bytes = len(run) * self.page_size
        transferred += run_bytes
        n_requests += self._requests_for_run(run_bytes, run[0])
        self._last_disk_page = run[-1]
        for page in run:
            self._install_page(page)
        return transferred, n_requests

    def _install(self, start, end):
        for page in range(start, end):
            self._install_page(page)

    def _install_page(self, page):
        if page in self._pages:
            self._pages.move_to_end(page)
            return
        while len(self._pages) >= self.capacity_pages:
            self._pages.popitem(last=False)
            self.eviction_count += 1
            self._unflushed_evictions += 1
        self._pages[page] = True
