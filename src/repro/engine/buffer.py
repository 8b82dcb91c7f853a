"""LRU buffer pool with I/O-time accounting.

The buffer pool is the single place where simulated I/O happens.  Engines
call :meth:`BufferPool.read` for every segment access; the pool works out
which pages are missing, groups contiguous misses into disk requests, splits
requests at the engine's request-size cap, and charges the query clock.
Residency is kept per page *extent* (:class:`_ExtentLru`), so a read costs
interval arithmetic over the runs it touches, not a walk over its pages.

The request-size cap is how the paper's C-Store finding is reproduced: an
engine that issues small synchronous requests pays the per-request latency
so often that the effective read rate is latency-bound and a 4x faster RAID
array barely helps (Section 3, Figure 5).  Engines that scan sequentially
with large requests run at the disk's sustained bandwidth.
"""

from bisect import bisect_left, bisect_right
from operator import sub

import numpy as np

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
#: :mod:`repro.observe.counters`).  A pool counts in a plain list, in this
#: order, and :meth:`BufferPool.flush_counters` publishes the deltas in one
#: ``add`` per measured run (``EngineHost.run``), not one per read.
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


class _Extent:
    """A run ``[start, end)`` of resident pages: one node of the LRU ring,
    linked in behind *after* (without it a ring of one: the head)."""

    __slots__ = ("start", "end", "prev", "next")

    def __init__(self, start, end, after=None):
        self.start, self.end = start, end
        self.prev = self.next = self
        if after is not None:
            self.link(after)

    def link(self, after):
        self.prev, self.next = after, after.next
        after.next.prev = after.next = self

    def unlink(self):
        self.prev.next, self.next.prev = self.next, self.prev


class _ExtentLru:
    """The resident pages as disjoint extents in recency order.

    Invariants: extents never overlap; the ring from ``head.next`` runs
    least to most recently used, and inside an extent recency ascends with
    the page number — so expanding the ring extent by extent is the exact
    page-level LRU order; ``starts`` / ``extents`` index the same extents
    by start page.  Every operation costs O(extents touched), not O(pages).
    """

    def __init__(self):
        self.clear()

    def clear(self):
        self.head = _Extent(0, 0)
        self.starts = []   # extent start pages, ascending ...
        self.extents = []  # ... and the extents, in the same order
        self.resident = 0

    def find(self, page):
        """``(index, extent)``: the extent holding *page* and its index,
        or the index *page* would be inserted at and ``None``."""
        index = bisect_right(self.starts, page) - 1
        if index >= 0 and page < self.extents[index].end:
            return index, self.extents[index]
        return index + 1, None

    def _boundary(self, page):
        """Index of the first extent at or after *page*, splitting the
        extent *page* falls inside (the halves stay adjacent in the ring)."""
        index, extent = self.find(page)
        if extent is not None and extent.start < page:
            index += 1
            self.starts.insert(index, page)
            self.extents.insert(index, _Extent(page, extent.end, extent))
            extent.end = page
        return index

    def install(self, start, end):
        """Make ``[start, end)`` the most recently used extent, carving it
        out of whatever held its pages; returns ``(hits, miss_runs)`` —
        how many of its pages were resident and the runs that were not."""
        starts = self.starts
        lo, extent = self.find(start)
        if extent is None:
            if lo == len(starts) or starts[lo] >= end:
                starts.insert(lo, start)  # all new (any read once cleared)
                self.extents.insert(lo, _Extent(start, end, self.head.prev))
                self.resident += end - start
                return 0, ((start, end),)
        elif extent.start == start and extent.end == end:
            extent.unlink()  # the same extent read again: re-queue it
            extent.link(self.head.prev)
            return end - start, ()
        lo, hi = self._boundary(start), self._boundary(end)
        hits, miss_runs, cursor = 0, [], start
        for extent in self.extents[lo:hi]:
            if extent.start > cursor:
                miss_runs.append((cursor, extent.start))
            hits += extent.end - extent.start
            cursor = extent.end
            extent.unlink()
        if cursor < end:
            miss_runs.append((cursor, end))
        self.starts[lo:hi] = [start]
        self.extents[lo:hi] = [_Extent(start, end, self.head.prev)]
        self.resident += end - start - hits
        return hits, miss_runs

    def trim(self, capacity):
        """Evict least recently used pages down to *capacity*; returns
        how many went.  The oldest extent is trimmed from its front."""
        excess = left = self.resident - capacity
        if excess <= 0:
            return 0
        self.resident = capacity
        while left:
            extent = self.head.next
            index = bisect_left(self.starts, extent.start)
            size = extent.end - extent.start
            if size > left:
                extent.start = self.starts[index] = extent.start + left
                break
            extent.unlink()
            del self.starts[index], self.extents[index]
            left -= size
        return excess


def _page_list(segment, page_indices):
    """*page_indices* as a list (or ``range``) of Python ints.  Anything
    non-integral — a float, a bool, a float array — is refused, not
    truncated to a page nobody asked for."""
    if isinstance(page_indices, range):
        return page_indices
    if not isinstance(page_indices, np.ndarray):
        page_indices = list(page_indices)
        kinds = set(map(type, page_indices))
        if kinds <= {int}:
            return page_indices
        # numpy integers pass; numpy would also pass True as 1, so a
        # list holding a bool is made an object array and refused.
        dtype = object if bool in kinds else None
        page_indices = np.asarray(page_indices, dtype)
    if page_indices.dtype.kind not in "iu":
        raise BufferPoolError(
            f"non-integral page index for segment {segment.name!r}"
        )
    return page_indices.tolist()


def _page_runs(pages, base):
    """The maximal runs ``(start, stop)`` of consecutive numbers in the
    ascending *pages*, as global page ids (offset by *base*)."""
    n = len(pages)
    if n and pages[-1] - pages[0] == n - 1:  # one run: a range, one page
        return ((base + pages[0], base + pages[-1] + 1),)
    runs, i = [], 0
    while i < n:
        j = i + 1
        while j < n and pages[j] == pages[j - 1] + 1:
            j += 1
        runs.append((base + pages[i], base + pages[j - 1] + 1))
        i = j
    return runs


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
        # Always-on accounting, in _COUNTERS order, and how much of it
        # flush_counters() has published.
        self._counts = [0] * 6
        self._flushed = [0] * 6
        #: Largest number of bytes the engine fetches per disk request.
        #: ``None`` means unbounded (one request per contiguous miss run).
        self.max_run_bytes = max_run_bytes
        #: When True, a read continuing exactly where the previous disk read
        #: ended rides the OS readahead stream and pays no new seek.  The
        #: C-Store replica turns this off: its synchronous request-at-a-time
        #: I/O pays full latency per request (paper, Section 3 / Figure 5).
        self.sequential_coalescing = sequential_coalescing
        self._lru = _ExtentLru()
        # Last page transferred from disk: a read continuing at the very
        # next page is sequential (readahead) and pays no new seek.
        self._last_disk_page = None

    # ------------------------------------------------------------------
    # cache state management (cold/hot protocol)
    # ------------------------------------------------------------------

    def clear(self):
        """Drop every cached page: the benchmark's *cold* starting state."""
        self._lru.clear()
        self._last_disk_page = None

    def stats(self):
        """The always-on accounting counters as a dict (every declared
        counter but the last, ``account_calls``)."""
        return dict(zip(_COUNTERS.names[:-1], self._counts))

    def reset_stats(self):
        self.flush_counters()
        self._counts = [0] * 6
        self._flushed = [0] * 6

    def flush_counters(self):
        """Publish what this pool counted since the last flush to the
        process-wide ``buffer_pool`` group, in one ``add``."""
        if self._counts != self._flushed:
            _COUNTERS.add(*map(sub, self._counts, self._flushed))
            self._flushed = list(self._counts)

    def hit_ratio(self):
        """This pool's page-hit ratio (``None`` before any read)."""
        return hit_ratio(self.stats())

    def resident_pages(self):
        return self._lru.resident

    def is_resident(self, segment, first_byte=0, nbytes=None):
        """True when every page of the byte range is cached."""
        page, end = segment.page_span(first_byte, nbytes)
        while page < end:
            extent = self._lru.find(page)[1]
            if extent is None:
                return False
            page = extent.end
        return True

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def read(self, segment, first_byte=0, nbytes=None):
        """Read a byte range of *segment*, charging I/O for page misses.

        Returns the number of bytes actually transferred from disk (0 when
        the range was fully cached).
        """
        return self.read_span(segment, *segment.page_span(first_byte, nbytes))

    def read_span(self, segment, start, end):
        """:meth:`read` by global page span ``[start, end)`` — for callers
        that resolved ``segment.page_span(...)`` ahead of time."""
        lru, capacity = self._lru, self.capacity_pages
        hits, miss_runs = lru.install(start, end) if start < end else (0, ())
        evictions = lru.trim(capacity)
        if hits and end - start > capacity:
            # Sequential flooding.  A page walk installs in page order:
            # once the misses have used the room the hits left, every
            # further install evicts the oldest page — a hit of this very
            # read still waiting its turn, which is installed again when
            # its turn comes (uncharged, still a hit) and evicts the next.
            # That starts at miss number ``spare + 1``, and every hit
            # above that page is evicted a second time.
            spare = capacity - hits
            for run_start, run_end in miss_runs:
                if run_end - run_start > spare:
                    evictions += capacity - (run_start + spare - start)
                    break
                spare -= run_end - run_start
        return self._account(segment, hits, miss_runs, evictions, False)

    def read_segment(self, name_or_segment):
        """Read a whole segment (a full column / table scan)."""
        segment = self._resolve(name_or_segment)
        return self.read(segment, 0, segment.nbytes)

    def read_pages(self, segment, page_indices, scattered=False):
        """Read pages of *segment* by number (index lookups, row fetches).

        *page_indices* are segment-relative page numbers: a list or
        ``range`` of ints, or an integer array.  Contiguous runs of missing
        pages still coalesce into single requests.  With
        ``scattered=True`` the pages arrive in index order rather than disk
        order, so the transfer pays the random-access bandwidth penalty.
        """
        base_page, end_page = segment.page_span()
        unique = sorted(set(_page_list(segment, page_indices)))
        if unique and (unique[0] < 0 or base_page + unique[-1] >= end_page):
            raise BufferPoolError(
                f"page index out of range for segment {segment.name!r}"
            )
        lru, capacity = self._lru, self.capacity_pages
        hits = evictions = 0
        miss_runs = []
        pending = None  # the miss run [start, end) not yet installed
        for page, stop in _page_runs(unique, base_page):
            while page < stop:
                index, extent = lru.find(page)
                if extent is not None:
                    # A hit is touched at once — ahead of the miss run
                    # still waiting to be installed.
                    upto = min(extent.end, stop)
                    lru.install(page, upto)
                    hits += upto - page
                    page = upto
                    continue
                if pending is None or pending[1] != page:
                    # A non-adjacent miss installs the run before it, and
                    # what that evicts is a miss from here on.
                    if pending is not None:
                        lru.install(*pending)
                        evictions += lru.trim(capacity)
                        index = lru.find(page)[0]
                    pending = [page, page]
                    miss_runs.append(pending)
                page = pending[1] = (
                    min(stop, lru.starts[index])
                    if index < len(lru.starts) else stop
                )
        if pending is not None:
            lru.install(*pending)
            evictions += lru.trim(capacity)
        return self._account(segment, hits, miss_runs, evictions, scattered)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _account(self, segment, hits, miss_runs, evictions, scattered):
        """Charge the disk transfer of *miss_runs* and update the always-on
        counters, the disk's per-segment read log and the active trace
        span; returns the bytes transferred."""
        transferred = n_requests = 0
        for start, end in miss_runs:
            run_bytes = (end - start) * self.page_size
            transferred += run_bytes
            n_requests += self._requests_for_run(run_bytes, start)
            self._last_disk_page = end - 1
        misses = transferred // self.page_size
        counts = self._counts
        counts[0] += hits
        counts[1] += misses
        counts[2] += evictions
        counts[3] += n_requests
        counts[4] += transferred
        counts[5] += 1
        if transferred:
            seek, transfer = self.clock.charge_io(
                transferred, n_requests, bandwidth_penalty=(
                    SCATTERED_BANDWIDTH_PENALTY if scattered else 1.0
                ),
            )
            self.disk.record_read(
                segment.name, transferred, n_requests, seek, transfer,
                scattered=scattered,
            )
        tracer = self.tracer
        if tracer.enabled:
            tracer.current_add(
                page_hits=hits, page_misses=misses, disk_requests=n_requests,
            )
            if evictions:
                tracer.current_add(evictions=evictions)
        return transferred

    def _resolve(self, name_or_segment):
        if isinstance(name_or_segment, str):
            return self.disk.segment(name_or_segment)
        return name_or_segment

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
