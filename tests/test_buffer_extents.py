"""The extent LRU against the page-at-a-time pool it replaced.

``PagePool`` below is the buffer pool as it was before the extent LRU:
one ``OrderedDict`` entry per resident page, every read a page walk.  It
is the reference model — kept here, not under ``src/`` — and the
hypothesis test drives it and the shipped pool through the same read
sequences, asserting after every step that nothing observable differs:
return value, counters, the clock's floats (``==``), the disk's read log,
the readahead cursor and the full page-level LRU order.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import BufferPool, MachineProfile, QueryClock, SimulatedDisk
from repro.engine.buffer import SCATTERED_BANDWIDTH_PENALTY
from repro.errors import BufferPoolError

PAGE = 4096

MACHINE = MachineProfile(
    name="T", num_cpus=1, cpu_model="test", cpu_ghz=1.0, cache_kb=512,
    ram_bytes=1 << 30, read_bandwidth=3 * 1024 * 1024 + 7,
    request_latency=0.0083, raid_disks=1, raid_level=0,
    operating_system="none",
)


class PagePool:
    """The pre-extent pool: same reads, same charges, one page at a time."""

    def __init__(self, disk, clock, capacity_bytes, max_run_bytes=None,
                 sequential_coalescing=True):
        self.disk = disk
        self.clock = clock
        self.page_size = disk.page_size
        self.capacity_pages = capacity_bytes // disk.page_size
        self.hit_count = self.miss_count = self.eviction_count = 0
        self.request_count = self.bytes_transferred = 0
        self.max_run_bytes = max_run_bytes
        self.sequential_coalescing = sequential_coalescing
        self._pages = OrderedDict()  # page_id -> True, LRU order
        self._last_disk_page = None

    def clear(self):
        self._pages.clear()
        self._last_disk_page = None

    def stats(self):
        return {
            "page_hits": self.hit_count,
            "page_misses": self.miss_count,
            "evictions": self.eviction_count,
            "disk_requests": self.request_count,
            "bytes_transferred": self.bytes_transferred,
        }

    def resident_pages(self):
        return len(self._pages)

    def is_resident(self, segment, first_byte=0, nbytes=None):
        start, end = segment.page_span(first_byte, nbytes)
        return all(p in self._pages for p in range(start, end))

    def read(self, segment, first_byte=0, nbytes=None):
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

    def read_segment(self, segment):
        return self.read(segment, 0, segment.nbytes)

    def read_pages(self, segment, page_indices, scattered=False):
        base_page, end_page = segment.page_span()
        unique = sorted(set(int(p) for p in page_indices))
        if unique and (unique[0] < 0 or base_page + unique[-1] >= end_page):
            raise BufferPoolError("page index out of range")
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

    def _account(self, segment, hits, misses, n_requests, transferred,
                 seek_seconds, transfer_seconds, scattered):
        self.hit_count += hits
        self.miss_count += misses
        self.request_count += n_requests
        self.bytes_transferred += transferred
        if transferred:
            self.disk.record_read(
                segment.name, transferred, n_requests,
                seek_seconds, transfer_seconds, scattered=scattered,
            )

    def _collect_misses(self, start, end):
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
        self._pages[page] = True


# ----------------------------------------------------------------------
# the twin harness
# ----------------------------------------------------------------------

class Twins:
    """The shipped pool and the reference, each over its own disk and
    clock, with identical segments."""

    def __init__(self, segment_pages, capacity_pages, max_run_pages=None,
                 sequential_coalescing=True):
        self.sides = []
        for pool_class in (BufferPool, PagePool):
            disk = SimulatedDisk(page_size=PAGE)
            clock = QueryClock(MACHINE)
            pool = pool_class(
                disk, clock, capacity_pages * PAGE,
                max_run_bytes=(
                    None if max_run_pages is None else max_run_pages * PAGE
                ),
                sequential_coalescing=sequential_coalescing,
            )
            segments = [
                # Odd byte counts: the last page of a segment is partial.
                disk.create_segment(f"s{i}", pages * PAGE - 17 * (i % 2))
                for i, pages in enumerate(segment_pages)
            ]
            self.sides.append((pool, disk, clock, segments))
        self.pool = self.sides[0][0]
        self.segments = self.sides[0][3]

    def step(self, op):
        """Apply *op* to both pools and compare everything observable."""
        results = []
        for pool, _disk, _clock, segments in self.sides:
            kind = op[0]
            if kind == "clear":
                results.append(pool.clear())
            elif kind == "read":
                _, s, first_byte, nbytes = op
                results.append(pool.read(segments[s], first_byte, nbytes))
            elif kind == "read_segment":
                results.append(pool.read_segment(segments[op[1]]))
            else:
                _, s, pages, scattered = op
                results.append(
                    pool.read_pages(segments[s], pages, scattered=scattered)
                )
        assert results[0] == results[1], op
        self.check(op)

    def check(self, op=None):
        (pool, disk, clock, segments), (ref, rdisk, rclock, _) = self.sides
        assert pool.stats() == ref.stats(), op
        assert clock.timing() == rclock.timing(), op  # floats, exactly
        assert clock.io_history() == rclock.io_history(), op
        assert _read_log(disk) == _read_log(rdisk), op
        assert pool._last_disk_page == ref._last_disk_page, op
        assert lru_order(pool) == list(ref._pages), op
        assert pool.resident_pages() == ref.resident_pages(), op
        for segment in segments:
            assert pool.is_resident(segment) == ref.is_resident(segment)


def _read_log(disk):
    return {
        name: stats.to_dict() for name, stats in disk.read_stats().items()
    }


def lru_order(pool):
    """The shipped pool's page-level LRU order, checking the extent
    invariants on the way: disjoint, indexed by start, counted."""
    lru = pool._lru
    pages, extent = [], lru.head.next
    while extent is not lru.head:
        pages.extend(range(extent.start, extent.end))
        extent = extent.next
    assert len(pages) == len(set(pages)) == lru.resident
    assert lru.resident <= pool.capacity_pages
    assert lru.starts == sorted(lru.starts)
    assert lru.starts == [extent.start for extent in lru.extents]
    assert all(extent.start < extent.end for extent in lru.extents)
    assert sorted(pages) == [
        page for extent in lru.extents
        for page in range(extent.start, extent.end)
    ]
    return pages


@st.composite
def scenarios(draw):
    segment_pages = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    total = sum(segment_pages)
    capacity = draw(st.integers(1, total + 3))
    max_run = draw(st.sampled_from([None, 1, 3]))
    coalescing = draw(st.booleans())

    def op():
        s = draw(st.integers(0, len(segment_pages) - 1))
        nbytes = segment_pages[s] * PAGE - 17 * (s % 2)
        kind = draw(st.sampled_from(
            ["read", "read", "read_segment", "pages", "pages", "clear"]
        ))
        if kind == "read":
            first = draw(st.integers(0, nbytes))
            return ("read", s, first, draw(st.integers(0, nbytes - first)))
        if kind == "pages":
            pages = draw(st.lists(
                st.integers(0, segment_pages[s] - 1), max_size=10,
            ))
            return ("pages", s, pages, draw(st.booleans()))
        return (kind, s)

    n_ops = draw(st.integers(1, 25))
    return segment_pages, capacity, max_run, coalescing, [
        op() for _ in range(n_ops)
    ]


@settings(max_examples=300)
@given(scenarios())
def test_extent_pool_equals_page_pool(scenario):
    segment_pages, capacity, max_run, coalescing, ops = scenario
    twins = Twins(segment_pages, capacity, max_run, coalescing)
    for op in ops:
        twins.step(op)


# ----------------------------------------------------------------------
# the two orderings a rewrite gets wrong, pinned
# ----------------------------------------------------------------------

class TestOrderings:
    def test_read_reinstalls_a_hit_its_own_installs_evicted(self):
        """Sequential flooding: a range longer than the pool whose tail
        is resident.  The leading misses evict the resident tail page by
        page before the walk reaches it; each is installed again —
        uncharged, still a hit — and that install evicts in turn."""
        twins = Twins([11, 2], capacity_pages=10)
        twins.step(("read_segment", 1))                   # two other pages
        twins.step(("read", 0, 3 * PAGE, 8 * PAGE))       # pages 3..10 hot
        twins.step(("read", 0, 0, 11 * PAGE))             # 0..2 miss
        pool = twins.pool
        assert pool.stats()["page_hits"] == 8
        assert pool.stats()["page_misses"] == 2 + 8 + 3
        # 2 others, then every one of the 8 hits once more, plus the
        # first page of the read itself: 11, not the 3 a set difference
        # (resident before vs after) would count.
        assert pool.stats()["evictions"] == 11
        assert lru_order(pool) == list(range(1, 11))

    def test_read_hits_below_the_flood_line_survive(self):
        twins = Twins([11, 2], capacity_pages=10)
        twins.step(("read_segment", 1))
        twins.step(("read", 0, 0, 8 * PAGE))              # pages 0..7 hot
        twins.step(("read", 0, 0, 11 * PAGE))             # 8..10 miss
        assert twins.pool.stats()["evictions"] == 3
        assert lru_order(twins.pool) == list(range(1, 11))

    def test_read_pages_touches_hits_before_the_pending_miss_run(self):
        """Pages 0 and 3 are resident, 1-2 and 5 are not.  The hit on 3 is
        touched while the miss run [1, 3) still waits; the run is
        installed only when the non-adjacent miss 5 arrives — so it ends
        up *more* recent than page 3, and evicts from the old front."""
        twins = Twins([8], capacity_pages=4)
        twins.step(("pages", 0, [7], False))
        twins.step(("pages", 0, [0, 3], False))
        assert lru_order(twins.pool) == [7, 0, 3]
        twins.step(("pages", 0, [0, 1, 2, 3, 5], False))
        assert lru_order(twins.pool) == [3, 1, 2, 5]
        assert twins.pool.stats()["evictions"] == 2      # 7, then 0

    def test_read_pages_counts_a_page_its_own_flush_evicted_as_a_miss(self):
        """Unlike ``read``, ``read_pages`` tests residency page by page:
        page 5 is resident when the call starts, but installing the miss
        run [0, 2) evicts it before the walk gets there."""
        twins = Twins([8], capacity_pages=2)
        twins.step(("pages", 0, [5], False))
        twins.step(("pages", 0, [0, 1, 3, 5], False))
        assert twins.pool.stats()["page_hits"] == 0
        assert twins.pool.stats()["page_misses"] == 1 + 4
        assert lru_order(twins.pool) == [3, 5]


# ----------------------------------------------------------------------
# work is O(extents), not O(pages)
# ----------------------------------------------------------------------

def test_a_range_read_makes_the_same_calls_whatever_its_page_count(
    repro_calls,
):
    def calls(fn):
        return sum(repro_calls(fn).values())

    counts = {}
    for pages in (1, 4_000):
        disk = SimulatedDisk(page_size=PAGE)
        pool = BufferPool(disk, QueryClock(MACHINE), 8_000 * PAGE)
        other = disk.create_segment("other", 3 * PAGE)
        segment = disk.create_segment("column", pages * PAGE)
        pool.read_segment(other)
        counts[pages] = (
            calls(lambda: pool.read(segment, 0, segment.nbytes)),  # cold
            calls(lambda: pool.read(segment, 0, segment.nbytes)),  # hot
            calls(lambda: pool.is_resident(segment)),
        )
        assert pool.stats()["page_misses"] == 3 + pages
        assert pool.stats()["page_hits"] == pages
    assert counts[1] == counts[4_000]
    assert max(counts[1]) < 16


# ----------------------------------------------------------------------
# read_pages input validation
# ----------------------------------------------------------------------

class TestPageIndexValidation:
    @pytest.fixture
    def twins(self):
        twins = Twins([8, 3], capacity_pages=5)
        twins.step(("read", 0, 0, 3 * PAGE))
        twins.step(("pages", 1, [1], False))
        return twins

    @pytest.mark.parametrize("pages", [
        [2.7], [1, True], [False], np.array([1.0, 2.0]), np.array([True]),
        [-1], [1, 8], np.array([0, 9]), range(-1, 2), range(6, 9),
        ["1"], [None], [2, np.float64(3.0)],
    ])
    def test_bad_indices_are_refused_before_anything_moves(self, twins, pages):
        pool, disk, clock, segments = twins.sides[0]
        before = (
            pool.stats(), list(pool._counts), clock.timing(),
            clock.io_history(), _read_log(disk), lru_order(pool),
            pool._last_disk_page,
        )
        with pytest.raises(BufferPoolError):
            pool.read_pages(segments[0], pages)
        assert before == (
            pool.stats(), list(pool._counts), clock.timing(),
            clock.io_history(), _read_log(disk), lru_order(pool),
            pool._last_disk_page,
        )
        twins.check()

    @pytest.mark.parametrize("pages", [
        [0, 2, 2, 5], range(1, 6), np.array([5, 0, 2]),
        np.array([3, 4], dtype=np.uint16), [np.int64(7), 1], (4, 6), [],
    ])
    def test_integral_indices_of_any_container_are_read(self, twins, pages):
        twins.step(("pages", 0, pages, True))
        assert set(lru_order(twins.pool)) >= {int(p) for p in pages}
