"""BufferPool accounting: exact hit/miss/eviction/request/charge values.

Uses a hand-built machine profile with round numbers (1 MiB/s bandwidth,
10 ms seek) so every expected value can be computed in the test by hand.
"""

import pytest

from repro.engine import BufferPool, MachineProfile, QueryClock, SimulatedDisk
from repro.engine.buffer import SCATTERED_BANDWIDTH_PENALTY
from repro.observe import NULL_TRACER, Tracer

PAGE = 4096
BANDWIDTH = 1024 * 1024  # 1 MiB/s
LATENCY = 0.010  # seconds per request

TEST_MACHINE = MachineProfile(
    name="T",
    num_cpus=1,
    cpu_model="test",
    cpu_ghz=1.0,
    cache_kb=512,
    ram_bytes=1024 * 1024 * 1024,
    read_bandwidth=BANDWIDTH,
    request_latency=LATENCY,
    raid_disks=1,
    raid_level=0,
    operating_system="none",
)


def make_pool(capacity_pages=64, max_run_bytes=None):
    disk = SimulatedDisk(page_size=PAGE)
    clock = QueryClock(TEST_MACHINE)
    pool = BufferPool(
        disk, clock, capacity_pages * PAGE, max_run_bytes=max_run_bytes,
    )
    return disk, clock, pool


class TestSequentialAccounting:
    def test_cold_scan_counts_and_charges(self):
        disk, clock, pool = make_pool()
        segment = disk.create_segment("col", 10 * PAGE)
        transferred = pool.read_span(segment, *segment.page_span())
        assert transferred == 10 * PAGE
        assert pool.stats() == {
            "page_hits": 0,
            "page_misses": 10,
            "evictions": 0,
            "disk_requests": 1,
            "bytes_transferred": 10 * PAGE,
        }
        assert clock.seek_seconds() == pytest.approx(LATENCY)
        assert clock.transfer_seconds() == pytest.approx(
            10 * PAGE / BANDWIDTH
        )
        assert clock.real_seconds() == pytest.approx(
            LATENCY + 10 * PAGE / BANDWIDTH
        )
        assert segment.num_pages() == 10

    def test_hot_scan_is_all_hits(self):
        disk, clock, pool = make_pool()
        col = disk.create_segment("col", 10 * PAGE)
        pool.read_span(col, *col.page_span())
        before = clock.real_seconds()
        assert pool.read_span(col, *col.page_span()) == 0
        stats = pool.stats()
        assert stats["page_hits"] == 10
        assert stats["page_misses"] == 10  # from the cold scan only
        assert clock.real_seconds() == before

    def test_partial_residency_reads_only_misses(self):
        disk, clock, pool = make_pool()
        segment = disk.create_segment("col", 10 * PAGE)
        # Pages 0-3 now hot.
        pool.read_span(segment, *segment.page_span(0, 4 * PAGE))
        pool.reset_stats()
        pool.read_span(segment, *segment.page_span())
        stats = pool.stats()
        assert stats["page_hits"] == 4
        assert stats["page_misses"] == 6
        assert stats["bytes_transferred"] == 6 * PAGE

    def test_request_splitting_at_max_run_bytes(self):
        disk, clock, pool = make_pool(max_run_bytes=2 * PAGE)
        col = disk.create_segment("col", 10 * PAGE)
        pool.read_span(col, *col.page_span())
        # One 10-page miss run split into ceil(10/2) = 5 requests.
        assert pool.stats()["disk_requests"] == 5
        assert clock.seek_seconds() == pytest.approx(5 * LATENCY)
        assert clock.timing().io_requests == 5

    def test_sequential_continuation_pays_no_new_seek(self):
        disk, clock, pool = make_pool()
        segment = disk.create_segment("col", 10 * PAGE)
        pool.read_span(segment, *segment.page_span(0, 5 * PAGE))
        assert clock.seek_seconds() == pytest.approx(LATENCY)
        # The next read starts exactly where the disk head stopped: it rides
        # readahead, so bytes are charged but no request/seek is.
        pool.read_span(segment, *segment.page_span(5 * PAGE, 5 * PAGE))
        assert clock.seek_seconds() == pytest.approx(LATENCY)
        assert pool.stats()["disk_requests"] == 1
        assert pool.stats()["bytes_transferred"] == 10 * PAGE

    def test_evictions_counted(self):
        disk, clock, pool = make_pool(capacity_pages=4)
        col = disk.create_segment("col", 10 * PAGE)
        pool.read_span(col, *col.page_span())
        assert pool.stats()["evictions"] == 6
        assert pool.resident_pages() == 4


class TestScatteredAccounting:
    def test_scattered_read_pays_bandwidth_penalty(self):
        disk, clock, pool = make_pool()
        segment = disk.create_segment("heap", 10 * PAGE)
        transferred = pool.read_pages(segment, [0, 2, 4], scattered=True)
        assert transferred == 3 * PAGE
        # Three one-page runs -> three requests.
        assert pool.stats()["disk_requests"] == 3
        assert clock.seek_seconds() == pytest.approx(3 * LATENCY)
        assert clock.transfer_seconds() == pytest.approx(
            3 * PAGE * SCATTERED_BANDWIDTH_PENALTY / BANDWIDTH
        )

    def test_contiguous_pages_coalesce(self):
        disk, clock, pool = make_pool()
        segment = disk.create_segment("heap", 10 * PAGE)
        pool.read_pages(segment, [3, 4, 5, 7])
        # [3,4,5] is one run, [7] another.
        assert pool.stats()["disk_requests"] == 2
        assert pool.stats()["page_misses"] == 4

    def test_cached_pages_count_as_hits(self):
        disk, clock, pool = make_pool()
        segment = disk.create_segment("heap", 10 * PAGE)
        pool.read_pages(segment, [1, 2])
        pool.read_pages(segment, [1, 2, 3])
        stats = pool.stats()
        assert stats["page_hits"] == 2
        assert stats["page_misses"] == 3


class TestObservedAccounting:
    """One pool read is written once per scope: the span tree for the
    query, the disk's per-segment log for where the bytes came from."""

    def _observed_pool(self, **kwargs):
        disk, clock, pool = make_pool(**kwargs)
        pool.tracer = tracer = Tracer()
        return disk, clock, pool, tracer

    def test_labeled_counters(self):
        disk, clock, pool, tracer = self._observed_pool()
        col = disk.create_segment("col", 10 * PAGE)
        with tracer.run():
            pool.read_span(col, *col.page_span())
            pool.read_span(col, *col.page_span())
        assert tracer.root.counts == {
            "page_hits": 10, "page_misses": 10, "disk_requests": 1,
        }
        stats = disk.read_stats()["col"].to_dict()
        assert stats["reads"] == 1  # the all-hit rescan transfers nothing
        assert stats["requests"] == 1
        assert stats["scattered_reads"] == 0
        assert stats["bytes"] == 10 * PAGE

    def test_scattered_kind_label_and_histogram(self):
        disk, clock, pool, tracer = self._observed_pool()
        segment = disk.create_segment("heap", 10 * PAGE)
        with tracer.run():
            pool.read_pages(segment, [0, 2], scattered=True)
        assert tracer.root.counts == {
            "page_hits": 0, "page_misses": 2, "disk_requests": 2,
        }
        stats = disk.read_stats()["heap"].to_dict()
        assert stats["scattered_reads"] == 1
        assert stats["requests"] == 2
        # Request size: 2 pages / 2 requests.
        assert stats["min_run_bytes"] == stats["max_run_bytes"] == PAGE

    def test_eviction_counter(self):
        disk, clock, pool, tracer = self._observed_pool(capacity_pages=4)
        col = disk.create_segment("col", 10 * PAGE)
        small = disk.create_segment("small", 2 * PAGE)
        with tracer.run():
            with tracer.span("scan"):
                pool.read_span(col, *col.page_span())
            with tracer.span("small"):
                pool.read_span(small, *small.page_span())
            with tracer.span("hot"):
                pool.read_span(small, *small.page_span())
        assert tracer.root.child_named("scan").counts["evictions"] == 6
        assert tracer.root.child_named("small").counts["evictions"] == 2
        # The key appears only on a span that evicted.
        assert "evictions" not in tracer.root.child_named("hot").counts
        assert pool.stats()["evictions"] == 8

    def test_active_span_receives_counts(self):
        disk, clock, pool, tracer = self._observed_pool()
        col = disk.create_segment("col", 4 * PAGE)
        with tracer.run():
            with tracer.span("scan"):
                pool.read_span(col, *col.page_span())
            with tracer.span("rescan"):
                pool.read_span(col, *col.page_span())
        scan = tracer.root.child_named("scan")
        rescan = tracer.root.child_named("rescan")
        assert scan.counts == {
            "page_hits": 0, "page_misses": 4, "disk_requests": 1,
        }
        assert rescan.counts == {
            "page_hits": 4, "page_misses": 0, "disk_requests": 0,
        }

    def test_segment_read_log(self):
        disk, clock, pool, tracer = self._observed_pool()
        segment = disk.create_segment("heap", 10 * PAGE)
        pool.read_span(segment, *segment.page_span())
        pool.read_pages(segment, [0, 2], scattered=True)  # all hits: no read
        stats = disk.read_stats()["heap"].to_dict()
        assert stats["reads"] == 1
        assert stats["bytes"] == 10 * PAGE
        assert stats["requests"] == 1
        assert stats["scattered_reads"] == 0
        assert stats["seek_seconds"] == pytest.approx(LATENCY)
        disk.reset_read_stats()
        assert disk.read_stats() == {}

    def test_disabled_observation_keeps_plain_counters_only(self):
        disk, clock, pool = make_pool()
        col = disk.create_segment("col", 4 * PAGE)
        pool.read_span(col, *col.page_span())
        assert pool.stats()["page_misses"] == 4
        # No tracer installed: the per-query sink is the inert one, while
        # the segment log (always on) still saw the read.
        assert pool.tracer is NULL_TRACER
        assert disk.read_stats()["col"].requests == 1
