"""Tests for the simulated disk, buffer pool, clock, and machine profiles."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import (
    MACHINE_A,
    MACHINE_B,
    MACHINE_C,
    MACHINES,
    ROW_STORE_COSTS,
    BufferPool,
    QueryClock,
    SimulatedDisk,
)
from repro.errors import BufferPoolError

MB = 1024 * 1024


def make_pool(capacity_bytes=1024 * 1024, machine=MACHINE_A, page_size=8192,
              max_run_bytes=None):
    disk = SimulatedDisk(page_size=page_size)
    clock = QueryClock(machine)
    pool = BufferPool(disk, clock, capacity_bytes, max_run_bytes=max_run_bytes)
    return disk, clock, pool


class TestSimulatedDisk:
    def test_segments_page_aligned_and_disjoint(self):
        disk = SimulatedDisk(page_size=100)
        a = disk.create_segment("a", 250)
        b = disk.create_segment("b", 10)
        assert a.page_span() == (0, 3)
        assert b.page_span() == (3, 4)

    def test_duplicate_segment_rejected(self):
        disk = SimulatedDisk()
        disk.create_segment("x", 10)
        with pytest.raises(BufferPoolError):
            disk.create_segment("x", 10)

    def test_unknown_segment_rejected(self):
        with pytest.raises(BufferPoolError):
            SimulatedDisk().segment("ghost")

    def test_total_bytes(self):
        disk = SimulatedDisk()
        disk.create_segment("a", 100)
        disk.create_segment("b", 200)
        assert disk.total_bytes() == 300

    def test_page_span_validates_range(self):
        disk = SimulatedDisk(page_size=100)
        seg = disk.create_segment("a", 250)
        with pytest.raises(BufferPoolError):
            seg.page_span(200, 100)
        with pytest.raises(BufferPoolError):
            seg.page_span(-1, 10)

    def test_empty_read_span(self):
        disk = SimulatedDisk(page_size=100)
        seg = disk.create_segment("a", 250)
        assert seg.page_span(10, 0) == (0, 0)


class TestBufferPool:
    def test_cold_read_charges_full_bytes(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 10 * 8192)
        transferred = pool.read_span(seg, *seg.page_span())
        assert transferred == 10 * 8192
        assert clock.bytes_read() == 10 * 8192

    def test_hot_read_is_free(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 10 * 8192)
        pool.read_span(seg, *seg.page_span())
        before = clock.timing()
        assert pool.read_span(seg, *seg.page_span()) == 0
        after = clock.timing()
        assert after.real_seconds == before.real_seconds
        assert after.bytes_read == before.bytes_read

    def test_clear_makes_reads_cold_again(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 4 * 8192)
        pool.read_span(seg, *seg.page_span())
        pool.clear()
        assert pool.read_span(seg, *seg.page_span()) == 4 * 8192

    def test_sequential_read_is_one_request(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 100 * 8192)
        pool.read_span(seg, *seg.page_span())
        assert clock.timing().io_requests == 1

    def test_max_run_bytes_splits_requests(self):
        disk, clock, pool = make_pool(max_run_bytes=8192)
        seg = disk.create_segment("col", 10 * 8192)
        pool.read_span(seg, *seg.page_span())
        assert clock.timing().io_requests == 10

    def test_small_requests_are_latency_bound(self):
        """A 4x faster disk barely helps an engine issuing tiny requests
        (the paper's C-Store observation, Section 3)."""
        times = {}
        for machine in (MACHINE_A, MACHINE_B):
            disk, clock, pool = make_pool(
                machine=machine, max_run_bytes=64 * 1024,
                capacity_bytes=512 * MB,
            )
            seg = disk.create_segment("col", 100 * MB)
            pool.read_span(seg, *seg.page_span())
            times[machine.name] = clock.timing().real_seconds
        speedup = times["A"] / times["B"]
        bandwidth_ratio = MACHINE_B.read_bandwidth / MACHINE_A.read_bandwidth
        assert speedup < bandwidth_ratio / 2  # far from the 3.7x available

    def test_large_requests_exploit_bandwidth(self):
        times = {}
        for machine in (MACHINE_A, MACHINE_B):
            disk, clock, pool = make_pool(machine=machine, capacity_bytes=512 * MB)
            seg = disk.create_segment("col", 100 * MB)
            pool.read_span(seg, *seg.page_span())
            times[machine.name] = clock.timing().real_seconds
        speedup = times["A"] / times["B"]
        assert speedup > 3.0

    def test_eviction_lru(self):
        disk, clock, pool = make_pool(capacity_bytes=2 * 8192)
        a = disk.create_segment("a", 8192)
        b = disk.create_segment("b", 8192)
        c = disk.create_segment("c", 8192)
        pool.read_span(a, *a.page_span())
        pool.read_span(b, *b.page_span())
        pool.read_span(c, *c.page_span())  # evicts a
        assert not pool.is_resident(a)
        assert pool.is_resident(b)
        assert pool.is_resident(c)

    def test_lru_touch_on_hit(self):
        disk, clock, pool = make_pool(capacity_bytes=2 * 8192)
        a = disk.create_segment("a", 8192)
        b = disk.create_segment("b", 8192)
        c = disk.create_segment("c", 8192)
        pool.read_span(a, *a.page_span())
        pool.read_span(b, *b.page_span())
        pool.read_span(a, *a.page_span())  # touch a; b becomes LRU
        pool.read_span(c, *c.page_span())  # evicts b
        assert pool.is_resident(a)
        assert not pool.is_resident(b)

    def test_partial_range_read(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 100 * 8192)
        transferred = pool.read_span(seg, *seg.page_span(0, 8192))
        assert transferred == 8192

    def test_read_pages_scattered(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 100 * 8192)
        transferred = pool.read_pages(seg, [0, 5, 6, 7, 50])
        assert transferred == 5 * 8192
        # runs: [0], [5,6,7], [50] -> 3 requests
        assert clock.timing().io_requests == 3

    def test_read_pages_out_of_range(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 10 * 8192)
        with pytest.raises(BufferPoolError):
            pool.read_pages(seg, [100])

    def test_read_pages_hit_then_miss(self):
        disk, clock, pool = make_pool()
        seg = disk.create_segment("col", 10 * 8192)
        pool.read_pages(seg, [0, 1])
        assert pool.read_pages(seg, [0, 1, 2]) == 8192

    def test_tiny_pool_rejected(self):
        disk = SimulatedDisk()
        with pytest.raises(BufferPoolError):
            BufferPool(disk, QueryClock(MACHINE_A), 100)


class TestQueryClock:
    def test_real_is_cpu_plus_io(self):
        clock = QueryClock(MACHINE_A)
        clock.charge_cpu(1.0)
        clock.charge_io(MACHINE_A.read_bandwidth, 0)  # exactly 1 second
        assert clock.real_seconds() == pytest.approx(2.0)
        assert clock.user_seconds() == pytest.approx(1.0)

    def test_cpu_scale_applies(self):
        clock = QueryClock(MACHINE_B)
        clock.charge_cpu(1.0)
        assert clock.user_seconds() == pytest.approx(MACHINE_B.cpu_scale)

    def test_reset(self):
        clock = QueryClock(MACHINE_A)
        clock.charge_cpu(1.0)
        clock.reset()
        assert clock.real_seconds() == 0.0
        assert clock.io_history() == [(0.0, 0)]

    def test_negative_charges_rejected(self):
        clock = QueryClock(MACHINE_A)
        with pytest.raises(ValueError):
            clock.charge_cpu(-1)
        with pytest.raises(ValueError):
            clock.charge_io(-1, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    def test_non_finite_charges_rejected(self, bad):
        clock = QueryClock(MACHINE_A)
        clock.charge_cpu(1.0)
        with pytest.raises(ValueError):
            clock.charge_cpu(bad)
        with pytest.raises(ValueError):
            clock.charge_io(1024, 1, bandwidth_penalty=abs(bad))
        assert clock.real_seconds() == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
    @pytest.mark.parametrize("length", [3, 500])
    def test_bad_logged_charge_raises_at_the_next_read(self, bad, length):
        clock = QueryClock(MACHINE_A)
        clock.charge_cpu(1.0)
        charge = clock.cpu_log()
        clock.charge_cpu_many(1e-6, length - 2)
        charge(bad)
        charge(1e-6)
        with pytest.raises(ValueError):
            clock.real_seconds()
        # The log is left empty and none of it was applied.
        assert clock.real_seconds() == 1.0
        assert clock.category_seconds() == {"execute": 1.0}

    def test_every_observer_folds_the_log_first(self):
        def logged():
            clock = QueryClock(MACHINE_B)
            clock.cpu_log()(0.5)
            return clock

        expected = 0.5 * MACHINE_B.cpu_scale
        assert logged().real_seconds() == expected
        assert logged().user_seconds() == expected
        assert logged().timing().user_seconds == expected
        assert logged().profile_snapshot()[0] == expected
        assert logged().category_seconds() == {"execute": expected}
        clock = logged()
        clock.charge_io(1024, 1)
        assert clock.io_history()[-1][0] == clock.real_seconds() > expected
        clock = logged()
        clock.charge_cpu(0.25, "plan")
        assert list(clock.category_seconds()) == ["execute", "plan"]

    def test_reset_clears_the_log_in_place(self):
        clock = QueryClock(MACHINE_A)
        charge = clock.cpu_log()
        charge(1.0)
        clock.reset()
        assert clock.real_seconds() == 0.0
        assert clock.category_seconds() == {}
        charge(2.0)  # obtained before the reset, still bound to the log
        assert clock.user_seconds() == 2.0

    def test_io_history_monotone(self):
        clock = QueryClock(MACHINE_A)
        for _ in range(5):
            clock.charge_io(1024, 1)
        history = clock.io_history()
        times = [t for t, _ in history]
        sizes = [b for _, b in history]
        assert times == sorted(times)
        assert sizes == sorted(sizes)
        assert sizes[-1] == 5 * 1024

    def test_timing_addition(self):
        clock = QueryClock(MACHINE_A)
        clock.charge_cpu(1.0)
        t = clock.timing() + clock.timing()
        assert t.user_seconds == pytest.approx(2.0)


class TestMachines:
    def test_table3_constants(self):
        assert MACHINE_A.raid_disks == 2 and MACHINE_A.raid_level == 0
        assert MACHINE_B.raid_disks == 10 and MACHINE_B.raid_level == 5
        assert MACHINE_C.raid_disks == 3 and MACHINE_C.raid_level == 0
        assert MACHINE_B.read_bandwidth > 3 * MACHINE_A.read_bandwidth

    def test_machines_registry(self):
        assert set(MACHINES) == {"A", "B", "C"}

    def test_table3_row_fields(self):
        row = MACHINE_A.table3_row()
        assert row["Num. of CPU"] == 1
        assert "AMD" in row["CPU"]
        assert row["RAM size"] == "2 GB"

    def test_machine_b_user_time_slightly_higher(self):
        """Paper: user times slightly higher on B despite faster clock."""
        assert MACHINE_B.cpu_scale > MACHINE_A.cpu_scale


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8),
    page_size=st.sampled_from([512, 4096, 8192]),
)
def test_property_cold_then_hot(sizes, page_size):
    """Any cold read transfers everything once; a repeat transfers nothing."""
    disk = SimulatedDisk(page_size=page_size)
    clock = QueryClock(MACHINE_A)
    pool = BufferPool(disk, clock, capacity_bytes=100 * MB)
    segments = [
        disk.create_segment(f"s{i}", n * page_size) for i, n in enumerate(sizes)
    ]
    total = sum(pool.read_span(s, *s.page_span()) for s in segments)
    assert total == sum(n * page_size for n in sizes)
    assert sum(pool.read_span(s, *s.page_span()) for s in segments) == 0


_COSTS = [
    ROW_STORE_COSTS.scan_tuple,
    ROW_STORE_COSTS.select_tuple,
    ROW_STORE_COSTS.union_tuple,
    ROW_STORE_COSTS.hash_probe,
    ROW_STORE_COSTS.btree_node,
]


def _random_cost(rng):
    if rng.random() < 0.5:
        return rng.choice(_COSTS)
    return rng.random() * 10.0 ** rng.randint(-9, -3)


@settings(max_examples=40)
@given(
    machine=st.sampled_from([MACHINE_A, MACHINE_B]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["log", "log", "many", "cpu", "io", "snapshot"]),
            st.integers(0, 2**32 - 1),
            st.integers(0, 40_000),
        ),
        max_size=12,
    ),
)
@example(machine=MACHINE_B, steps=[("log", 7, 40_000)])
@example(
    machine=MACHINE_B,
    steps=[("log", 1, 9_000), ("io", 2, 3), ("many", 3, 30_000), ("log", 4, 5)],
)
def test_property_charge_log_equals_scalar_loop(machine, steps):
    """Logged charges fold to exactly the floats N scalar ``+=`` produce —
    ``==``, not ``approx`` — however they interleave with immediate
    charges, I/O samples and reads."""
    logged, scalar = QueryClock(machine), QueryClock(machine)
    charge = logged.cpu_log()
    budget = 40_000
    for kind, seed, n in steps:
        rng = random.Random(seed)
        if kind == "log":
            n = min(n, budget)
            budget -= n
            for _ in range(n):
                cost = _random_cost(rng)
                charge(cost)
                scalar.charge_cpu(cost)
        elif kind == "many":
            n = min(n, budget)
            budget -= n
            cost = _random_cost(rng)
            logged.charge_cpu_many(cost, n)
            for _ in range(n):
                scalar.charge_cpu(cost)
        elif kind == "cpu":
            category = rng.choice(["plan", "output", "execute"])
            cost = _random_cost(rng)
            logged.charge_cpu(cost, category)
            scalar.charge_cpu(cost, category)
        elif kind == "io":
            nbytes, requests = rng.randrange(1, 1 << 20), n % 4
            assert logged.charge_io(nbytes, requests) == scalar.charge_io(
                nbytes, requests
            )
        else:
            assert logged.profile_snapshot() == scalar.profile_snapshot()
    assert logged.timing() == scalar.timing()
    assert list(logged.category_seconds().items()) == list(
        scalar.category_seconds().items()
    )
    assert logged.io_history() == scalar.io_history()
