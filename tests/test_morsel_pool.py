"""Tests for the morsel dispatcher (:mod:`repro.exec.morsel`).

Covers the work-stealing pool's mechanical contract: results merged by
task index regardless of which lane ran what, stealing under skewed task
sizes, first-error abort, cancellation fan-out, and the process-wide
shared pool's grow-never-shrink policy.  The *semantic* contract — that
parallel execution is byte-invisible to results and simulated costs —
lives in ``tests/test_morsel_parity.py``.
"""

import threading
import time

import pytest

from repro.errors import QueryCancelled
from repro.exec.cancel import CancellationToken
from repro.exec.morsel import (
    MAX_WORKERS,
    ParallelContext,
    WorkerPool,
    effective_dop,
    morsel_rows_from_env,
    shared_pool,
    split_morsels,
    workers_from_env,
)
from repro.observe import counters


@pytest.fixture
def pool():
    p = WorkerPool(3)
    yield p
    p.shutdown()


class TestSplitMorsels:
    def test_partitions_range_exactly(self):
        morsels = split_morsels(3, 1000, 256)
        assert morsels[0][0] == 3
        assert morsels[-1][1] == 1000
        for (_, a_hi), (b_lo, _) in zip(morsels, morsels[1:]):
            assert a_hi == b_lo
        assert all(0 < hi - lo <= 256 for lo, hi in morsels)

    def test_empty_range(self):
        assert split_morsels(5, 5, 128) == []

    def test_single_morsel_when_range_fits(self):
        assert split_morsels(10, 100, 4096) == [(10, 100)]


class TestEnvKnobs:
    def test_workers_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert workers_from_env(1) == 1
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert workers_from_env(1) == 6
        monkeypatch.setenv("REPRO_WORKERS", "999")
        assert workers_from_env(1) == MAX_WORKERS
        monkeypatch.setenv("REPRO_WORKERS", "many")
        assert workers_from_env(3) == 3

    def test_morsel_rows_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_MORSEL_ROWS", raising=False)
        assert morsel_rows_from_env(4096) == 4096
        monkeypatch.setenv("REPRO_MORSEL_ROWS", "128")
        assert morsel_rows_from_env() == 128
        monkeypatch.setenv("REPRO_MORSEL_ROWS", "0")
        assert morsel_rows_from_env() == 1

    def test_effective_dop_clamps_down_never_up(self):
        context = ParallelContext(4, pool=None)

        class FakeRuntime:
            dop_override = None

        runtime = FakeRuntime()
        assert effective_dop(runtime, context) == 4
        runtime.dop_override = 2
        assert effective_dop(runtime, context) == 2
        runtime.dop_override = 8  # a request can never raise the dop
        assert effective_dop(runtime, context) == 4


class TestRunBatch:
    def test_results_ordered_by_task_index(self, pool):
        tasks = [lambda i=i: i * i for i in range(37)]
        results, _steals = pool.run_batch(tasks, 4)
        assert results == [i * i for i in range(37)]

    def test_skewed_tasks_are_stolen(self, pool):
        # Tasks are dealt round-robin, so lane 0 (the caller) owns tasks
        # 0, 4, 8, 12.  A slow first task strands the rest of its deque;
        # the idle helpers must steal them from the tail.
        def make(index):
            def task():
                if index == 0:
                    time.sleep(0.2)
                return index
            return task

        results, steals = pool.run_batch([make(i) for i in range(16)], 4)
        assert results == list(range(16))
        assert steals >= 1

    def test_merged_results_deterministic_under_skew(self, pool):
        # Scheduling varies run to run; the index-keyed result list must
        # not.
        def make(index):
            def task():
                time.sleep(0.001 * (index % 5))
                return index
            return task

        expected = list(range(24))
        for _ in range(5):
            results, _steals = pool.run_batch(
                [make(i) for i in range(24)], 4
            )
            assert results == expected

    def test_first_error_aborts_and_pool_survives(self, pool):
        def boom():
            raise ValueError("boom")

        tasks = [lambda: 1, boom] + [lambda: 2] * 10
        with pytest.raises(ValueError, match="boom"):
            pool.run_batch(tasks, 4)
        # A failed batch must not poison the helpers.
        results, _steals = pool.run_batch(
            [lambda i=i: i for i in range(8)], 4
        )
        assert results == list(range(8))

    def test_cancellation_fans_out_to_all_lanes(self, pool):
        token = CancellationToken()

        def cancel_mid_batch():
            token.cancel("test abort")
            return 0

        def slowish():
            time.sleep(0.005)
            return 1

        tasks = [cancel_mid_batch] + [slowish] * 30
        with pytest.raises(QueryCancelled, match="test abort"):
            pool.run_batch(tasks, 4, cancel_token=token)

    def test_single_lane_runs_inline(self, pool):
        counters.reset("parallel")
        results, steals = pool.run_batch([lambda: 7, lambda: 8], 1)
        assert (results, steals) == ([7, 8], 0)
        stats = counters.snapshot("parallel")
        assert stats["inline_batches"] == 1
        assert stats["batches"] == 0
        assert stats["morsels"] == 2

    def test_single_task_runs_inline(self, pool):
        counters.reset("parallel")
        results, _steals = pool.run_batch([lambda: 42], 4)
        assert results == [42]
        assert counters.snapshot("parallel")["inline_batches"] == 1

    def test_inline_honours_cancellation(self, pool):
        token = CancellationToken()
        token.cancel("pre-cancelled")
        with pytest.raises(QueryCancelled):
            pool.run_batch([lambda: 1], 1, cancel_token=token)

    def test_counters_accumulate(self, pool):
        counters.reset("parallel")
        pool.run_batch([lambda i=i: i for i in range(10)], 4)
        pool.run_batch([lambda i=i: i for i in range(6)], 2)
        stats = counters.snapshot("parallel")
        assert stats["batches"] == 2
        assert stats["morsels"] == 16

    def test_dop_capped_by_helpers_and_tasks(self, pool):
        # 3 helpers + the caller = at most 4 lanes, and never more lanes
        # than tasks; both are silently clamped, not errors.
        results, _ = pool.run_batch([lambda i=i: i for i in range(3)], 16)
        assert results == [0, 1, 2]

    def test_concurrent_submitters_serialize(self, pool):
        # The single batch slot serializes submitters; both batches must
        # still complete with index-ordered results.
        out = {}

        def submit(key):
            tasks = [lambda i=i: (key, i) for i in range(12)]
            results, _ = pool.run_batch(tasks, 4)
            out[key] = results

        threads = [
            threading.Thread(target=submit, args=(k,)) for k in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert out["a"] == [("a", i) for i in range(12)]
        assert out["b"] == [("b", i) for i in range(12)]


class TestSharedPool:
    def test_grows_and_never_shrinks(self):
        grown = shared_pool(2)
        assert grown.helpers >= 2
        bigger = shared_pool(grown.helpers + 1)
        assert bigger.helpers >= grown.helpers + 1
        # Asking for less returns the existing (larger) pool.
        assert shared_pool(1) is bigger
