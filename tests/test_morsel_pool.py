"""Tests for the morsel dispatcher (:mod:`repro.exec.morsel`).

Covers ``run_batch``'s mechanical contract: results merged by task index
regardless of which lane ran what, a slow task stranding nothing behind
it, first-error abort, cancellation fan-out, and completion when no
helper lane ever starts.  The *semantic* contract — that parallel
execution is byte-invisible to results and simulated costs — lives in
``tests/test_morsel_parity.py``.
"""

import logging
import os
import sys
import threading
import time
from functools import partial

import pytest

from repro.colstore.engine import ColumnStoreEngine
from repro.errors import QueryCancelled
from repro.exec import morsel
from repro.exec.cancel import CancellationToken
from repro.exec.morsel import (
    MAX_WORKERS,
    ParallelContext,
    effective_dop,
    morsel_rows_from_env,
    run_batch,
    split_morsels,
    workers_from_env,
)
from repro.observe import counters


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

    def test_unparsable_values_are_ignored_with_a_warning(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        monkeypatch.setenv("REPRO_MORSEL_ROWS", "4k")
        # configure_logging (any CLI test) cuts "repro" off from the root
        # logger caplog listens on.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level(logging.WARNING, logger="repro.exec.morsel"):
            assert workers_from_env(3) == 3
            assert morsel_rows_from_env(512) == 512
        assert [record.getMessage() for record in caplog.records] == [
            "ignoring invalid REPRO_WORKERS='many'",
            "ignoring invalid REPRO_MORSEL_ROWS='4k'",
        ]

    def test_effective_dop_clamps_down_never_up(self):
        context = ParallelContext(4)

        class FakeRuntime:
            dop_override = None

        runtime = FakeRuntime()
        assert effective_dop(runtime, context) == 4
        runtime.dop_override = 2
        assert effective_dop(runtime, context) == 2
        runtime.dop_override = 8  # a request can never raise the dop
        assert effective_dop(runtime, context) == 4


class TestRunBatch:
    def test_results_ordered_by_task_index(self):
        tasks = [lambda i=i: i * i for i in range(37)]
        assert run_batch(tasks, 4) == [i * i for i in range(37)]

    def test_slow_task_does_not_strand_the_rest(self):
        # Every lane pulls from one shared index, so whichever lane draws
        # the 0.2 s task 0 holds up nothing: the other 15 finish on other
        # threads and the batch takes about as long as its slowest task.
        ran_on = {}

        def make(index):
            def task():
                ran_on[index] = threading.get_ident()
                if index == 0:
                    time.sleep(0.2)
                return index
            return task

        started = time.perf_counter()
        results = run_batch([make(i) for i in range(16)], 4)
        wall = time.perf_counter() - started
        assert results == list(range(16))
        assert all(ran_on[i] != ran_on[0] for i in range(1, 16))
        assert 0.2 <= wall < 1.0

    def test_merged_results_deterministic_under_skew(self):
        # Scheduling varies run to run; the index-keyed result list must
        # not.
        def make(index):
            def task():
                time.sleep(0.001 * (index % 5))
                return index
            return task

        expected = list(range(24))
        for _ in range(5):
            assert run_batch([make(i) for i in range(24)], 4) == expected

    def test_first_error_aborts_and_pool_survives(self):
        ran = []

        def boom():
            raise ValueError("boom")

        def slowish():
            time.sleep(0.005)
            ran.append(1)

        tasks = [lambda: 1, boom] + [slowish] * 60
        with pytest.raises(ValueError, match="boom"):
            run_batch(tasks, 4)
        assert len(ran) < 60
        # A failed batch must not poison the helpers.
        assert run_batch([lambda i=i: i for i in range(8)], 4) == list(
            range(8)
        )

    def test_cancellation_fans_out_to_all_lanes(self):
        token = CancellationToken()
        ran = []

        def cancel_mid_batch():
            token.cancel("test abort")
            return 0

        def slowish():
            time.sleep(0.005)
            ran.append(1)

        tasks = [cancel_mid_batch] + [slowish] * 30
        with pytest.raises(QueryCancelled, match="test abort"):
            run_batch(tasks, 4, cancel_token=token)
        assert len(ran) < 30

    def test_single_lane_runs_inline(self):
        counters.reset("parallel")
        assert run_batch([lambda: 7, lambda: 8], 1) == [7, 8]
        assert counters.snapshot("parallel") == {
            "batches": 0, "inline_batches": 1, "morsels": 2,
        }

    def test_single_task_runs_inline(self):
        counters.reset("parallel")
        assert run_batch([threading.get_ident], 4) == [threading.get_ident()]
        assert counters.snapshot("parallel")["inline_batches"] == 1

    def test_inline_honours_cancellation(self):
        token = CancellationToken()
        token.cancel("pre-cancelled")
        with pytest.raises(QueryCancelled):
            run_batch([lambda: 1], 1, cancel_token=token)

    def test_counters_accumulate(self):
        counters.reset("parallel")
        run_batch([lambda i=i: i for i in range(10)], 4)
        run_batch([lambda i=i: i for i in range(6)], 2)
        assert counters.snapshot("parallel") == {
            "batches": 2, "inline_batches": 0, "morsels": 16,
        }

    def test_dop_capped_by_helpers_and_tasks(self):
        # Never more lanes than tasks, never more than MAX_WORKERS (the
        # caller plus every executor thread); both are silently clamped,
        # not errors.
        assert run_batch([lambda i=i: i for i in range(3)], 16) == [0, 1, 2]
        threads = set()

        def task():
            threads.add(threading.get_ident())
            time.sleep(0.002)

        run_batch([task] * (8 * MAX_WORKERS), 10 * MAX_WORKERS)
        assert 1 < len(threads) <= MAX_WORKERS

    def test_concurrent_submitters_both_complete(self):
        # Two sessions' lanes share the executor; both batches must
        # complete with index-ordered results.
        out = {}

        def submit(key):
            tasks = [lambda i=i: (key, i) for i in range(12)]
            out[key] = run_batch(tasks, 4)

        threads = [
            threading.Thread(target=submit, args=(k,)) for k in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert out["a"] == [("a", i) for i in range(12)]
        assert out["b"] == [("b", i) for i in range(12)]

    def test_every_index_runs_exactly_once_under_contention(self):
        # The lanes share one index iterator and no lock: a torn ``next``
        # would run a morsel twice or drop one.  More lanes than cores, a
        # shortened switch interval, trivially short tasks.
        n_tasks = 2000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                runs = [0] * n_tasks

                def task(index):
                    runs[index] += 1  # one writer per index unless torn
                    return index

                results = run_batch(
                    [partial(task, i) for i in range(n_tasks)], 8
                )
                assert results == list(range(n_tasks))
                assert runs == [1] * n_tasks
        finally:
            sys.setswitchinterval(interval)

    def test_completes_when_no_helper_lane_ever_starts(self):
        # Park every executor thread: helper lanes queue behind them and
        # never run.  Completion is per task, so the caller finishes the
        # batch alone and cancels the lanes that never started.
        release = threading.Event()
        parked = [
            morsel._EXECUTOR.submit(release.wait)
            for _ in range(MAX_WORKERS - 1)
        ]
        try:
            ran_on = set()

            def task(index):
                ran_on.add(threading.get_ident())
                return index

            results = run_batch(
                [lambda i=i: task(i) for i in range(20)], 4
            )
        finally:
            release.set()
        assert results == list(range(20))
        assert ran_on == {threading.get_ident()}
        assert all(future.result(timeout=10) for future in parked)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_lanes_of_its_own(self):
        # A forked bench worker inherits the executor's bookkeeping but
        # none of its threads; it must start over, not queue lanes behind
        # threads that do not exist.
        run_batch([lambda: time.sleep(0.005)] * 8, 4)  # spawn threads first
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            status = 1
            try:
                threads = set()

                def task():
                    threads.add(threading.get_ident())
                    time.sleep(0.005)

                run_batch([task] * 16, 4)
                os.write(write_end, str(len(threads)).encode())
                status = 0
            finally:
                os._exit(status)
        os.close(write_end)
        _, status = os.waitpid(pid, 0)
        with os.fdopen(read_end) as handle:
            lanes_used = int(handle.read() or 0)
        assert status == 0
        assert lanes_used > 1


class TestEnginesShareTheExecutor:
    def test_an_earlier_engine_keeps_its_lanes(self):
        # Building a wider engine later must not leave the first one
        # running every batch on a single lane.
        first = ColumnStoreEngine(workers=2)
        ColumnStoreEngine(workers=4)
        context = first.parallelism()
        threads = set()

        def task():
            threads.add(threading.get_ident())
            time.sleep(0.005)

        run_batch([task] * 16, context.dop)
        assert len(threads) > 1
