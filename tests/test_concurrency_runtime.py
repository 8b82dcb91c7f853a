"""The runtime race harness (repro.observe.race) and the determinism
cross-check (repro.analysis.concurrency.determinism).

The injected-violation tests are the fail-loud proof: an unguarded write
to an annotated structure — including the real counter table — is
recorded with its structure, op, thread, and missing lock.
"""

import threading

import pytest

from repro.analysis.concurrency.determinism import run_concurrency_harness
from repro.observe.race import (
    InstrumentedLock,
    enable_race_check,
    guard_lock,
    race_check_enabled,
    race_report,
    reset_race_state,
    shared_state,
)


@pytest.fixture
def race_check():
    """Enable the write barrier for one test, restoring prior state."""
    was_enabled = race_check_enabled()
    enable_race_check(True)
    reset_race_state()
    yield
    reset_race_state()
    enable_race_check(was_enabled)


# ---------------------------------------------------------------------------
# the write barrier
# ---------------------------------------------------------------------------

class TestWriteBarrier:
    def test_guarded_mutations_record_clean(self, race_check):
        lock = guard_lock("t.clean")
        stats = shared_state("t.clean", {"hits": 0}, lock)
        with lock:
            stats["hits"] += 1
            stats.update(misses=0)
        report = race_report()
        assert report["violation_count"] == 0
        assert report["structures"]["t.clean"] == {
            "threads": 1, "mutations": 2, "unguarded": 0,
        }

    def test_unguarded_mutation_is_a_violation(self, race_check):
        lock = guard_lock("t.dirty")
        stats = shared_state("t.dirty", {"hits": 0}, lock)
        stats["hits"] += 1
        report = race_report()
        assert report["violation_count"] == 1
        event = report["violations"][0]
        assert event["structure"] == "t.dirty"
        assert event["op"] == "__setitem__"
        assert event["thread"] == threading.get_ident()
        assert event["lock"] == "t.dirty"

    def test_lock_held_by_another_thread_does_not_count(self, race_check):
        lock = guard_lock("t.other")
        stats = shared_state("t.other", {"hits": 0}, lock)
        lock.acquire()
        try:
            worker = threading.Thread(
                target=lambda: stats.update(hits=1)
            )
            worker.start()
            worker.join()
        finally:
            lock.release()
        assert race_report()["violation_count"] == 1

    def test_list_mutators_are_monitored(self, race_check):
        lock = guard_lock("t.list")
        active = shared_state("t.list", [], lock)
        with lock:
            active.append(1)
            active.extend([2, 3])
            active.remove(2)
            active.pop()
        active.append(4)  # the one unguarded op
        report = race_report()
        assert report["structures"]["t.list"]["mutations"] == 5
        assert report["structures"]["t.list"]["unguarded"] == 1

    def test_construction_records_nothing(self, race_check):
        shared_state("t.init", {"seed": 1}, guard_lock("t.init"))
        shared_state("t.init2", [1, 2, 3], guard_lock("t.init2"))
        assert race_report()["structures"] == {}

    def test_disabled_barrier_records_nothing(self):
        was_enabled = race_check_enabled()
        enable_race_check(False)
        reset_race_state()
        try:
            lock = guard_lock("t.off")
            stats = shared_state("t.off", {}, lock)
            stats["x"] = 1  # unguarded, but the barrier is off
            assert race_report()["structures"] == {}
            assert race_report()["enabled"] is False
        finally:
            enable_race_check(was_enabled)

    def test_shared_state_rejects_scalars(self):
        with pytest.raises(TypeError, match="only wraps dicts and lists"):
            shared_state("t.bad", 42, guard_lock("t.bad"))

    def test_injected_unguarded_write_on_global_stats(self, race_check):
        # The acceptance-criteria injection: mutate the real annotated
        # structure without its lock and the report names it.
        from repro.observe.counters import _LOCK, _TABLE

        row = _TABLE["buffer_pool"]
        with _LOCK:
            _TABLE["buffer_pool"] = row  # guarded: no violation
        _TABLE["buffer_pool"] = row  # unguarded: flagged
        report = race_report()
        entry = report["structures"]["observe.counters"]
        assert entry["mutations"] == 2
        assert entry["unguarded"] == 1
        assert report["violations"][0]["structure"] == "observe.counters"


class TestInstrumentedLock:
    def test_ownership_tracking(self):
        lock = InstrumentedLock("t.lock")
        assert not lock.held_by_current_thread()
        with lock:
            assert lock.held_by_current_thread()
            assert lock.locked()
        assert not lock.held_by_current_thread()
        assert not lock.locked()

    def test_other_threads_do_not_appear_to_hold_it(self):
        lock = InstrumentedLock("t.lock")
        seen = {}
        lock.acquire()
        try:
            worker = threading.Thread(
                target=lambda: seen.update(
                    held=lock.held_by_current_thread(), locked=lock.locked()
                )
            )
            worker.start()
            worker.join()
        finally:
            lock.release()
        assert seen == {"held": False, "locked": True}

    def test_reentrant_lock_nests(self):
        lock = InstrumentedLock("t.rlock", reentrant=True)
        with lock:
            with lock:
                assert lock.held_by_current_thread()
            assert lock.held_by_current_thread()
        assert not lock.locked()

    def test_nonblocking_acquire_reports_failure(self):
        lock = InstrumentedLock("t.lock")
        lock.acquire()
        try:
            seen = {}
            worker = threading.Thread(
                target=lambda: seen.update(got=lock.acquire(blocking=False))
            )
            worker.start()
            worker.join()
            assert seen == {"got": False}
        finally:
            lock.release()


# ---------------------------------------------------------------------------
# every guard lock is a leaf at runtime too
# ---------------------------------------------------------------------------

class _InstantTimer:
    """threading.Timer stand-in that fires on start(): the deadline of
    the timed-out query expires before it runs."""

    def __init__(self, interval, function, args=None, kwargs=None):
        self.function, self.kwargs = function, kwargs or {}
        self.daemon = True

    def start(self):
        self.function(**self.kwargs)

    def cancel(self):
        pass


class TestLeafLocksAtRuntime:
    def test_no_guard_lock_is_taken_under_another(self, monkeypatch):
        # The runtime half of the leaf rule, where the static resolver
        # cannot follow engine.run(...) or the pool's counter flush.
        import repro.api as api
        from repro.data import generate_barton
        from repro.errors import QueryTimeout

        monkeypatch.setenv("REPRO_MORSEL_ROWS", "256")
        dataset = generate_barton(n_triples=3_000, n_properties=30, seed=7)
        connection = api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
            engine_options={"workers": 4},
        )
        exec_lock = connection._exec_lock
        stacks = threading.local()
        nested, under_exec = [], set()
        real_acquire = InstrumentedLock.acquire
        real_release = InstrumentedLock.release

        def acquire(lock, blocking=True, timeout=-1):
            acquired = real_acquire(lock, blocking, timeout)
            if acquired:
                held = stacks.__dict__.setdefault("held", [])
                if held:
                    nested.append((held[-1], lock.name))
                if exec_lock._is_owned():
                    under_exec.add(lock.name)
                held.append(lock.name)
            return acquired

        def release(lock):
            held = stacks.__dict__.setdefault("held", [])
            if lock.name in held:
                del held[len(held) - 1 - held[::-1].index(lock.name)]
            real_release(lock)

        monkeypatch.setattr(InstrumentedLock, "acquire", acquire)
        monkeypatch.setattr(InstrumentedLock, "release", release)
        errors = []

        def client(queries):
            try:
                with connection.session() as session:
                    for query in queries:
                        assert session.query(query, workers=4).n_rows > 0
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(queries,))
            for queries in (("q1", "q2"), ("q3", "q4"), ("q5", "q2"),
                            ("q6", "q1"))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        with connection.session() as session:
            assert session.profile("q3").relation.n_rows > 0
            monkeypatch.setattr(threading, "Timer", _InstantTimer)
            with pytest.raises(QueryTimeout):
                session.query("q5", timeout=0.5)

        assert nested == []
        assert "observe.counters" in under_exec
        assert under_exec <= {
            "observe.counters",
            "observe.trace._ACTIVE_TRACERS",
            "exec.registry._REGISTRY",
        }


# ---------------------------------------------------------------------------
# the determinism cross-check
# ---------------------------------------------------------------------------

class TestDeterminismHarness:
    def test_threaded_replay_matches_serial_byte_for_byte(self):
        document = run_concurrency_harness(
            triples=1_500, queries=10, threads=4
        )
        assert document["ok"] is True
        determinism = document["determinism"]
        assert determinism["queries"] == 10
        assert determinism["threads"] == 4
        assert determinism["identical"] is True
        assert determinism["mismatches"] == []
        race = document["race"]
        assert race["violation_count"] == 0
        # The workload exercised the annotated buffer-pool counters from
        # more than one thread — the barrier was genuinely recording.
        assert race["structures"]["observe.counters"]["threads"] > 1

    def test_harness_restores_the_barrier_state(self):
        was_enabled = race_check_enabled()
        run_concurrency_harness(triples=1_500, queries=2, threads=2)
        assert race_check_enabled() == was_enabled
