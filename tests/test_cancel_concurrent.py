"""CancellationToken under concurrent sessions.

Covers the satellite's three scenarios: a timeout firing while the query
is still queued behind another session, a timeout firing mid-execution,
and the single-use (bind-once) token contract.
"""

import threading
import time

import pytest

import repro.api as api
from repro.data import generate_barton
from repro.errors import QueryTimeout, ReproError
from repro.exec.cancel import CancellationToken
from repro.server.scheduler import SchedulerConfig, SessionScheduler

SCALE = dict(n_triples=3_000, n_properties=30, seed=7)


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(**SCALE)


class _SelectiveTimer:
    """threading.Timer stand-in that fires synchronously on start() for
    sub-second deadlines and never for generous ones — makes "the
    deadline expired mid-execution" deterministic instead of racing the
    query (the same idiom as test_api's _InstantTimer, extended so
    threads with long timeouts coexist with doomed ones)."""

    def __init__(self, interval, function, args=None, kwargs=None):
        self.interval = interval
        self.function = function
        self.args = args or ()
        self.kwargs = kwargs or {}
        self.daemon = True

    def start(self):
        if self.interval < 1:
            self.function(*self.args, **self.kwargs)

    def cancel(self):
        pass


def fresh_connection(dataset):
    return api.connect(
        triples=dataset.triples,
        interesting_properties=dataset.interesting_properties,
    )


# ---------------------------------------------------------------------------
# single-use tokens
# ---------------------------------------------------------------------------

class TestTokenReuse:
    def test_bind_returns_the_token(self):
        token = CancellationToken()
        assert token.bind() is token

    def test_second_bind_is_rejected(self):
        token = CancellationToken()
        token.bind()
        with pytest.raises(ReproError, match="single-use"):
            token.bind()

    def test_cancelled_token_cannot_be_rebound(self):
        # The failure the contract prevents: a stale cancellation from
        # query 1 silently killing query 2.
        token = CancellationToken().bind()
        token.cancel(reason="deadline exceeded")
        with pytest.raises(ReproError, match="single-use"):
            token.bind()

    def test_concurrent_binds_admit_exactly_one(self):
        token = CancellationToken()
        outcomes = []
        barrier = threading.Barrier(8)

        def claim():
            barrier.wait()
            try:
                token.bind()
                outcomes.append("bound")
            except ReproError:
                outcomes.append("rejected")

        workers = [threading.Thread(target=claim) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert outcomes.count("bound") == 1
        assert outcomes.count("rejected") == 7

    def test_fresh_token_per_query_keeps_sessions_reusable(
        self, dataset, monkeypatch
    ):
        # The executor binds a fresh token for every timed query, so a
        # session can keep issuing them after an earlier one timed out.
        connection = fresh_connection(dataset)
        monkeypatch.setattr(threading, "Timer", _SelectiveTimer)
        with connection.session() as session:
            with pytest.raises(QueryTimeout):
                session.query("q5", timeout=0.001)
            result = session.query("q1", timeout=60)
            assert result.n_rows > 0
            result = session.query("q1", timeout=60)
            assert result.n_rows > 0


# ---------------------------------------------------------------------------
# timeout while queued vs mid-execution, across concurrent sessions
# ---------------------------------------------------------------------------

class TestConcurrentTimeouts:
    def test_timeout_fires_while_queued(self, dataset):
        connection = fresh_connection(dataset)
        scheduler = SessionScheduler(
            connection, SchedulerConfig(workers=1, queue_depth=8)
        )
        outcomes = {}

        def execute(name, **kwargs):
            try:
                outcomes[name] = scheduler.execute(name, **kwargs)
            except QueryTimeout as exc:
                outcomes[name] = exc

        def live(key):
            return scheduler.stats()["live"][key]

        def wait_for(key):
            deadline = time.monotonic() + 10
            while not live(key):
                assert time.monotonic() < deadline, key
                time.sleep(0.002)

        try:
            # Hold the execution lock so the one slot stays taken and the
            # doomed request's deadline expires while it waits for it.
            with connection._exec_lock:
                blocker = threading.Thread(target=execute, args=("q1",))
                blocker.start()
                wait_for("in_flight")
                doomed = threading.Thread(
                    target=execute, args=("q2",), kwargs={"timeout": 0.05}
                )
                doomed.start()
                doomed.join(timeout=10)
                assert not doomed.is_alive()
            blocker.join(timeout=60)
            assert not blocker.is_alive()
            assert outcomes["q1"].n_rows > 0
            assert isinstance(outcomes["q2"], QueryTimeout)
            assert "while queued" in str(outcomes["q2"])
        finally:
            scheduler.shutdown()

    def test_timeout_fires_mid_execution(self, dataset, monkeypatch):
        connection = fresh_connection(dataset)
        monkeypatch.setattr(threading, "Timer", _SelectiveTimer)
        with connection.session() as session:
            with pytest.raises(QueryTimeout, match="exceeded timeout"):
                session.query("q5", timeout=0.001)

    def test_one_sessions_timeout_does_not_leak_into_others(
        self, dataset, monkeypatch
    ):
        # Concurrent sessions over one connection: some time out, the
        # rest must complete untouched and the store must stay usable.
        connection = fresh_connection(dataset)
        monkeypatch.setattr(threading, "Timer", _SelectiveTimer)
        outcomes = [None] * 6

        def run(index):
            with connection.session() as session:
                try:
                    if index % 2:
                        session.query("q5", timeout=0.001)
                        outcomes[index] = "completed"
                    else:
                        result = session.query("q1", timeout=60)
                        outcomes[index] = (
                            "completed" if result.n_rows > 0 else "empty"
                        )
                except QueryTimeout:
                    outcomes[index] = "timeout"

        workers = [
            threading.Thread(target=run, args=(index,))
            for index in range(len(outcomes))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert all(
            outcomes[index] == "completed"
            for index in range(len(outcomes)) if index % 2 == 0
        )
        assert all(
            outcomes[index] == "timeout"
            for index in range(len(outcomes)) if index % 2
        )
        # The shared engine survived the cancellations.
        with connection.session() as session:
            assert session.query("q1").n_rows > 0
