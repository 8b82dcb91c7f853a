"""Tests for the concurrent query server and workload replay.

Exercises the session scheduler (admission control, deadlines, drain
shutdown), the HTTP front-end end-to-end over real sockets, and the
replay harness — including the acceptance contract that a serial
single-client replay's simulated per-query costs are byte-identical to
direct ``Session.query`` execution.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.api as api
from repro.data import generate_barton
from repro import errors
from repro.errors import (
    QueryTimeout,
    ReproError,
    ServerOverloaded,
    SessionClosed,
)
from repro.server import (
    QueryServer,
    ReplayConfig,
    SchedulerConfig,
    SessionScheduler,
    WorkloadMix,
    record_from_replay,
    run_replay,
    serve,
)
from repro.server.http import MAX_BODY_BYTES

SCALE = dict(n_triples=3_000, n_properties=30, seed=7)


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(**SCALE)


def fresh_connection(dataset):
    return api.connect(
        triples=dataset.triples,
        interesting_properties=dataset.interesting_properties,
    )


def post_query(url, body):
    """POST /v1/query; returns (status, document) without raising."""
    request = urllib.request.Request(
        url.rstrip("/") + "/v1/query",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_until(predicate, timeout=10.0):
    """Poll *predicate* until it holds; fail the test after *timeout* s."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def live(scheduler):
    return scheduler.stats()["live"]


class Caller(threading.Thread):
    """One ``scheduler.execute`` call on a thread of its own, as the
    listener runs each HTTP request."""

    def __init__(self, scheduler, text, **kwargs):
        super().__init__(daemon=True)
        self.call = lambda: scheduler.execute(text, **kwargs)
        self.result = self.error = None
        self.start()

    def run(self):
        try:
            self.result = self.call()
        except ReproError as exc:
            self.error = exc

    def outcome(self, timeout=60):
        """The call's error type name, or ``"ok"``, once it returned."""
        self.join(timeout)
        assert not self.is_alive(), "execute() never returned"
        return "ok" if self.error is None else type(self.error).__name__


def record_engine_calls(scheduler, monkeypatch):
    """The texts that reach ``Session.query``, in the order they do."""
    started = []
    query = scheduler._session.query

    def recording(text, **kwargs):
        started.append(text)
        return query(text, **kwargs)

    monkeypatch.setattr(scheduler._session, "query", recording)
    return started


# ---------------------------------------------------------------------------
# the session scheduler
# ---------------------------------------------------------------------------

class TestSessionScheduler:
    def test_execute_returns_results(self, dataset):
        scheduler = SessionScheduler(fresh_connection(dataset))
        try:
            result = scheduler.execute("q1")
            assert result.n_rows > 0
            assert result.cost.real_seconds > 0
        finally:
            scheduler.shutdown()

    def test_concurrent_submissions_all_complete(self, dataset):
        scheduler = SessionScheduler(
            fresh_connection(dataset),
            SchedulerConfig(workers=4, queue_depth=64),
        )
        try:
            callers = [
                Caller(scheduler, name)
                for name in ("q1", "q2", "q3", "q5", "q1", "q2") * 4
            ]
            assert [c.outcome() for c in callers] == ["ok"] * len(callers)
            stats = scheduler.stats()
            completed = stats["counters"]["server.queries{outcome=completed}"]
            assert completed == len(callers)
            assert stats["live"]["in_flight"] == 0
        finally:
            scheduler.shutdown()

    def test_admission_control_rejects_when_full(self, dataset):
        connection = fresh_connection(dataset)
        scheduler = SessionScheduler(
            connection, SchedulerConfig(workers=1, queue_depth=2)
        )
        try:
            # Hold the execution lock: the first request takes the one
            # slot and blocks in the engine, the next two wait for it.
            with connection._exec_lock:
                first = Caller(scheduler, "q1")
                wait_until(lambda: live(scheduler)["in_flight"] == 1)
                queued = []
                for depth in (1, 2):
                    queued.append(Caller(scheduler, "q1"))
                    wait_until(
                        lambda: live(scheduler)["queue_depth"] == depth
                    )
                with pytest.raises(ServerOverloaded, match="queue full"):
                    scheduler.execute("q1")
            for caller in [first] + queued:
                assert caller.outcome() == "ok"
            stats = scheduler.stats()
            assert stats["counters"]["server.admission{outcome=rejected}"] == 1
            assert stats["counters"]["server.admission{outcome=accepted}"] == 3
        finally:
            scheduler.shutdown()

    def test_waiting_requests_start_in_arrival_order(self, dataset,
                                                      monkeypatch):
        connection = fresh_connection(dataset)
        scheduler = SessionScheduler(
            connection, SchedulerConfig(workers=1, queue_depth=8)
        )
        started = record_engine_calls(scheduler, monkeypatch)
        try:
            with connection._exec_lock:
                callers = [Caller(scheduler, "q1")]
                wait_until(lambda: live(scheduler)["in_flight"] == 1)
                for depth, name in enumerate(("q2", "q3", "q5"), 1):
                    callers.append(Caller(scheduler, name))
                    wait_until(
                        lambda: live(scheduler)["queue_depth"] == depth
                    )
            assert [c.outcome() for c in callers] == ["ok"] * 4
            assert started == ["q1", "q2", "q3", "q5"]
        finally:
            scheduler.shutdown()

    def test_deadline_expired_while_queued(self, dataset, monkeypatch):
        connection = fresh_connection(dataset)
        scheduler = SessionScheduler(
            connection, SchedulerConfig(workers=1, queue_depth=8)
        )
        started = record_engine_calls(scheduler, monkeypatch)
        try:
            with connection._exec_lock:
                blocker = Caller(scheduler, "q1")
                wait_until(lambda: live(scheduler)["in_flight"] == 1)
                doomed = Caller(scheduler, "q2", timeout=0.05)
                # It fails at its deadline, while the slot is still taken.
                assert doomed.outcome(timeout=10) == "QueryTimeout"
                assert live(scheduler)["queue_depth"] == 0
            assert blocker.outcome() == "ok"
            assert "while queued" in str(doomed.error)
            assert started == ["q1"]  # the engine never saw q2
            stats = scheduler.stats()
            assert stats["counters"]["server.queries{outcome=timeout}"] == 1
        finally:
            scheduler.shutdown()

    def test_latency_summary_reports_percentiles(self, dataset):
        scheduler = SessionScheduler(fresh_connection(dataset))
        try:
            for _ in range(5):
                scheduler.execute("q1")
            summary = scheduler.latency_summary()
            assert summary["count"] == 5
            assert summary["p50"] is not None
            assert summary["p95"] is not None
            assert summary["p99"] is not None
        finally:
            scheduler.shutdown()

    def test_graceful_shutdown_drains_in_flight(self, dataset):
        connection = fresh_connection(dataset)
        scheduler = SessionScheduler(
            connection, SchedulerConfig(workers=2, queue_depth=32)
        )
        shutdown = threading.Thread(target=scheduler.shutdown)
        with connection._exec_lock:
            callers = [Caller(scheduler, "q1") for _ in range(10)]
            wait_until(lambda: live(scheduler)["queue_depth"] == 8)
            shutdown.start()
            wait_until(lambda: not live(scheduler)["accepting"])
            with pytest.raises(SessionClosed):
                scheduler.execute("q1")
            assert shutdown.is_alive()  # it waits for the admitted ten
        shutdown.join(timeout=60)
        assert not shutdown.is_alive()
        assert [c.outcome() for c in callers] == ["ok"] * 10
        assert live(scheduler)["in_flight"] == 0

    def test_non_drain_shutdown_fails_queued(self, dataset):
        connection = fresh_connection(dataset)
        scheduler = SessionScheduler(
            connection, SchedulerConfig(workers=1, queue_depth=32)
        )
        shutdown = threading.Thread(
            target=scheduler.shutdown, kwargs={"drain": False}
        )
        with connection._exec_lock:
            running = Caller(scheduler, "q1")
            wait_until(lambda: live(scheduler)["in_flight"] == 1)
            waiting = [Caller(scheduler, "q1") for _ in range(5)]
            wait_until(lambda: live(scheduler)["queue_depth"] == 5)
            shutdown.start()
            # Failed while the running request still holds the slot.
            outcomes = [c.outcome(timeout=10) for c in waiting]
        shutdown.join(timeout=30)
        assert not shutdown.is_alive()
        assert outcomes == ["SessionClosed"] * 5
        assert running.outcome() == "ok"

    def test_submit_racing_shutdown_never_strands_a_request(self, dataset):
        """Requests arriving while a shutdown runs, with the interpreter
        switching threads every few microseconds: each ends in a result
        or ``SessionClosed``, and the shutdown returns."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for drain in (True, False):
                scheduler = SessionScheduler(
                    fresh_connection(dataset),
                    SchedulerConfig(workers=2, queue_depth=64),
                )
                callers = [Caller(scheduler, "q1") for _ in range(4)]
                shutdown = threading.Thread(
                    target=scheduler.shutdown, kwargs={"drain": drain}
                )
                shutdown.start()
                callers += [Caller(scheduler, "q1") for _ in range(4)]
                shutdown.join(timeout=60)
                assert not shutdown.is_alive()
                assert {c.outcome() for c in callers} <= {
                    "ok", "SessionClosed"
                }
                assert live(scheduler)["in_flight"] == 0
                assert live(scheduler)["queue_depth"] == 0
        finally:
            sys.setswitchinterval(interval)

    def test_a_request_takes_the_stats_lock_at_most_twice(self, dataset):
        class CountingCondition(threading.Condition):
            acquisitions = 0

            def __enter__(self):
                entered = super().__enter__()
                self.acquisitions += 1  # under the lock it counts
                return entered

        scheduler = SessionScheduler(fresh_connection(dataset))
        counting = scheduler._stats_lock = CountingCondition(
            threading.Lock()
        )
        try:
            scheduler.execute("q1")
            # Admission with start, completion.
            assert counting.acquisitions <= 2
            stats = scheduler.stats()
            assert stats["counters"] == {
                "server.admission{outcome=accepted}": 1,
                "server.queries{outcome=completed}": 1,
            }
            assert stats["live"]["in_flight"] == 0
        finally:
            scheduler.shutdown()


# ---------------------------------------------------------------------------
# the HTTP front-end
# ---------------------------------------------------------------------------

class TestQueryServer:
    @pytest.fixture()
    def server(self, dataset):
        instance = serve(
            fresh_connection(dataset), port=0, workers=3, queue_depth=16,
            background=True,
        )
        yield instance
        instance.close()

    def test_query_roundtrip(self, server):
        status, document = post_query(server.address, {"query": "q1"})
        assert status == 200
        assert document["kind"] == "benchmark"
        assert document["n_rows"] == len(document["rows"]) > 0
        assert document["cost"]["real_seconds"] > 0
        assert document["queue_ms"] >= 0
        assert document["exec_ms"] >= 0

    def test_stats_and_metrics_read_the_same_pool_totals(self, server):
        """The pool publishes to the process counters once per measured
        run, so between requests the instance view (``/v1/stats``) and
        the process table (``/metrics``) have moved by the same amounts —
        also after a request that failed."""
        keys = ("page_hits", "page_misses", "evictions", "disk_requests",
                "bytes_transferred")

        def views():
            with urllib.request.urlopen(
                server.address + "/v1/stats", timeout=30
            ) as response:
                stats = json.loads(response.read())["store"]["buffer_pool"]
            with urllib.request.urlopen(
                server.address + "/metrics", timeout=30
            ) as response:
                series = dict(
                    line.rsplit(" ", 1)
                    for line in response.read().decode().splitlines()
                    if line.startswith("repro_buffer_pool_")
                )
            return stats, {
                key: float(series[f"repro_buffer_pool_{key}"]) for key in keys
            }

        stats0, table0 = views()
        for body in ({"query": "q2", "mode": "cold"}, {"query": "q5"},
                     {"query": "SELECT nonsense FROM nowhere"},
                     {"query": "q3", "timeout": 1e-9}, {"query": "q2"}):
            post_query(server.address, body)
        stats1, table1 = views()
        assert stats1["page_misses"] > stats0["page_misses"]
        assert stats1["page_hits"] > stats0["page_hits"]
        for key in keys:
            assert table1[key] - table0[key] == stats1[key] - stats0[key], key

    def test_sparql_over_http(self, server):
        status, document = post_query(
            server.address,
            {"query": "SELECT ?s WHERE { ?s <type> <Text> }"},
        )
        assert status == 200
        assert document["kind"] == "sparql"
        assert document["columns"] == ["s"]

    def test_malformed_requests_get_400(self, server):
        assert post_query(server.address, {})[0] == 400
        assert post_query(server.address, {"query": "   "})[0] == 400
        status, document = post_query(
            server.address, {"query": "SELECT nonsense FROM nowhere"}
        )
        assert status == 400
        assert "error" in document

        # Values the scheduler cannot admit.  One kept-alive connection: a
        # handler thread that died on a bad body would drop it instead of
        # answering the request that follows.
        import http.client
        from urllib.parse import urlsplit

        address = urlsplit(server.address)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=30
        )

        def post(body):
            connection.request("POST", "/v1/query", body=json.dumps(body))
            response = connection.getresponse()
            return response.status, json.loads(response.read())

        try:
            for field, value in [
                ("workers", "abc"), ("workers", [2]), ("workers", 2.5),
                ("workers", 0), ("workers", True),
                ("timeout", "soon"), ("timeout", [1]), ("timeout", 0),
                ("timeout", -1), ("optimize", "no"), ("optimize", 1),
            ]:
                status, document = post({"query": "q1", field: value})
                assert status == 400, (field, value, document)
                assert field in document["error"]
                assert document["error_type"] == "ReproError"
                status, document = post(
                    {"query": "q1", "workers": 2, "timeout": 30.5}
                )
                assert status == 200, (field, value, document)
        finally:
            connection.close()

    def test_requests_that_used_to_drop_hang_or_crash(self, server, capsys):
        """Three request shapes, over a real socket: each is answered with
        a status, nothing is logged at ERROR, no traceback is printed."""
        import logging
        import socket
        import time
        from urllib.parse import urlsplit

        errors_logged = []
        handler = logging.Handler(logging.ERROR)
        handler.emit = errors_logged.append
        logging.getLogger("repro").addHandler(handler)
        try:
            # (a) A session id that is not a string cannot be a dict key:
            # the same 404 as an unknown id, not a dropped connection.
            for session in (["x"], {"id": "s1"}, 7, "s999"):
                status, document = post_query(
                    server.address, {"query": "q1", "session": session}
                )
                assert status == 404, (session, document)
                assert "no such session" in document["error"]

            # (b) A Content-Length no client has reason to send is refused
            # before reading — rfile.read(-1) would block the handler
            # thread until the client hung up — and the connection closed.
            address = urlsplit(server.address)
            baseline_threads = threading.active_count()
            for length, expected in [
                ("-1", 400), ("lots", 400), ("1.5", 400),
                (str(MAX_BODY_BYTES + 1), 413),
            ]:
                with socket.create_connection(
                    (address.hostname, address.port), timeout=5
                ) as raw:
                    started = time.monotonic()
                    raw.sendall(
                        b"POST /v1/query HTTP/1.1\r\nHost: test\r\n"
                        + f"Content-Length: {length}\r\n\r\n".encode()
                    )
                    answer = b""
                    while chunk := raw.recv(65536):  # until the server closes
                        answer += chunk
                    assert time.monotonic() - started < 1.0, length
                head, _, payload = answer.partition(b"\r\n\r\n")
                assert head.startswith(f"HTTP/1.1 {expected} ".encode()), (
                    length, head,
                )
                assert "error" in json.loads(payload)
            deadline = time.monotonic() + 5.0
            while (threading.active_count() > baseline_threads
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert threading.active_count() <= baseline_threads
            # The largest body the server does read is still served.
            status, _ = post_query(
                server.address,
                {"query": "q1", "padding": "x" * (MAX_BODY_BYTES - 64)},
            )
            assert status == 200

            # (c) An unknown lint mode is a typed 400 before planning, in
            # a request and as a session default, not a crashed worker.
            status, document = post_query(
                server.address, {"query": "q1", "lint": "bogus"}
            )
            assert status == 400, document
            assert document["error_type"] == "PlanError"
            assert "internal error" not in document["error"]
            for defaults, named in [
                ({"lint": "bogus"}, "lint mode"),
                ({"timeout": "soon", "lint": "bogus"}, "timeout"),
                ({"timeout": -1}, "timeout"),
            ]:
                request = urllib.request.Request(
                    server.address + "/v1/sessions",
                    data=json.dumps(defaults).encode("utf-8"), method="POST",
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
                assert excinfo.value.code == 400, defaults
                document = json.loads(excinfo.value.read())
                assert named in document["error"]
                assert issubclass(
                    getattr(errors, document["error_type"]), ReproError
                )
            assert server.stats_document()["sessions"] == {"open": 0}
        finally:
            logging.getLogger("repro").removeHandler(handler)
        assert [r.getMessage() for r in errors_logged] == []
        assert "Traceback" not in capsys.readouterr().err

    def test_scope_over_http(self, server):
        """A JSON array always decodes to a list: the explicit
        property-list form of ``scope`` must survive the plan cache."""
        body = {"query": "q2", "scope": ["<type>"]}
        for _ in range(2):  # the second answer comes from the plan cache
            status, document = server.handle_query(body)
            assert status == 200, document
            assert document["n_rows"] == len(document["rows"]) > 0
        assert post_query(server.address, body)[0] == 200

        status, document = server.handle_query({"query": "q2", "scope": 7})
        assert status == 400
        assert issubclass(getattr(errors, document["error_type"]), ReproError)
        assert "internal error" not in document["error"]
        assert "scope" in document["error"]

    @pytest.mark.parametrize("scope", [["<type>", "<type>"], []])
    def test_repeated_or_empty_scope_is_400(self, server, scope):
        """A repeated property would count its triples twice; an empty
        list would plan a union of nothing."""
        status, document = post_query(
            server.address, {"query": "q2", "scope": scope}
        )
        assert status == 400, document
        assert document["error_type"] == "ReproError"
        assert "scope" in document["error"]

    def test_property_list_scope_on_a_triple_store_is_400(self, dataset):
        """A triple store filters on its properties table; an explicit
        list it cannot honour is refused, not silently ignored."""
        instance = serve(
            api.connect(
                triples=dataset.triples, scheme="triple",
                interesting_properties=dataset.interesting_properties,
            ),
            port=0, workers=1, queue_depth=4, background=True,
        )
        try:
            status, document = post_query(
                instance.address, {"query": "q2", "scope": ["<type>"]}
            )
            assert status == 400, document
            assert document["error_type"] == "PlanError"
            assert "with_properties" in document["error"]
            assert post_query(
                instance.address, {"query": "q2", "scope": "all"}
            )[0] == 200
        finally:
            instance.close()

    def test_unknown_route_404(self, server):
        try:
            urllib.request.urlopen(server.address + "/nope", timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        else:
            pytest.fail("expected 404")

    def test_healthz_stats_metrics(self, server):
        post_query(server.address, {"query": "q1"})
        with urllib.request.urlopen(
            server.address + "/healthz", timeout=10
        ) as response:
            assert json.loads(response.read()) == {"status": "ok"}
        with urllib.request.urlopen(
            server.address + "/v1/stats", timeout=10
        ) as response:
            stats = json.loads(response.read())
        assert stats["live"]["workers"] == 3
        assert stats["store"]["engine"] == "column"
        assert "server.latency_ms" in stats["histograms"]
        with urllib.request.urlopen(
            server.address + "/metrics", timeout=10
        ) as response:
            exposition = response.read().decode("utf-8")
        assert "server_latency_ms" in exposition

    @pytest.mark.parametrize("engine, options, workers, morsel_rows", [
        ("column", {"workers": 4}, 4, 4096),
        ("row", None, 1, None),  # serial is the host's default
    ])
    def test_stats_parallel_block(self, dataset, monkeypatch, engine,
                                  options, workers, morsel_rows):
        monkeypatch.delenv("REPRO_MORSEL_ROWS", raising=False)
        connection = api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
            engine=engine, engine_options=options,
        )
        with serve(connection, port=0, workers=2, max_dop=8,
                   background=True) as server:
            assert post_query(server.address, {"query": "q1"})[0] == 200
            with urllib.request.urlopen(
                server.address + "/v1/stats", timeout=10
            ) as response:
                parallel = json.loads(response.read())["parallel"]
        assert sorted(parallel) == [
            "batches", "engine_workers", "inline_batches", "max_dop",
            "morsel_rows", "morsels",
        ]
        assert parallel["engine_workers"] == workers
        assert parallel["morsel_rows"] == morsel_rows
        assert parallel["max_dop"] == 8
        assert all(
            isinstance(parallel[name], int) and parallel[name] >= 0
            for name in ("batches", "inline_batches", "morsels")
        )

    @pytest.mark.parametrize("method, path, body", [
        ("POST", "/v1/query", {"query": "q1"}),
        ("GET", "/metrics", None),
    ])
    def test_kept_alive_client_is_not_held_by_delayed_ack(
            self, server, method, path, body):
        """A response written as headers, then body, makes a plain
        kept-alive client (no TCP_QUICKACK / TCP_NODELAY) wait ~40 ms per
        request for the delayed-ACK timer; one write does not."""
        import http.client
        import statistics
        import time
        from urllib.parse import urlsplit

        address = urlsplit(server.address)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=30
        )
        payload = None if body is None else json.dumps(body)
        took = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request(method, path, body=payload)
                response = connection.getresponse()
                response.read()
                took.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(took) < 0.010, sorted(took)

    def test_stats_expose_race_report_when_enabled(self, server):
        from repro.observe.race import (
            enable_race_check,
            race_check_enabled,
            reset_race_state,
        )

        was_enabled = race_check_enabled()
        enable_race_check(True)
        reset_race_state()
        try:
            post_query(server.address, {"query": "q1"})
            with urllib.request.urlopen(
                server.address + "/v1/stats", timeout=10
            ) as response:
                stats = json.loads(response.read())
        finally:
            reset_race_state()
            enable_race_check(was_enabled)
        assert stats["race"]["enabled"] is True
        assert stats["race"]["violation_count"] == 0
        assert "observe.counters" in stats["race"]["structures"]

    def test_stats_omit_race_report_when_disabled(self, server):
        from repro.observe.race import race_check_enabled

        if race_check_enabled():
            pytest.skip("REPRO_RACE_CHECK is enabled in this environment")
        with urllib.request.urlopen(
            server.address + "/v1/stats", timeout=10
        ) as response:
            stats = json.loads(response.read())
        assert "race" not in stats

    def test_sessions_lifecycle_and_defaults(self, server):
        request = urllib.request.Request(
            server.address + "/v1/sessions",
            data=json.dumps({"timeout": 60}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 201
            session_id = json.loads(response.read())["session"]
        status, document = post_query(
            server.address, {"query": "q1", "session": session_id}
        )
        assert status == 200
        assert document["session"] == session_id
        delete = urllib.request.Request(
            f"{server.address}/v1/sessions/{session_id}", method="DELETE"
        )
        with urllib.request.urlopen(delete, timeout=10) as response:
            assert json.loads(response.read())["closed"] is True
        status, _ = post_query(
            server.address, {"query": "q1", "session": session_id}
        )
        assert status == 404

    def test_concurrent_http_clients(self, server):
        outcomes = []
        lock = threading.Lock()

        def client(n):
            for name in ("q1", "q2", "q3") * 2:
                status, _ = post_query(server.address, {"query": name})
                with lock:
                    outcomes.append(status)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(outcomes) == 36
        assert all(status == 200 for status in outcomes)
        summary = server.scheduler.latency_summary()
        assert summary["count"] == 36
        assert summary["p95"] is not None

    def test_graceful_close_drains(self, dataset):
        connection = fresh_connection(dataset)
        instance = serve(
            connection, port=0, workers=2, queue_depth=32, background=True,
        )
        close = threading.Thread(target=instance.close)
        with connection._exec_lock:
            callers = [Caller(instance.scheduler, "q1") for _ in range(8)]
            wait_until(lambda: live(instance.scheduler)["queue_depth"] == 6)
            close.start()
            wait_until(lambda: not live(instance.scheduler)["accepting"])
        close.join(timeout=60)
        assert not close.is_alive()
        assert [c.outcome() for c in callers] == ["ok"] * 8
        # idempotent
        instance.close()

    def test_idle_server_holds_only_the_listener_thread(self, dataset):
        before = set(threading.enumerate())
        with serve(
            fresh_connection(dataset), port=0, workers=4, background=True
        ):
            added = set(threading.enumerate()) - before
            assert [thread.name for thread in added] == ["repro-http"]

    def test_close_returns_the_thread_count_to_baseline(
            self, dataset, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)  # no morsel lanes
        baseline = set(threading.enumerate())
        instance = serve(
            fresh_connection(dataset), port=0, workers=2, queue_depth=32,
            background=True,
        )
        statuses = []

        def client():
            statuses.append(post_query(instance.address, {"query": "q1"})[0])

        clients = [threading.Thread(target=client) for _ in range(24)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=60)
            assert not thread.is_alive()
        instance.close()
        assert statuses == [200] * 24
        # Handler threads exit once their client hangs up; threads of
        # earlier tests may exit meanwhile, so no more than the baseline.
        wait_until(lambda: set(threading.enumerate()) <= baseline)

    def test_a_burst_as_large_as_admission_is_answered(self, dataset):
        """The listen backlog holds ``workers + queue_depth`` connects:
        32 clients connect while the listener accepts nothing yet (with
        socketserver's backlog of 5 all but six wait for a SYN retry),
        then each is answered 200 or 429 — none is reset or dropped."""
        import http.client
        from urllib.parse import urlsplit

        instance = QueryServer(
            fresh_connection(dataset), port=0, workers=2, queue_depth=30,
        )
        address = urlsplit(instance.address)
        connected, outcomes = [], []

        def client():
            conn = http.client.HTTPConnection(
                address.hostname, address.port, timeout=30,
            )
            try:
                conn.connect()
                connected.append(True)
                conn.request("POST", "/v1/query", json.dumps({"query": "q1"}),
                             {"Content-Type": "application/json"})
                outcomes.append(conn.getresponse().status)
            except OSError as exc:
                outcomes.append(repr(exc))
            finally:
                conn.close()

        clients = [threading.Thread(target=client) for _ in range(32)]
        try:
            for thread in clients:
                thread.start()
            wait_until(lambda: len(connected) == 32, timeout=5.0)
        finally:
            instance.start()
            for thread in clients:
                thread.join(timeout=60)
            instance.close()
        assert not any(thread.is_alive() for thread in clients)
        assert len(outcomes) == 32
        assert set(outcomes) <= {200, 429}, outcomes

    @pytest.mark.parametrize("head, body, half_close, status, error", [
        # Once a JSON 400, then the chunk bytes answered as a second
        # request with an HTML 400.
        ("Transfer-Encoding: chunked", b'e\r\n{"query":"q1"}\r\n0\r\n\r\n',
         False, 411, "Transfer-Encoding"),
        # A body shorter than its Content-Length once ran the query.
        ("Content-Length: 100", b'{"query":"q1"}', True, 400,
         "ended after 14 of 100 bytes"),
        # ... and without the half-close held its thread indefinitely.
        ("Content-Length: 100", b'{"query":"q1"}', False, 408, "stalled"),
    ], ids=["chunked", "truncated", "stalled"])
    def test_a_body_that_is_not_whole_gets_one_answer(
            self, server, monkeypatch, head, body, half_close, status,
            error):
        import socket
        from urllib.parse import urlsplit

        import repro.server.http as http_module

        monkeypatch.setattr(http_module, "BODY_TIMEOUT_S", 0.2)
        address = urlsplit(server.address)
        with socket.create_connection(
            (address.hostname, address.port), timeout=5
        ) as raw:
            started = time.monotonic()
            raw.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: test\r\n"
                + head.encode() + b"\r\n\r\n" + body
            )
            if half_close:
                raw.shutdown(socket.SHUT_WR)
            answer = b""
            while chunk := raw.recv(65536):  # until the server closes
                answer += chunk
            assert time.monotonic() - started < 2.0
        assert answer.count(b"HTTP/1.1 ") == 1, answer
        status_line, _, payload = answer.partition(b"\r\n\r\n")
        assert status_line.startswith(f"HTTP/1.1 {status} ".encode()), (
            status_line
        )
        assert error in json.loads(payload)["error"]
        assert "server.queries{outcome=completed}" not in (
            server.scheduler.stats()["counters"]
        )

    def test_server_is_context_manager(self, dataset):
        with serve(
            fresh_connection(dataset), port=0, background=True
        ) as instance:
            status, _ = post_query(instance.address, {"query": "q1"})
            assert status == 200
        assert instance._closed


# ---------------------------------------------------------------------------
# the external documents
# ---------------------------------------------------------------------------

SUMMARY_KEYS = {
    "count", "sum", "min", "max", "mean", "p50", "p95", "p99", "buckets",
}


class TestExternalDocuments:
    """The shape of ``/v1/stats`` and ``/metrics`` after one fixed request
    sequence — 3 completed, 1 failed, 1 rejected on a depth-1 queue.
    Values are masked; key sets, series names, labels and ``# TYPE``
    lines are pinned."""

    @pytest.fixture()
    def documents(self, dataset):
        connection = fresh_connection(dataset)
        with serve(
            connection, port=0, workers=1, queue_depth=1, background=True
        ) as server:
            scheduler = server.scheduler
            with connection._exec_lock:  # hold the one slot in the engine
                running = Caller(scheduler, "q1")
                wait_until(lambda: live(scheduler)["in_flight"] == 1)
                queued = Caller(scheduler, "q2")
                wait_until(lambda: live(scheduler)["queue_depth"] == 1)
                with pytest.raises(ServerOverloaded):
                    scheduler.execute("q3")
            assert running.outcome() == queued.outcome() == "ok"
            scheduler.execute("q1")
            with pytest.raises(ReproError):
                scheduler.execute("SELECT nonsense FROM nowhere")
            with urllib.request.urlopen(
                server.address + "/v1/stats", timeout=10
            ) as response:
                stats = json.loads(response.read())
            with urllib.request.urlopen(
                server.address + "/metrics", timeout=10
            ) as response:
                exposition = response.read().decode("utf-8")
        return stats, exposition

    def test_stats_key_sets(self, documents):
        stats, _ = documents
        assert stats["counters"] == {
            "server.admission{outcome=accepted}": 4,
            "server.admission{outcome=rejected}": 1,
            "server.queries{outcome=completed}": 3,
            "server.queries{outcome=failed}": 1,
        }
        assert set(stats["histograms"]) == {
            "server.execution_ms", "server.latency_ms",
            "server.queue_wait_ms",
        }
        for summary in stats["histograms"].values():
            assert set(summary) == SUMMARY_KEYS
            assert summary["count"] == 4
            assert summary["min"] <= summary["p50"] <= summary["p99"]
            assert summary["p99"] <= summary["max"]
            assert sum(summary["buckets"].values()) == 4
            assert all(
                label.startswith("<") and int(label[1:]) % 4 == 0
                for label in summary["buckets"]
            )
        assert set(stats["live"]) == {
            "queue_depth", "in_flight", "workers", "queue_capacity",
            "accepting", "max_dop",
        }
        assert stats["gauges"]["server.queue_depth"] == 0

    def test_metrics_series(self, documents):
        _, exposition = documents
        lines = exposition.splitlines()
        server_types = sorted(
            line for line in lines if line.startswith("# TYPE repro_server_")
        )
        assert server_types == [
            "# TYPE repro_server_admission counter",
            "# TYPE repro_server_execution_ms summary",
            "# TYPE repro_server_latency_ms summary",
            "# TYPE repro_server_plan_cache_capacity gauge",
            "# TYPE repro_server_plan_cache_evictions gauge",
            "# TYPE repro_server_plan_cache_hits gauge",
            "# TYPE repro_server_plan_cache_misses gauge",
            "# TYPE repro_server_plan_cache_size gauge",
            "# TYPE repro_server_queries counter",
            "# TYPE repro_server_queue_depth gauge",
            "# TYPE repro_server_queue_wait_ms summary",
        ]
        server_series = {
            line.split(" ")[0] for line in lines
            if line.startswith("repro_server_")
        }
        summaries = {
            f"repro_server_{name}{suffix}"
            for name in ("execution_ms", "latency_ms", "queue_wait_ms")
            for suffix in (
                '{quantile="0.5"}', '{quantile="0.95"}', '{quantile="0.99"}',
                "_sum", "_count",
            )
        }
        assert server_series == summaries | {
            'repro_server_admission{outcome="accepted"}',
            'repro_server_admission{outcome="rejected"}',
            'repro_server_queries{outcome="completed"}',
            'repro_server_queries{outcome="failed"}',
            "repro_server_queue_depth",
            "repro_server_plan_cache_capacity",
            "repro_server_plan_cache_evictions",
            "repro_server_plan_cache_hits",
            "repro_server_plan_cache_misses",
            "repro_server_plan_cache_size",
        }
        # The process counters ride in the same document: every sample
        # line follows the TYPE line of its own family, each family once.
        types = [line.split(" ")[2] for line in lines if line.startswith("#")]
        assert len(types) == len(set(types))
        assert "repro_buffer_pool_page_hits" in types
        for line in lines:
            if not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])


# ---------------------------------------------------------------------------
# workload replay
# ---------------------------------------------------------------------------

class TestWorkloadMix:
    def test_sampling_is_deterministic(self):
        mix = WorkloadMix(seed=5)
        assert mix.sample(50) == WorkloadMix(seed=5).sample(50)
        assert mix.sample(50) != WorkloadMix(seed=6).sample(50)

    def test_zipf_skew_prefers_head_queries(self):
        mix = WorkloadMix(exponent=1.5, seed=1)
        sample = mix.sample(2000)
        counts = {name: sample.count(name) for name in mix.names}
        assert counts[mix.names[0]] > counts[mix.names[-1]]

    def test_unknown_names_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown benchmark queries"):
            WorkloadMix(names=["q1", "q99"])


class TestReplay:
    def test_serial_replay_costs_match_direct_session(self, dataset):
        """The acceptance contract: clients=1 replay produces simulated
        per-query costs byte-identical to a direct Session.query loop on
        an identically fresh store."""
        config = ReplayConfig(clients=1, queries=30, seed=23)
        report = run_replay(
            connection=fresh_connection(dataset), config=config
        )
        assert report.failed == 0 and report.timeouts == 0
        assert report.issued == 30
        session = fresh_connection(dataset).session()
        direct = [
            {"query": name, "cost": session.query(name).cost_dict()}
            for name in config.mix().sample(30)
        ]
        assert json.dumps(report.simulated, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)

    def test_concurrent_replay_completes_cleanly(self, dataset):
        report = run_replay(
            connection=fresh_connection(dataset),
            config=ReplayConfig(clients=8, queries=64, seed=3),
        )
        assert report.issued == 64
        assert report.completed == 64
        assert report.failed == 0
        assert report.simulated is None  # interleaving-dependent
        assert report.latency_ms["count"] == 64
        assert report.latency_ms["p95"] is not None
        assert report.latency_ms["p99"] is not None
        assert report.throughput_qps > 0

    def test_replay_against_http_server(self, dataset):
        with serve(
            fresh_connection(dataset), port=0, workers=3, queue_depth=8,
            background=True,
        ) as instance:
            report = run_replay(
                url=instance.address,
                config=ReplayConfig(clients=4, queries=32, seed=9),
            )
        assert report.completed == 32
        assert report.failed == 0

    def test_replay_needs_exactly_one_target(self, dataset):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="exactly one"):
            run_replay()

    def test_duration_mode_runs_and_stops(self, dataset):
        report = run_replay(
            connection=fresh_connection(dataset),
            config=ReplayConfig(clients=2, duration=0.5, seed=4),
        )
        assert report.issued > 0
        assert report.failed == 0
        assert report.simulated is None

    def test_record_from_replay_serial(self, dataset):
        config = ReplayConfig(clients=1, queries=10, seed=2)
        report = run_replay(
            connection=fresh_connection(dataset), config=config
        )
        record = record_from_replay(report, name="unit")
        assert record.kind == "replay"
        assert len(record.simulated) == 10
        assert record.wall_ms is not None
        assert "buffer_pool" in record.counters
        # round-trips through the ledger schema
        from repro.observe.history import RunRecord

        assert RunRecord.from_dict(record.to_dict()).name == "unit"

    def test_record_from_replay_concurrent_notes_omission(self, dataset):
        report = run_replay(
            connection=fresh_connection(dataset),
            config=ReplayConfig(clients=3, queries=12, seed=2),
        )
        record = record_from_replay(report, name="unit")
        assert record.simulated is None
        assert any("interleaving" in note for note in record.notes)

    def test_report_document_and_text(self, dataset):
        report = run_replay(
            connection=fresh_connection(dataset),
            config=ReplayConfig(clients=2, queries=16, seed=6),
        )
        document = report.to_dict()
        json.dumps(document)  # JSON-ready
        assert document["completed"] == 16
        text = report.summary_text()
        assert "throughput" in text
        assert "p95" in text
