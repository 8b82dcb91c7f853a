"""Tests for the observability layer: metrics, tracing, logging."""

import json
import logging
import math
import random
import threading

import pytest

from repro.engine import MACHINE_A, QueryClock
from repro.observe import (
    NULL_TRACER,
    Histogram,
    Tracer,
    configure_logging,
    get_logger,
    metrics_to_prometheus,
)


def _lognormal(mu, sigma, extra=()):
    rng = random.Random(23)
    return [rng.lognormvariate(mu, sigma) for _ in range(2000)] + list(extra)


class TestMetrics:
    def test_labels_identify_instruments(self):
        text = metrics_to_prometheus([
            ("counter", "hits", {"segment": "a"}, 1),
            ("counter", "hits", {"segment": "b"}, 2),
        ])
        assert text.splitlines() == [
            "# TYPE repro_hits counter",
            'repro_hits{segment="a"} 1',
            'repro_hits{segment="b"} 2',
        ]

    def test_label_order_is_canonical(self):
        one = metrics_to_prometheus([("counter", "m", {"b": 1, "a": 2}, 7)])
        other = metrics_to_prometheus([("counter", "m", {"a": 2, "b": 1}, 7)])
        assert one == other
        assert 'repro_m{a="2",b="1"} 7' in one

    def test_histogram_summary(self):
        histogram = Histogram()
        for value in (1, 5, 100, 100):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 206
        assert summary["min"] == 1
        assert summary["max"] == 100
        assert summary["mean"] == pytest.approx(51.5)
        # 1 -> <4 bucket, 5 -> <16, 100 -> <256 (twice)
        assert summary["buckets"] == {"<4": 1, "<16": 1, "<256": 2}

    def test_power_of_4_rendering_has_exact_bounds(self):
        # A bound belongs to the bucket above it, at every power of 4 the
        # rendering names; non-positive and tiny values count under "<4".
        histogram = Histogram()
        for value in (0, -1.0, 1e-9, 0.5, 3.999999, 4, 15.999999, 16, 4 ** 9):
            histogram.observe(value)
        assert histogram.summary()["buckets"] == {
            "<4": 5, "<16": 2, "<64": 1, f"<{4 ** 10}": 1,
        }
        assert len(histogram.buckets) == Histogram.N_BUCKETS

    def test_json_round_trip(self):
        histogram = Histogram()
        histogram.observe(7.0)
        document = histogram.summary()
        assert json.loads(json.dumps(document)) == document

    def test_histogram_quantiles_empty(self):
        histogram = Histogram()
        assert histogram.quantile(0.5) is None
        summary = histogram.summary()
        assert summary["p50"] is None
        assert summary["p95"] is None
        assert summary["p99"] is None

    def test_histogram_quantiles_single_sample(self):
        histogram = Histogram()
        histogram.observe(42.0)
        # With one observation every quantile is that observation.
        assert histogram.quantile(0.0) == pytest.approx(42.0)
        assert histogram.quantile(0.5) == pytest.approx(42.0)
        assert histogram.quantile(1.0) == pytest.approx(42.0)

    def test_histogram_quantiles_bounded_by_observations(self):
        histogram = Histogram()
        for value in (10, 20, 30, 1000):
            histogram.observe(value)
        for q in (0.0, 0.25, 0.5, 0.95, 1.0):
            estimate = histogram.quantile(q)
            assert 10 <= estimate <= 1000
        assert histogram.quantile(1.0) == pytest.approx(1000)

    def test_histogram_quantile_rejects_out_of_range(self):
        histogram = Histogram()
        histogram.observe(1)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    @pytest.mark.parametrize("sample", [
        # ~1.1 ms latencies plus two outliers: one power-of-4 bucket.
        _lognormal(0.1, 0.15, extra=(0.2, 3.9)),
        # ~20 ms latencies spread over three power-of-4 buckets.
        _lognormal(3, 0.5),
    ], ids=["around-1ms", "around-20ms"])
    def test_quantiles_within_5_percent_of_the_sorted_sample(self, sample):
        histogram = Histogram()
        for value in sample:
            histogram.observe(value)
        ordered = sorted(sample)
        for q in (0.50, 0.95, 0.99):
            exact = ordered[math.ceil(q * len(ordered)) - 1]
            assert histogram.quantile(q) == pytest.approx(exact, rel=0.05), q


class TestTracer:
    def _clock(self):
        return QueryClock(MACHINE_A)

    def test_nested_spans_attribute_self_time(self):
        clock = self._clock()
        tracer = Tracer(clock=clock)
        with tracer.run():
            with tracer.span("outer"):
                clock.charge_cpu(0.010)
                with tracer.span("inner"):
                    clock.charge_cpu(0.002)
                clock.charge_cpu(0.001)
        outer = tracer.root.child_named("outer")
        inner = outer.child_named("inner")
        assert inner.self_seconds() == pytest.approx(0.002)
        assert outer.self_seconds() == pytest.approx(0.011)
        assert outer.inclusive()[0] == pytest.approx(0.013)

    def test_span_sum_equals_clock_total(self):
        clock = self._clock()
        tracer = Tracer(clock=clock)
        with tracer.run():
            clock.charge_cpu(0.005)  # root self-time
            with tracer.span("a"):
                clock.charge_cpu(0.001)
                clock.charge_io(8192, 1)
            with tracer.span("b"):
                clock.charge_cpu(0.002)
        total = sum(s.self_seconds() for s in tracer.root.walk())
        assert total == pytest.approx(clock.real_seconds())

    def test_reentry_accumulates(self):
        clock = self._clock()
        tracer = Tracer(clock=clock)
        key = object()
        with tracer.run():
            for _ in range(3):
                tracer.enter(key)
                clock.charge_cpu(0.001)
                tracer.exit(key)
        span = tracer.span_for(key)
        assert span.calls == 3
        assert span.self_seconds() == pytest.approx(0.003)

    def test_register_plan_mirrors_tree(self):
        from repro.plan import logical as L
        from repro.plan.predicates import Comparison

        scan = L.Scan("t", ["subj", "obj"], alias="A")
        select = L.Select(scan, [Comparison("A.obj", "=", 1)])
        tracer = Tracer()
        tracer.register_plan(select, describe=lambda n: type(n).__name__)
        assert tracer.span_for(select).name == "select"
        assert tracer.span_for(scan).parent is tracer.span_for(select)
        assert tracer.span_for(select).parent is tracer.root

    def test_io_vector_attribution(self):
        clock = self._clock()
        tracer = Tracer(clock=clock)
        with tracer.run():
            with tracer.span("scan"):
                clock.charge_io(16384, 2)
        span = tracer.root.child_named("scan")
        from repro.observe.trace import BYTES, REQUESTS, SEEK, TRANSFER

        assert span.self_sim[BYTES] == 16384
        assert span.self_sim[REQUESTS] == 2
        assert span.self_sim[SEEK] == pytest.approx(
            2 * MACHINE_A.request_latency
        )
        assert span.self_sim[TRANSFER] == pytest.approx(
            16384 / MACHINE_A.read_bandwidth
        )

    def test_current_add(self):
        tracer = Tracer()
        with tracer.run():
            with tracer.span("scan"):
                tracer.current_add(page_hits=3)
                tracer.current_add(page_hits=2, page_misses=1)
        span = tracer.root.child_named("scan")
        assert span.counts == {"page_hits": 5, "page_misses": 1}

    def test_misestimate_ratio(self):
        from repro.observe.trace import Span

        span = Span("x")
        assert span.misestimate_ratio() is None
        span.estimated_rows = 10.0
        span.rows = 100
        assert span.misestimate_ratio() == pytest.approx(10.0)
        span.rows = 0
        assert span.misestimate_ratio() == pytest.approx(10.0)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.run():
            with NULL_TRACER.span("x"):
                NULL_TRACER.current_add(hits=1)
        NULL_TRACER.enter(object())
        NULL_TRACER.exit()
        assert NULL_TRACER.span_for(object()) is None
        assert not NULL_TRACER.enabled


class TestObservation:
    def test_null_observation_disabled(self):
        # The per-query sink engines are born with: disabled, and one
        # shared object, so the event sites' flag test is all it costs.
        from repro.colstore import ColumnStoreEngine

        assert not NULL_TRACER.enabled
        engine = ColumnStoreEngine()
        assert engine.tracer is NULL_TRACER
        assert engine.pool.tracer is NULL_TRACER

    def test_partial_observation_enabled(self):
        # A tracer alone is the whole observation: no registry rides
        # along, and installing one enables every event site.
        from repro.rowstore import RowStoreEngine

        engine = RowStoreEngine()
        tracer = engine.install_tracer(Tracer(clock=engine.clock))
        assert tracer.enabled
        seg = engine.disk.create_segment("seg", 3 * engine.pool.page_size)
        with tracer.run():
            engine.pool.read_span(seg, *seg.page_span())
        assert tracer.root.counts == {
            "page_hits": 0, "page_misses": 3, "disk_requests": 1,
        }

    def test_engines_accept_observation(self):
        from repro.colstore import ColumnStoreEngine
        from repro.rowstore import RowStoreEngine

        for engine_cls in (ColumnStoreEngine, RowStoreEngine):
            engine = engine_cls()
            assert engine.tracer is NULL_TRACER
            assert engine.pool.tracer is NULL_TRACER
            tracer = Tracer(clock=engine.clock)
            assert engine.install_tracer(tracer) is tracer
            assert engine.tracer is tracer
            assert engine.pool.tracer is tracer
            engine.install_tracer(None)
            assert engine.tracer is NULL_TRACER
            assert engine.pool.tracer is NULL_TRACER


class TestLogging:
    def test_logger_namespace(self):
        assert get_logger().name == "repro"
        assert get_logger("cli").name == "repro.cli"

    def test_configure_is_idempotent(self):
        configure_logging(0)
        configure_logging(0)
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
        assert root.level == logging.INFO

    def test_verbose_enables_debug(self, capsys):
        configure_logging(1)
        assert logging.getLogger("repro").level == logging.DEBUG
        get_logger("test").debug("a debug line")
        assert "a debug line" in capsys.readouterr().err
        configure_logging(0)

    def test_info_goes_to_stderr(self, capsys):
        configure_logging(0)
        get_logger("test").info("hello %d", 7)
        captured = capsys.readouterr()
        assert "INFO repro.test: hello 7" in captured.err
        assert captured.out == ""


class TestJsonLogging:
    @pytest.fixture(autouse=True)
    def _restore_plain_format(self):
        yield
        configure_logging(0, json_lines=False)

    def test_json_lines_format(self, capsys):
        configure_logging(0, json_lines=True)
        get_logger("test").info("hello %d", 7)
        line = capsys.readouterr().err.strip()
        document = json.loads(line)
        assert document["level"] == "INFO"
        assert document["logger"] == "repro.test"
        assert document["message"] == "hello 7"
        assert isinstance(document["ts"], float)
        assert "span_id" not in document

    def test_json_lines_carry_active_span_id(self, capsys):
        configure_logging(0, json_lines=True)
        tracer = Tracer()
        with tracer.run():
            with tracer.span("scan") as span:
                get_logger("test").info("inside the scan")
        document = json.loads(capsys.readouterr().err.strip())
        assert document["span_id"] == span.sid

    def test_each_thread_reads_its_own_span_id(self):
        """Two threads, each inside its own ``Tracer.run()`` at the same
        time, each see their own innermost span."""
        from repro.observe.trace import active_span_id

        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def traced(name):
            tracer = Tracer()
            with tracer.run():
                with tracer.span(name) as span:
                    barrier.wait()  # both tracers are active now
                    seen[name] = (span.sid, active_span_id())
                    barrier.wait()

        threads = [
            threading.Thread(target=traced, args=(name,))
            for name in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert set(seen) == {"left", "right"}
        for own, read in seen.values():
            assert read == own
        assert active_span_id() is None

    def test_env_var_selects_json(self, monkeypatch, capsys):
        from repro.observe.log import json_lines_default

        monkeypatch.setenv("REPRO_LOG_JSON", "1")
        assert json_lines_default()
        configure_logging(0)  # json_lines=None defers to the env var
        get_logger("test").info("structured")
        assert json.loads(capsys.readouterr().err.strip())[
            "message"
        ] == "structured"
        monkeypatch.setenv("REPRO_LOG_JSON", "0")
        assert not json_lines_default()

    def test_exceptions_are_captured(self, capsys):
        configure_logging(0, json_lines=True)
        try:
            raise RuntimeError("boom")
        except RuntimeError:
            get_logger("test").exception("it failed")
        document = json.loads(capsys.readouterr().err.strip())
        assert document["message"] == "it failed"
        assert "RuntimeError: boom" in document["exc_info"]
