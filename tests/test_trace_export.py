"""Tests for the Chrome trace / Prometheus exporters (repro.observe.export)."""

import json

import pytest

from repro.engine import MACHINE_A, QueryClock
from repro.observe import Histogram, Tracer
from repro.observe.export import (
    chrome_trace_events,
    metrics_to_prometheus,
    profile_to_chrome,
    validate_trace,
)


@pytest.fixture(scope="module")
def profile():
    from repro.core import RDFStore
    from repro.data import generate_barton

    dataset = generate_barton(
        n_triples=4_000, n_properties=30, n_interesting=20, seed=5
    )
    store = RDFStore.from_triples(
        dataset.triples, engine="column", scheme="vertical"
    )
    return store.profile("q2", mode="cold")


def complete_events(document):
    return [e for e in document["traceEvents"] if e.get("ph") == "X"]


class TestChromeTraceEvents:
    def _traced(self):
        clock = QueryClock(MACHINE_A)
        tracer = Tracer(clock=clock)
        with tracer.run():
            clock.charge_cpu(0.005)
            with tracer.span("scan"):
                clock.charge_cpu(0.010)
                clock.charge_io(8192, 1)
            with tracer.span("join"):
                clock.charge_cpu(0.002)
        return tracer, clock

    def test_events_have_required_fields(self):
        tracer, _ = self._traced()
        events = chrome_trace_events(tracer.root)
        assert len(events) == 3  # root + scan + join
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert "sid" in event["args"]

    def test_children_nest_inside_parent(self):
        tracer, _ = self._traced()
        events = {e["name"]: e for e in chrome_trace_events(tracer.root)}
        root, scan, join = events["query"], events["scan"], events["join"]
        assert root["ts"] == 0.0
        # Children are packed back to back from the parent's start.
        assert scan["ts"] == root["ts"]
        assert join["ts"] == pytest.approx(scan["ts"] + scan["dur"])
        for child in (scan, join):
            assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-6

    def test_self_us_sums_to_clock_charge(self):
        tracer, clock = self._traced()
        events = chrome_trace_events(tracer.root)
        self_sum = sum(e["args"]["self_us"] for e in events)
        assert self_sum == pytest.approx(clock.real_seconds() * 1e6)

    def test_durations_are_simulated_microseconds(self):
        tracer, clock = self._traced()
        events = {e["name"]: e for e in chrome_trace_events(tracer.root)}
        assert events["query"]["dur"] == pytest.approx(
            clock.real_seconds() * 1e6
        )
        assert events["join"]["dur"] == pytest.approx(0.002 * 1e6)


class TestProfileExport:
    def test_document_shape(self, profile):
        document = profile.to_chrome_trace()
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["simulated"] is True
        assert document["otherData"]["engine"] == "column-store"
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"M", "X"}
        names = [
            e["args"]["name"] for e in document["traceEvents"]
            if e["ph"] == "M"
        ]
        assert any("repro simulated clock" in n for n in names)

    def test_validates_and_json_serializes(self, profile):
        document = profile.to_chrome_trace()
        decoded = json.loads(json.dumps(document))
        assert validate_trace(decoded) is decoded

    def test_self_us_sums_to_query_total(self, profile):
        document = profile.to_chrome_trace()
        self_sum = sum(
            e["args"]["self_us"] for e in complete_events(document)
        )
        assert self_sum == pytest.approx(
            profile.timing.real_seconds * 1e6
        )

    def test_operator_events_carry_rows(self, profile):
        events = complete_events(profile.to_chrome_trace())
        with_rows = [e for e in events if "rows" in e["args"]]
        assert with_rows  # executors reported cardinalities


class TestValidateTrace:
    def _minimal(self):
        return {
            "traceEvents": [
                {"name": "q", "ph": "X", "ts": 0, "dur": 10,
                 "pid": 1, "tid": 1},
                {"name": "child", "ph": "X", "ts": 0, "dur": 4,
                 "pid": 1, "tid": 1},
            ],
        }

    def test_accepts_minimal_document(self):
        validate_trace(self._minimal())

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError):
            validate_trace({})

    def test_rejects_missing_fields(self):
        document = self._minimal()
        del document["traceEvents"][0]["ts"]
        with pytest.raises(ValueError):
            validate_trace(document)

    def test_rejects_negative_duration(self):
        document = self._minimal()
        document["traceEvents"][1]["dur"] = -1
        with pytest.raises(ValueError):
            validate_trace(document)

    def test_rejects_non_integer_pid(self):
        document = self._minimal()
        document["traceEvents"][0]["pid"] = "one"
        with pytest.raises(ValueError):
            validate_trace(document)

    def test_rejects_overlapping_events(self):
        document = self._minimal()
        # Starts inside the root but ends after it: not a tree.
        document["traceEvents"][1].update(ts=5, dur=20)
        with pytest.raises(ValueError):
            validate_trace(document)


class TestPrometheusExposition:
    def test_counters_and_gauges(self):
        text = metrics_to_prometheus([
            ("gauge", "pool.resident", {}, 12),
            ("counter", "disk.requests",
             {"segment": "t.prop", "kind": "sequential"}, 5),
        ])
        assert "# TYPE repro_disk_requests counter" in text
        assert (
            'repro_disk_requests{kind="sequential",segment="t.prop"} 5'
            in text
        )
        assert "# TYPE repro_pool_resident gauge" in text
        assert "repro_pool_resident 12" in text
        assert text.endswith("\n")

    def test_histograms_become_summaries(self):
        histogram = Histogram()
        for value in (10, 20, 30):
            histogram.observe(value)
        text = metrics_to_prometheus(
            [("summary", "request_bytes", {}, histogram.summary())]
        )
        assert "# TYPE repro_request_bytes summary" in text
        assert 'repro_request_bytes{quantile="0.5"}' in text
        assert "repro_request_bytes_sum 60" in text
        assert "repro_request_bytes_count 3" in text

    def test_empty_summary_has_no_quantile_series(self):
        text = metrics_to_prometheus(
            [("summary", "idle", {"kind": "x"}, Histogram().summary())]
        )
        assert text.splitlines() == [
            "# TYPE repro_idle summary",
            'repro_idle_sum{kind="x"} 0.0',
            'repro_idle_count{kind="x"} 0',
        ]

    def test_label_values_are_escaped(self):
        text = metrics_to_prometheus([("counter", "c", {"path": 'a"b\\c'}, 1)])
        assert 'path="a\\"b\\\\c"' in text

    def test_empty_registry(self):
        assert metrics_to_prometheus([]) == ""

    def test_custom_prefix(self):
        assert "myapp_c 1" in metrics_to_prometheus(
            [("counter", "c", {}, 1)], prefix="myapp"
        )


class TestCliTraceOut:
    def test_profile_trace_out_writes_valid_trace(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        trace_path = tmp_path / "q1.trace.json"
        code = cli_main([
            "profile", "q1", "--triples", "2000", "--properties", "20",
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        document = json.loads(trace_path.read_text())
        validate_trace(document)
        assert complete_events(document)
