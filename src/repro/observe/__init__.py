"""repro.observe — execution tracing, metrics, logging, and the
EXPLAIN ANALYZE profiler.

Three layers, all zero-dependency and inert by default:

* :mod:`repro.observe.metrics` — a labeled counter/gauge/histogram
  registry with dict/JSON/text export,
* :mod:`repro.observe.trace` — a span tracer with exact simulated-clock
  attribution plus wall-clock durations, bundled with the registry into an
  :class:`~repro.observe.trace.Observation` that engines carry,
* :mod:`repro.observe.profiler` — EXPLAIN ANALYZE: run a plan with a live
  Observation installed and render per-operator actual rows, estimated
  rows, I/O breakdown and buffer behaviour (``repro profile`` on the CLI).

The performance observatory builds on those layers:

* :mod:`repro.observe.counters` — the process-wide always-on counter
  table (declare / add / snapshot / reset) behind the ledger, the query
  server's ``/v1/stats`` and ``/metrics``,
* :mod:`repro.observe.history` — the run-history ledger: every benchmark
  or profile run recorded as a :class:`~repro.observe.history.RunRecord`
  (JSONL under ``.repro/perf/`` plus ``BENCH_<name>.json`` snapshots),
* :mod:`repro.observe.regression` — per-metric regression policies
  (simulated costs byte-identical, wall-clock tolerance-gated, counters
  informational) behind ``repro perf record / compare / report``,
* :mod:`repro.observe.export` — Chrome trace-event JSON for Perfetto and
  Prometheus text exposition of the metrics registry.

:mod:`repro.observe.log` holds the package's logging setup (plain text or
JSON lines carrying the active span id).
"""

from repro.observe.log import configure_logging, get_logger
from repro.observe.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
    format_key,
    parse_key,
)
from repro.observe.trace import (
    NULL_OBSERVATION,
    NULL_TRACER,
    NullTracer,
    Observation,
    Span,
    Tracer,
    active_span_id,
)

__all__ = [
    "configure_logging",
    "get_logger",
    "format_key",
    "parse_key",
    "active_span_id",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Observation",
    "NULL_OBSERVATION",
    # provided lazily from repro.observe.profiler:
    "QueryProfile",
    "profile_plan",
    "validate_profile",
    "PROFILE_SCHEMA_VERSION",
    # provided lazily from the observatory modules:
    "RunRecord",
    "RunLedger",
    "record_from_results",
    "record_from_profile",
    "write_snapshot",
    "load_snapshot",
    "compare_records",
    "compare_bench_documents",
    "PerfComparison",
    "profile_to_chrome",
    "chrome_trace_events",
    "validate_trace",
    "metrics_to_prometheus",
]

_PROFILER_NAMES = {
    "QueryProfile",
    "profile_plan",
    "validate_profile",
    "PROFILE_SCHEMA_VERSION",
}

_LAZY_MODULES = {
    "RunRecord": "history",
    "RunLedger": "history",
    "record_from_results": "history",
    "record_from_profile": "history",
    "write_snapshot": "history",
    "load_snapshot": "history",
    "compare_records": "regression",
    "compare_bench_documents": "regression",
    "PerfComparison": "regression",
    "profile_to_chrome": "export",
    "chrome_trace_events": "export",
    "validate_trace": "export",
    "metrics_to_prometheus": "export",
}


def __getattr__(name):
    # The profiler pulls in the planner/optimizer stack; load it only when
    # asked so `import repro.engine` stays light.  Same treatment for the
    # observatory modules, which reach into bench/exec for counters.
    if name in _PROFILER_NAMES:
        from repro.observe import profiler

        return getattr(profiler, name)
    if name in _LAZY_MODULES:
        import importlib

        module = importlib.import_module(
            f"repro.observe.{_LAZY_MODULES[name]}"
        )
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
