"""repro.observe — execution tracing, metrics, logging, and the
EXPLAIN ANALYZE profiler.

One sink per scope, all zero-dependency:

* **query** → :mod:`repro.observe.trace` — a span tracer with exact
  simulated-clock attribution, wall-clock durations and additive event
  counts; engines carry a tracer (``engine.tracer``, inert
  :data:`NULL_TRACER` by default) and write per-query events nowhere
  else.  :mod:`repro.observe.profiler` is EXPLAIN ANALYZE on top of it:
  run a plan with a live tracer installed and render per-operator actual
  rows, estimated rows, I/O breakdown and buffer behaviour (``repro
  profile`` on the CLI),
* **process** → :mod:`repro.observe.counters` — the always-on counter
  table (declare / add / snapshot / reset) behind the ledger, the query
  server's ``/v1/stats`` and ``/metrics``,
* **instance** (scheduler, pool, runtime, connection, replay collector)
  → plain fields behind the instance's own ``stats()``; the latency
  distributions among them are :class:`~repro.observe.metrics.Histogram`.

The performance observatory builds on those:

* :mod:`repro.observe.history` — the run-history ledger: every benchmark
  or replay run recorded as a :class:`~repro.observe.history.RunRecord`
  (JSONL under ``.repro/perf/`` plus ``BENCH_<name>.json`` snapshots),
* :mod:`repro.observe.regression` — per-metric regression policies
  (simulated costs byte-identical, wall-clock and counters
  informational) behind ``repro perf record / compare / report``,
* :mod:`repro.observe.export` — Chrome trace-event JSON for Perfetto and
  Prometheus text exposition of metric samples.

:mod:`repro.observe.log` holds the package's logging setup (plain text or
JSON lines carrying the active span id).
"""

from repro.observe.log import configure_logging, get_logger
from repro.observe.metrics import Histogram
from repro.observe.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    active_span_id,
)

__all__ = [
    "configure_logging",
    "get_logger",
    "active_span_id",
    "Histogram",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    # provided lazily from repro.observe.profiler:
    "QueryProfile",
    "profile_plan",
    "validate_profile",
    "PROFILE_SCHEMA_VERSION",
    # provided lazily from the observatory modules:
    "RunRecord",
    "RunLedger",
    "record_from_results",
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
