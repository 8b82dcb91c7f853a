"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

The tracer's span tree and the instance / process counts are this
reproduction's native observability formats; this module translates them
into the two interchange formats every tooling ecosystem already reads:

* :func:`profile_to_chrome` / :func:`chrome_trace_events` emit the
  `Chrome trace-event format`_ — open the file in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing`` and the query's
  operator tree renders as a flame chart over the **simulated** clock
  (timestamps are simulated microseconds, not wall time; that is the
  point — the chart is deterministic and byte-identical across machines).
* :func:`metrics_to_prometheus` renders ``(kind, name, labels, value)``
  samples in the Prometheus text exposition format, one line per
  labeled series.

.. _Chrome trace-event format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from repro.observe.trace import CPU, IO

#: Synthetic pid/tid for the single simulated "process".
TRACE_PID = 1
TRACE_TID = 1


def _micros(seconds):
    return seconds * 1e6


def _span_event(span, start_us, pid, tid):
    self_sim = span.self_sim
    inclusive = span.inclusive()
    event = {
        "name": span.name,
        "cat": "operator",
        "ph": "X",
        "ts": start_us,
        "dur": _micros(inclusive[CPU] + inclusive[IO]),
        "pid": pid,
        "tid": tid,
        "args": {
            "sid": span.sid,
            "calls": span.calls,
            "self_us": _micros(self_sim[CPU] + self_sim[IO]),
            "self_cpu_us": _micros(self_sim[CPU]),
            "self_io_us": _micros(self_sim[IO]),
        },
    }
    if span.detail:
        event["args"]["describe"] = span.detail
    if span.rows is not None:
        event["args"]["rows"] = span.rows
    if span.counts:
        event["args"]["counts"] = dict(span.counts)
    return event


def chrome_trace_events(root, pid=TRACE_PID, tid=TRACE_TID):
    """Complete ("X") trace events for a span tree, depth first.

    Layout: a span's event covers its **inclusive** simulated time;
    children are packed back to back from the parent's start, so the
    parent's self time shows up as the uncovered tail of its bar —
    exactly how Perfetto renders self time in a flame chart.  The sum of
    ``args.self_us`` over all events therefore equals the root's
    inclusive time: the tracer's exact-attribution invariant, visible in
    the export.
    """
    events = []

    def emit(span, start_us):
        events.append(_span_event(span, start_us, pid, tid))
        cursor = start_us
        for child in span.children:
            emit(child, cursor)
            child_inclusive = child.inclusive()
            cursor += _micros(child_inclusive[CPU] + child_inclusive[IO])

    emit(root, 0.0)
    return events


def profile_to_chrome(profile, pid=TRACE_PID, tid=TRACE_TID):
    """A full Chrome trace document for a
    :class:`~repro.observe.profiler.QueryProfile`."""
    label = profile.query or "query"
    metadata = [
        {
            "name": "process_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": f"repro simulated clock ({profile.engine_kind})"},
        },
        {
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": f"{label} [{profile.mode}]"},
        },
    ]
    return {
        "traceEvents": metadata + chrome_trace_events(profile.root, pid, tid),
        "displayTimeUnit": "ms",
        "otherData": {
            "query": profile.query,
            "engine": profile.engine_kind,
            "mode": profile.mode,
            "simulated": True,
            "real_seconds": profile.timing.real_seconds,
        },
    }


def validate_trace(document):
    """Check a decoded Chrome trace document: every complete event carries
    numeric ``ts``/``dur`` and integer ``pid``/``tid``, and events nest —
    each child bar lies within its parent's.  Raises ``ValueError`` on the
    first problem; returns the document when it validates."""
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("trace document has no traceEvents")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    complete = []
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for fld in ("name", "ph", "pid", "tid"):
            if fld not in event:
                raise ValueError(f"traceEvents[{i}] is missing {fld!r}")
        if not isinstance(event["pid"], int) or not isinstance(
            event["tid"], int
        ):
            raise ValueError(f"traceEvents[{i}] pid/tid must be integers")
        if event["ph"] == "M":
            continue
        if event["ph"] != "X":
            raise ValueError(
                f"traceEvents[{i}] has unsupported phase {event['ph']!r}"
            )
        for fld in ("ts", "dur"):
            value = event.get(fld)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"traceEvents[{i}].{fld} must be a non-negative number"
                )
        complete.append(event)
    # Nesting: sorted by start, any event beginning inside an open one
    # must also end inside it (within float tolerance).
    open_stack = []
    for event in sorted(complete, key=lambda e: (e["ts"], -e["dur"])):
        start, end = event["ts"], event["ts"] + event["dur"]
        while open_stack and start >= open_stack[-1] - 1e-6:
            open_stack.pop()
        if open_stack and end > open_stack[-1] + 1e-6:
            raise ValueError(
                f"event {event['name']!r} overlaps its parent "
                f"(ends {end} after {open_stack[-1]})"
            )
        open_stack.append(end)
    return document


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _metric_name(prefix, name):
    """Prometheus metric name: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    cleaned = []
    for ch in name:
        if ch.isalnum() or ch in ("_", ":"):
            cleaned.append(ch)
        else:
            cleaned.append("_")
    flat = "".join(cleaned)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return f"{prefix}_{flat}" if prefix else flat


def _label_text(labels):
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        value = value.replace("\\", "\\\\").replace('"', '\\"')
        value = value.replace("\n", "\\n")
        parts.append(f'{_metric_name("", key)}="{value}"')
    return "{" + ",".join(parts) + "}"


def metrics_to_prometheus(samples, prefix="repro"):
    """*samples* in Prometheus text exposition format (version 0.0.4).

    A sample is ``(kind, name, labels, value)``: a ``"counter"`` or
    ``"gauge"`` becomes one line, a ``"summary"`` — whose value is a
    :meth:`~repro.observe.metrics.Histogram.summary` document — becomes
    ``quantile`` series plus ``_sum``/``_count``.  Names are sanitized
    (dots to underscores); label values are quoted and escaped per the
    format.  Series are sorted by name, each family under one
    ``# TYPE`` line.
    """
    lines = []
    typed = set()
    for kind, name, labels, value in sorted(
        samples, key=lambda s: (s[1], sorted(s[2].items()))
    ):
        metric = _metric_name(prefix, name)
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} {kind}")
        if kind != "summary":
            lines.append(f"{metric}{_label_text(labels)} {value}")
            continue
        for q_label, q_key in (("0.5", "p50"), ("0.95", "p95"),
                               ("0.99", "p99")):
            if value[q_key] is not None:
                quantile = _label_text({**labels, "quantile": q_label})
                lines.append(f"{metric}{quantile} {value[q_key]}")
        lines.append(f"{metric}_sum{_label_text(labels)} {value['sum']}")
        lines.append(f"{metric}_count{_label_text(labels)} {value['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
