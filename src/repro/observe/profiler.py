"""EXPLAIN ANALYZE: run a plan with live observability and report per
operator what the simulated hardware actually did.

:func:`profile_plan` installs a fresh
:class:`~repro.observe.trace.Tracer` (whose spans mirror the plan tree) on
an engine, runs the plan under the cold/hot protocol, and returns a
:class:`QueryProfile`:

* per operator — actual rows, estimated rows and the ``misestimate_ratio``
  between them, simulated self/inclusive time split into CPU vs I/O and
  seek vs transfer, and the span's event counts (buffer page hits /
  misses / evictions, disk requests, compressed bytes scanned, B+tree
  node visits, morsels — the table in ``docs/observability.md``);
* per query — total :class:`~repro.engine.clock.QueryTiming`, charge
  attribution by category (``plan`` / ``execute`` / ``output`` /
  ``io.seek`` / ``io.transfer``) and the disk's per-segment read log.

The accounting is exact: the sum over all spans (including the root
``query`` span, which absorbs planning, output and build work no operator
claims) of simulated self-time equals the query's total clock charge.
Instrumentation only ever *reads* the execution — results are identical
with profiling on or off.

JSON export follows the schema documented in ``docs/observability.md``;
:func:`validate_profile` checks a decoded document against it.
"""

import json
from dataclasses import dataclass, field

from repro.engine.clock import QueryTiming
from repro.observe.trace import (
    BYTES,
    IO,
    REQUESTS,
    SEEK,
    TRANSFER,
    Tracer,
    vector_dict,
)
from repro.plan.optimizer import annotate_cardinalities, engine_stats_provider
from repro.plan.render import (
    describe_node,
    describe_physical_node,
    render_physical_plan,
    render_plan,
)

PROFILE_SCHEMA_VERSION = 2

_TIME_FIELDS = (
    "cpu_seconds", "io_seconds", "seek_seconds", "transfer_seconds",
    "wall_seconds",
)


def _fmt_seconds(seconds):
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    return f"{seconds * 1000:.3f}ms"


def _fmt_bytes(nbytes):
    nbytes = int(nbytes)
    if nbytes >= 1024 * 1024:
        return f"{nbytes / (1024 * 1024):.1f}MB"
    if nbytes >= 1024:
        return f"{nbytes / 1024:.1f}KB"
    return f"{nbytes}B"


@dataclass
class QueryProfile:
    """The outcome of one profiled run."""

    query: str
    engine_kind: str
    mode: str
    plan: object
    tracer: Tracer
    timing: QueryTiming
    categories: dict
    segments: dict
    relation: object = None
    notes: list = field(default_factory=list)
    #: Engine-lowered physical tree.
    physical: object = None
    #: Compression report + the run's compressed-scan span counts (None
    #: when the engine stores columns raw).
    compression: object = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def root(self):
        return self.tracer.root

    @property
    def n_rows(self):
        return self.relation.n_rows if self.relation is not None else None

    def span_for(self, node):
        return self.tracer.span_for(node)

    def operator_spans(self):
        """Every span except the root, in plan order."""
        return [s for s in self.root.walk() if s is not self.root]

    def total_span_seconds(self):
        """Sum of simulated self-time over the whole span tree; equals
        ``timing.real_seconds`` by construction."""
        return sum(s.self_seconds() for s in self.root.walk())

    def unattributed_seconds(self):
        """Root self-time: parse/plan/output/build work owned by no
        operator."""
        return self.root.self_seconds()

    def count_total(self, key):
        """One event count summed over the whole span tree."""
        return sum(s.counts.get(key, 0) for s in self.root.walk())

    # ------------------------------------------------------------------
    # text rendering
    # ------------------------------------------------------------------

    def render(self, max_union_branches=4):
        t = self.timing
        lines = [
            f"EXPLAIN ANALYZE {self.query or '<plan>'} "
            f"({self.engine_kind}, {self.mode})",
            f"rows: {self.n_rows}; "
            f"real {t.real_seconds:.6f}s = user {t.user_seconds:.6f}s "
            f"+ io {t.real_seconds - t.user_seconds:.6f}s "
            f"(seek {t.seek_seconds:.6f}s + transfer {t.transfer_seconds:.6f}s); "
            f"{t.bytes_read} bytes in {t.io_requests} requests",
        ]
        if self.categories:
            parts = ", ".join(
                f"{name} {_fmt_seconds(seconds)}"
                for name, seconds in sorted(self.categories.items())
            )
            lines.append(f"by category: {parts}")
        lines.append(
            "unattributed (parse/plan/output/build): "
            f"{_fmt_seconds(self.unattributed_seconds())}"
        )
        if self.compression:
            c = self.compression
            lines.append(
                f"compression: mode {c['mode']}, "
                f"ratio {c['compression_ratio']:.1f}x, "
                f"bytes_scanned {_fmt_bytes(c['bytes_scanned'])} "
                f"(logical {_fmt_bytes(c['logical_bytes_scanned'])}), "
                f"runs_skipped {c['runs_skipped']}"
            )
        lines.append("")
        lines.append(
            render_plan(
                self.plan,
                max_union_branches=max_union_branches,
                annotate=self._annotate,
            )
        )
        if self.physical is not None:
            lines.append("")
            lines.append("physical plan:")
            lines.append(
                render_physical_plan(
                    self.physical,
                    max_union_branches=max_union_branches,
                    annotate=self._annotate_physical,
                )
            )
        return "\n".join(lines)

    def _annotate(self, node):
        span = self.tracer.span_for(node)
        if span is None:
            return ""
        parts = []
        if span.calls == 0 and span.rows is None:
            parts.append("fused into parent")
        if span.rows is not None:
            parts.append(f"rows={span.rows}")
        if span.estimated_rows is not None:
            parts.append(f"est={span.estimated_rows:.0f}")
            ratio = span.misestimate_ratio()
            if ratio is not None:
                parts.append(f"x{ratio:.1f}")
        if span.calls:
            sim = span.self_sim
            parts.append(f"self={_fmt_seconds(span.self_seconds())}")
            if sim[IO]:
                parts.append(
                    f"io={_fmt_bytes(sim[BYTES])}/{int(sim[REQUESTS])}req"
                    f" (seek {_fmt_seconds(sim[SEEK])}"
                    f" + xfer {_fmt_seconds(sim[TRANSFER])})"
                )
            hits = span.counts.get("page_hits", 0)
            misses = span.counts.get("page_misses", 0)
            if hits or misses:
                ratio = hits / (hits + misses)
                parts.append(f"pages={hits}h/{misses}m ({ratio:.0%} hit)")
        if not parts:
            return ""
        return "  · " + " · ".join(parts)

    def _annotate_physical(self, pnode):
        span = self.tracer.span_for(pnode.logical)
        if span is None:
            return ""
        parts = []
        if span.rows is not None:
            parts.append(f"rows={span.rows}")
        if span.estimated_rows is not None:
            parts.append(f"est={span.estimated_rows:.0f}")
            ratio = span.misestimate_ratio()
            if ratio is not None:
                parts.append(f"x{ratio:.1f}")
        if not parts:
            return ""
        return "  · " + " · ".join(parts)

    # ------------------------------------------------------------------
    # JSON export
    # ------------------------------------------------------------------

    def to_dict(self):
        t = self.timing
        # The first line fixes the documented key order (io_seconds sits
        # between user_seconds and the timing's seek/transfer split).
        totals = dict.fromkeys(
            ("n_rows", "real_seconds", "user_seconds", "io_seconds")
        )
        totals.update(
            t.to_dict(), n_rows=self.n_rows,
            io_seconds=t.real_seconds - t.user_seconds,
        )
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "query": self.query,
            "engine": self.engine_kind,
            "mode": self.mode,
            "totals": totals,
            "categories": dict(self.categories),
            "unattributed_seconds": self.unattributed_seconds(),
            "plan": self._span_dict(self.root),
            "physical": (
                self._physical_dict(self.physical)
                if self.physical is not None else None
            ),
            "segments": {
                name: stats.to_dict()
                for name, stats in sorted(self.segments.items())
            },
            "compression": (
                dict(self.compression)
                if self.compression is not None else None
            ),
            "notes": list(self.notes),
        }

    def _span_dict(self, span):
        return {
            "operator": span.name,
            "describe": span.detail,
            "calls": span.calls,
            "actual_rows": span.rows,
            "estimated_rows": span.estimated_rows,
            "misestimate_ratio": span.misestimate_ratio(),
            "self": vector_dict(span.self_sim, span.wall_self),
            "inclusive": vector_dict(span.inclusive(), span.wall_inclusive()),
            "counts": dict(span.counts),
            "children": [self._span_dict(c) for c in span.children],
        }

    def _physical_dict(self, pnode):
        span = self.tracer.span_for(pnode.logical)
        return {
            "operator": pnode.name,
            "engine": pnode.engine,
            "describe": describe_physical_node(pnode),
            "fused": len(pnode.fused),
            "actual_rows": span.rows if span is not None else None,
            "estimated_rows": (
                span.estimated_rows if span is not None else None
            ),
            "misestimate_ratio": (
                span.misestimate_ratio() if span is not None else None
            ),
            "children": [self._physical_dict(c) for c in pnode.children],
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def to_chrome_trace(self):
        """The profile as a Chrome trace-event document (Perfetto-ready);
        see :func:`repro.observe.export.profile_to_chrome`."""
        from repro.observe.export import profile_to_chrome

        return profile_to_chrome(self)


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def profile_plan(engine, plan, mode="cold", query=""):
    """Run *plan* on *engine* under EXPLAIN ANALYZE; returns a
    :class:`QueryProfile`.

    *mode* follows the engine's run protocol
    (:meth:`repro.exec.host.EngineHost.prepare`): ``"cold"`` clears the
    buffer pool first; ``"hot"`` performs one unobserved warm-up run.
    ``"current"`` does neither — the query runs against the buffer pool
    exactly as it stands, which is how the session API profiles queries
    inside a live server whose pool is shared across sessions.
    """
    estimates = annotate_cardinalities(plan, engine_stats_provider(engine))
    # The lowered tree the unified layer will actually run.
    physical = engine.lower(plan)

    # Spans are seeded with the optimizer's estimates so the profile can
    # report estimated-vs-actual per node.
    tracer = Tracer(clock=engine.clock)
    tracer.register_plan(plan, describe=describe_node, estimates=estimates)

    # Cold/hot preparation happens before the tracer is installed: a
    # warm-up run must leave no spans or read stats behind.
    engine.prepare(plan, mode)

    engine.disk.reset_read_stats()
    engine.install_tracer(tracer)
    try:
        engine.clock.reset()
        with tracer.run():
            relation, timing = engine.run(plan)
    finally:
        engine.install_tracer(None)

    tracer.root.rows = relation.n_rows
    profile = QueryProfile(
        query=query,
        engine_kind=engine.kind,
        mode=mode,
        plan=plan,
        tracer=tracer,
        timing=timing,
        categories=engine.clock.category_seconds(),
        segments=engine.disk.read_stats(),
        relation=relation,
        physical=physical,
    )
    # Engines that can compress report their footprint; what this run
    # scanned of it is the sum of its spans' counts.
    report = getattr(engine, "compression_report", lambda: None)()
    if report is not None:
        profile.compression = dict(report)
        for key in ("bytes_scanned", "logical_bytes_scanned", "runs_skipped"):
            profile.compression[key] = profile.count_total(key)
    return profile


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------

def validate_profile(document):
    """Check a decoded profile JSON document against the documented schema
    (docs/observability.md).  Raises ``ValueError`` on the first problem;
    returns the document when it validates."""
    _require(document, "profile", {
        "schema_version": int,
        "query": str,
        "engine": str,
        "mode": str,
        "totals": dict,
        "categories": dict,
        "unattributed_seconds": (int, float),
        "plan": dict,
        "segments": dict,
        "notes": list,
    })
    if document["schema_version"] != PROFILE_SCHEMA_VERSION:
        raise ValueError(
            f"profile schema_version {document['schema_version']} != "
            f"{PROFILE_SCHEMA_VERSION}"
        )
    _require(document["totals"], "totals", {
        "real_seconds": (int, float),
        "user_seconds": (int, float),
        "io_seconds": (int, float),
        "seek_seconds": (int, float),
        "transfer_seconds": (int, float),
        "bytes_read": int,
        "io_requests": int,
    })
    for name, seconds in document["categories"].items():
        if not isinstance(seconds, (int, float)):
            raise ValueError(f"category {name!r} is not a number")
    _validate_span(document["plan"], path="plan")
    if document.get("physical") is not None:
        _validate_physical(document["physical"], path="physical")
    return document


def _validate_span(node, path):
    _require(node, path, {
        "operator": str,
        "calls": int,
        "self": dict,
        "inclusive": dict,
        "counts": dict,
        "children": list,
    })
    for section in ("self", "inclusive"):
        vector = node[section]
        for fld in _TIME_FIELDS:
            if not isinstance(vector.get(fld), (int, float)):
                raise ValueError(f"{path}.{section}.{fld} is not a number")
        for fld in ("bytes_read", "io_requests"):
            if not isinstance(vector.get(fld), int):
                raise ValueError(f"{path}.{section}.{fld} is not an int")
    ratio = node.get("misestimate_ratio")
    if ratio is not None and (
        not isinstance(ratio, (int, float)) or ratio < 1.0
    ):
        raise ValueError(f"{path}.misestimate_ratio must be >= 1 or null")
    for i, child in enumerate(node["children"]):
        _validate_span(child, f"{path}.children[{i}]")


def _validate_physical(node, path):
    _require(node, path, {
        "operator": str,
        "engine": str,
        "describe": str,
        "fused": int,
        "children": list,
    })
    ratio = node.get("misestimate_ratio")
    if ratio is not None and (
        not isinstance(ratio, (int, float)) or ratio < 1.0
    ):
        raise ValueError(f"{path}.misestimate_ratio must be >= 1 or null")
    for i, child in enumerate(node["children"]):
        _validate_physical(child, f"{path}.children[{i}]")


def _require(mapping, path, fields):
    if not isinstance(mapping, dict):
        raise ValueError(f"{path} is not an object")
    for name, types in fields.items():
        if name not in mapping:
            raise ValueError(f"{path} is missing {name!r}")
        value = mapping[name]
        if value is None and name in (
            "actual_rows", "estimated_rows", "misestimate_ratio",
        ):
            continue
        if not isinstance(value, types):
            raise ValueError(f"{path}.{name} has wrong type")
