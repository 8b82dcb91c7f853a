"""Span-based execution tracing over the simulated query clock.

A :class:`Tracer` maintains a tree of :class:`Span` objects.  Spans can be
pre-registered to mirror a logical plan (:meth:`Tracer.register_plan`) so
that both executors — the recursive column-at-a-time one and the lazy
tuple-at-a-time one — attribute work to the *same* plan node, or opened
ad hoc with ``with tracer.span("load", table=...)``.

Attribution is exact for the simulated clock: entering a span snapshots the
clock's accumulators (CPU, I/O, bytes, requests, seek, transfer) plus the
wall clock; exiting charges the delta to the span's *self* time minus
whatever nested spans consumed in between.  Re-entry accumulates, which is
what makes per-tuple attribution in the row store's generator pipeline work:
every ``next()`` pull pushes the operator's span, and pulls from child
streams subtract themselves automatically.  The invariant the profiler
relies on is::

    sum over all spans of self(cpu + io) == total clock charge

as long as the whole measured region runs inside :meth:`Tracer.run`.

When tracing is off, engines hold the shared :data:`NULL_TRACER`, whose
methods are no-ops.
"""

import itertools
import threading
import time
from contextlib import contextmanager

#: Monotonic span-id source: every Span gets a process-unique integer id so
#: exported traces and structured log lines can correlate on it.
#: ``itertools.count`` advances atomically under the GIL.
_SPAN_IDS = itertools.count(1)

class _Active(threading.local):
    """Per thread, the stack of tracers inside :meth:`Tracer.run`
    (innermost last): :func:`active_span_id` reads the calling thread's,
    so a log line carries the span of the thread that wrote it."""

    def __init__(self):
        self.tracers = []


_ACTIVE = _Active()


def active_span_id():
    """Span id of this thread's innermost active span, or ``None``."""
    if not _ACTIVE.tracers:
        return None
    span = _ACTIVE.tracers[-1].current_span()
    return span.sid if span is not None else None


def wall_now():
    """Monotonic wall timestamp for span attribution.

    Engine code may never let the wall clock near a simulated cost (the
    ``wall-clock-in-engine`` lint rule); the parallel operators measure
    the wall duration of a worker batch *for span attribution only*
    through this observe-side helper, keeping the wall clock confined to
    the observability layer.
    """
    return time.perf_counter()

#: Indices into a clock snapshot / span time vector.
CPU, IO, BYTES, REQUESTS, SEEK, TRANSFER = range(6)

_ZERO = (0.0, 0.0, 0, 0, 0.0, 0.0)

#: Field names for exporting a time vector.
VECTOR_FIELDS = (
    "cpu_seconds",
    "io_seconds",
    "bytes_read",
    "io_requests",
    "seek_seconds",
    "transfer_seconds",
)


def vector_dict(vector, wall_seconds):
    out = dict(zip(VECTOR_FIELDS, vector))
    out["bytes_read"] = int(out["bytes_read"])
    out["io_requests"] = int(out["io_requests"])
    out["wall_seconds"] = wall_seconds
    return out


class Span:
    """One node of the trace tree.

    ``self_sim`` is the 6-vector of simulated charges attributed to this
    span alone (children excluded); :meth:`inclusive` folds children back
    in.  ``rows`` is the actual output cardinality reported by the
    executor; ``estimated_rows`` is filled by the profiler from the
    optimizer's estimator.  ``counts`` holds additive event counters
    (buffer page hits/misses, ...) contributed via
    :meth:`Tracer.current_add`.
    """

    __slots__ = (
        "name", "detail", "attrs", "parent", "children", "calls", "rows",
        "estimated_rows", "self_sim", "wall_self", "counts", "sid",
    )

    def __init__(self, name, detail="", parent=None, attrs=None):
        self.sid = next(_SPAN_IDS)
        self.name = name
        self.detail = detail
        self.attrs = dict(attrs) if attrs else {}
        self.parent = parent
        self.children = []
        self.calls = 0
        self.rows = None
        self.estimated_rows = None
        self.self_sim = [0.0, 0.0, 0, 0, 0.0, 0.0]
        self.wall_self = 0.0
        self.counts = {}

    def child_named(self, name):
        for child in self.children:
            if child.name == name:
                return child
        return None

    def inclusive(self):
        """Self vector plus every descendant's, elementwise."""
        total = list(self.self_sim)
        for child in self.children:
            child_total = child.inclusive()
            for i in range(6):
                total[i] += child_total[i]
        return total

    def wall_inclusive(self):
        return self.wall_self + sum(c.wall_inclusive() for c in self.children)

    def self_seconds(self):
        """Simulated real seconds attributed to this span alone."""
        return self.self_sim[CPU] + self.self_sim[IO]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def add_counts(self, counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def misestimate_ratio(self):
        """How far off the optimizer was: ``max(est, act) / min(est, act)``,
        floored at one row so empty results stay finite.  ``None`` when no
        estimate was recorded."""
        if self.estimated_rows is None or self.rows is None:
            return None
        hi = max(self.estimated_rows, float(self.rows))
        lo = max(1.0, min(self.estimated_rows, float(self.rows)))
        return hi / lo

    def __repr__(self):
        return f"Span({self.name!r}, calls={self.calls}, rows={self.rows})"


class Tracer:
    """Collects a span tree; see the module docstring for attribution."""

    enabled = True

    def __init__(self, clock=None, root_name="query"):
        self.clock = clock
        self.root = Span(root_name)
        self._index = {}      # id(key object) -> Span
        self._keepalive = []  # keep keyed objects alive so ids stay unique
        self._stack = []      # frames: [span, snap, wall0, child_vec, child_wall]

    # ------------------------------------------------------------------
    # span registration / lookup
    # ------------------------------------------------------------------

    def register_plan(self, plan, describe=None, estimates=None):
        """Create one span per plan node, mirroring the plan tree.
        *estimates* (``id(node)`` -> rows, as the optimizer's
        ``annotate_cardinalities`` returns) seeds ``estimated_rows``."""

        def attach(node, parent):
            span = Span(
                type(node).__name__.lower(),
                describe(node) if describe else "",
                parent,
            )
            if estimates is not None:
                span.estimated_rows = estimates.get(id(node))
            parent.children.append(span)
            self._index[id(node)] = span
            self._keepalive.append(node)
            for child in node.children():
                attach(child, span)

        attach(plan, self.root)

    def span_for(self, key):
        return self._index.get(id(key))

    # ------------------------------------------------------------------
    # push/pop attribution
    # ------------------------------------------------------------------

    def _snapshot(self):
        if self.clock is None:
            return _ZERO
        return self.clock.profile_snapshot()

    def enter(self, key):
        """Open an attribution frame for the span keyed by *key* (a plan
        node or any hashable-by-identity object).  Unknown keys get a fresh
        span under the currently active one."""
        span = self._index.get(id(key))
        if span is None:
            parent = self._stack[-1][0] if self._stack else self.root
            span = Span(str(key), "", parent)
            parent.children.append(span)
            self._index[id(key)] = span
            self._keepalive.append(key)
        self._push(span)

    def exit(self, key=None):
        self._pop()

    def _push(self, span):
        self._stack.append(
            [span, self._snapshot(), time.perf_counter(),
             [0.0, 0.0, 0, 0, 0.0, 0.0], 0.0]
        )

    def _pop(self):
        span, snap, wall0, child_vec, child_wall = self._stack.pop()
        now = self._snapshot()
        wall = time.perf_counter() - wall0
        span.calls += 1
        delta = [now[i] - snap[i] for i in range(6)]
        for i in range(6):
            span.self_sim[i] += delta[i] - child_vec[i]
        span.wall_self += wall - child_wall
        if self._stack:
            parent_frame = self._stack[-1]
            parent_child_vec = parent_frame[3]
            for i in range(6):
                parent_child_vec[i] += delta[i]
            parent_frame[4] += wall

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    @contextmanager
    def run(self):
        """Bracket the whole measured region; root self-time catches every
        charge not claimed by a nested span (planning, output, build).
        While active, the tracer is registered so :func:`active_span_id`
        (and through it the structured JSON logger) can name the span any
        log line was emitted under."""
        self._push(self.root)
        _ACTIVE.tracers.append(self)
        try:
            yield self.root
        finally:
            _ACTIVE.tracers.remove(self)
            self._pop()

    @contextmanager
    def span(self, name, **attrs):
        """Ad-hoc named span under the active one; repeats merge by name."""
        parent = self._stack[-1][0] if self._stack else self.root
        span = parent.child_named(name)
        if span is None:
            span = Span(name, "", parent, attrs)
            parent.children.append(span)
        elif attrs:
            span.attrs.update(attrs)
        self._push(span)
        try:
            yield span
        finally:
            self._pop()

    def set_rows(self, key, rows):
        span = self._index.get(id(key))
        if span is not None:
            span.rows = rows

    def current_add(self, **counts):
        """Add event counts to the currently active span."""
        if self._stack:
            self._stack[-1][0].add_counts(counts)

    def transfer_to_child(self, name, vector, wall_seconds=0.0):
        """Reattribute part of the active frame's pending charge to a
        child span named *name* (created under the active span on first
        use; repeats merge by name).

        The vector lands in the child's self time AND in the frame's
        child-subtraction vector, so the parent's self time shrinks by
        exactly the transferred amount — the tree-sum invariant
        (``sum of self == total clock charge``) is preserved
        structurally.  The morsel dispatcher uses this to split one
        coordinator-side cost replay across per-morsel child spans.
        """
        if not self._stack:
            return None
        frame = self._stack[-1]
        parent = frame[0]
        child = parent.child_named(name)
        if child is None:
            child = Span(name, "", parent)
            parent.children.append(child)
        child.calls += 1
        child_vec = frame[3]
        for i in range(6):
            child.self_sim[i] += vector[i]
            child_vec[i] += vector[i]
        child.wall_self += wall_seconds
        frame[4] += wall_seconds
        return child

    def current_span(self):
        return self._stack[-1][0] if self._stack else None


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every method is a no-op."""

    enabled = False
    root = None

    def register_plan(self, plan, describe=None, estimates=None):
        pass

    def span_for(self, key):
        return None

    def enter(self, key):
        pass

    def exit(self, key=None):
        pass

    def run(self):
        return _NULL_CONTEXT

    def span(self, name, **attrs):
        return _NULL_CONTEXT

    def set_rows(self, key, rows):
        pass

    def current_add(self, **counts):
        pass

    def transfer_to_child(self, name, vector, wall_seconds=0.0):
        return None

    def current_span(self):
        return None


NULL_TRACER = NullTracer()
