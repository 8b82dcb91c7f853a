"""In-memory spans around calls into the program's layers.

A span is ``[name, start, end, parent, op]``: *name* is
``<layer>.<stage>`` (the layer is one of this repository's modules),
*start*/*end* are ``time.perf_counter`` seconds, *parent* is the index of
the span that was open when this one began, and *op* is the identifier
the spans of one operation share.  Spans stay in memory until the run
ends; :func:`chrome_trace` renders them for ``chrome://tracing`` /
Perfetto.
"""

import contextlib
import time

NAME, START, END, PARENT, OP = range(5)

_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else None
        tracer._open.append(self.index)
        tracer.spans.append([self.name, time.perf_counter(), None, parent,
                             tracer.op])
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][END] = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """Records nested spans; one per traced run."""

    def __init__(self):
        self.spans = []
        self._open = []
        #: Identifier stamped on every span opened from now on.
        self.op = "setup"

    def span(self, name):
        return _Span(self, name)

    def add(self, name, start, end, parent):
        """Record a span timed elsewhere (a server-reported interval, or a
        stage measured on the twin store) under *parent*."""
        self.spans.append([name, start, end, parent, self.op])
        return len(self.spans) - 1


def span(tracer, name):
    """``tracer.span(name)``, or a no-op when the run is untraced."""
    return tracer.span(name) if tracer is not None else _NO_SPAN


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Per-span self time: its duration minus what its children cover.

    Summed over a whole tree the self times telescope to the root's
    duration, which is what lets the shares add up to one.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def chrome_trace(spans, metadata=None):
    """The spans as a Chrome trace-event document (``ph: "X"``, µs)."""
    origin = spans[0][START] if spans else 0.0
    own = self_times(spans)
    events = [
        {
            "name": s[NAME],
            "cat": layer_of(s[NAME]),
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": round((s[START] - origin) * 1e6, 3),
            "dur": round((s[END] - s[START]) * 1e6, 3),
            "args": {"op": s[OP], "self_us": round(own[i] * 1e6, 3)},
        }
        for i, s in enumerate(spans)
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": metadata or {}}
