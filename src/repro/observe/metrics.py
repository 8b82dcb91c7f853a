"""Zero-dependency in-process metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` hands out named instruments, optionally labeled
(``registry.counter("server.queries", outcome="completed")``).  Each
``(name, labels)`` pair maps to exactly one instrument, so incrementing the
same labeled counter from two call sites accumulates into one time series.

The registry is intentionally tiny — no background threads, no export
protocol.  Its users are the scopes that outlive one query: the session
scheduler (admission counters, latency histograms; rendered at
``/metrics``) and the replay collector.  Engines never write here — a
query is recorded by its span tree (:mod:`repro.observe.trace`) and the
process by :mod:`repro.observe.counters`.  Export is a plain dict
(:meth:`MetricsRegistry.to_dict`) or JSON (:meth:`MetricsRegistry.to_json`);
callers that share a registry between threads lock around it.
"""

import json

#: Characters that would make a ``name{k=v,...}`` key ambiguous if they
#: appeared raw inside a label value; escaped with a backslash so two
#: distinct label dicts can never collide on one key.
_ESCAPED = ("\\", ",", "=", "{", "}")


def _escape(text):
    for ch in _ESCAPED:
        text = text.replace(ch, "\\" + ch)
    return text


def format_key(name, labels):
    """Canonical ``name{k=v,...}`` key for a labeled instrument.

    Label keys and values containing separator characters (``,``, ``=``,
    braces, backslash) are backslash-escaped, so the mapping from
    ``(name, labels)`` to key is injective — ``{"a": "1,b=2"}`` and
    ``{"a": "1", "b": "2"}`` produce different keys.
    """
    if not labels:
        return name
    inner = ",".join(
        f"{_escape(str(k))}={_escape(str(labels[k]))}" for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def parse_key(key):
    """Invert :func:`format_key`: ``(name, labels)`` from a canonical key."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key[:-1].partition("{")
    labels = {}
    part, field = [], []
    target = part
    escaped = False
    for ch in inner:
        if escaped:
            target.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "=" and target is part:
            field = []
            target = field
        elif ch == ",":
            labels["".join(part)] = "".join(field)
            part, field = [], []
            target = part
        else:
            target.append(ch)
    if part or field:
        labels["".join(part)] = "".join(field)
    return name, labels


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        if n < 0:
            raise ValueError("counters only increase")
        self.value += n


class Gauge:
    """A value that can go up and down (e.g. resident pages)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value):
        self.value = value

    def inc(self, n=1):
        self.value += n

    def dec(self, n=1):
        self.value -= n


class Histogram:
    """Summary statistics plus power-of-4 bucket counts.

    Buckets are cumulative-free: ``buckets[i]`` counts observations with
    ``4**i <= value < 4**(i+1)`` (index 0 also catches values below 1).
    Good enough to see the shape of request sizes without configuration.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    N_BUCKETS = 16

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets = [0] * self.N_BUCKETS

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = 0
        bound = 4
        while value >= bound and index < self.N_BUCKETS - 1:
            bound *= 4
            index += 1
        self.buckets[index] += 1

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Estimated q-quantile (``0 <= q <= 1``) from the bucket counts.

        Linear interpolation inside the containing bucket, clamped to the
        observed ``[min, max]`` range so single-sample and narrow-range
        histograms report exact values.  ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cumulative + n >= target:
                low = 0.0 if index == 0 else float(4 ** index)
                high = float(4 ** (index + 1))
                low = max(low, self.min)
                high = min(high, self.max)
                if high <= low:
                    value = low
                else:
                    fraction = max(0.0, target - cumulative) / n
                    value = low + (high - low) * fraction
                return min(max(value, self.min), self.max)
            cumulative += n
        return self.max

    def summary(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                f"<{4 ** (i + 1)}": n
                for i, n in enumerate(self.buckets)
                if n
            },
        }


class MetricsRegistry:
    """Namespace of counters, gauges and histograms, labeled by string."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # ------------------------------------------------------------------
    # instruments
    # ------------------------------------------------------------------

    def counter(self, name, **labels):
        key = format_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name, **labels):
        key = format_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name, **labels):
        key = format_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dict(self):
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)
