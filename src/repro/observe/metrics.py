"""The one latency distribution: :class:`Histogram`.

Counts live elsewhere — a query's in its span tree
(:mod:`repro.observe.trace`), the process's in the counter table
(:mod:`repro.observe.counters`), an instance's (scheduler, pool, runtime,
connection) in plain fields behind its own ``stats()``.  What none of
those can hold is a distribution, and that is all this module is: the
session scheduler keeps three histograms (queue wait, execution, total
latency) and the replay collector two.  A histogram is not thread-safe;
its owner mutates it under the owner's lock.
"""

import math


class Histogram:
    """Summary statistics plus log-spaced bucket counts, in constant memory.

    Sixteen buckets per power of two from ``2**-16`` to ``2**32`` (in
    milliseconds: 15 ns to 49 days), one bucket for everything below and
    the last one open above.  Neighbouring bounds differ by ``2**(1/16)``,
    so a :meth:`quantile` estimate lies within 4.4 % of the sample of that
    rank whatever the distribution; interpolation inside the bucket
    usually brings it under 1 %.  :meth:`observe` computes its index from
    one ``log2`` — no loop, no allocation.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    PER_OCTAVE = 16
    LOW_EXP = -16
    N_BUCKETS = PER_OCTAVE * (32 - LOW_EXP) + 1

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
        if value > 0:
            # log2 is exact at powers of two, so the power-of-4 bounds
            # that summary() renders fall exactly between two buckets.
            steps = (math.log2(value) - self.LOW_EXP) * self.PER_OCTAVE
            index = min(max(math.floor(steps) + 1, 0), self.N_BUCKETS - 1)
        self.buckets[index] += 1

    def quantile(self, q):
        """Estimated q-quantile (``0 <= q <= 1``): the bucket holding the
        sample of rank ``q * count``, interpolated linearly inside it and
        clamped to the observed ``[min, max]`` so single-sample and
        narrow-range histograms report exact values.  ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index, n in enumerate(self.buckets):
            if n and cumulative + n >= target:
                exponent = (index - 1) / self.PER_OCTAVE + self.LOW_EXP
                low = self.min if index == 0 else max(2.0 ** exponent, self.min)
                high = self.max
                if index < self.N_BUCKETS - 1:
                    high = min(2.0 ** (exponent + 1 / self.PER_OCTAVE), high)
                fraction = max(0.0, target - cumulative) / n
                value = low + max(0.0, high - low) * fraction
                return min(max(value, self.min), self.max)
            cumulative += n
        return self.max

    def summary(self):
        """JSON-ready statistics.  ``buckets`` is the power-of-4 rendering
        (``"<4"`` also counts everything below 1), aggregated from the
        fine buckets so the documents that carry it keep their shape."""
        coarse = {}
        for index, n in enumerate(self.buckets):
            if n:
                power = (index - 1) // (2 * self.PER_OCTAVE) + self.LOW_EXP // 2
                label = f"<{4 ** (max(power, 0) + 1)}"
                coarse[label] = coarse.get(label, 0) + n
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": coarse,
        }
