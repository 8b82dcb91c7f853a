"""A calibration kernel timed in the same run as the ops.

This box changes speed — a fixed piece of pure Python takes anything from
1.0 to 2.1 ms, for a few seconds or for minutes at a stretch, with no
steal time to show for it — so two runs of one commit a few minutes apart
differed by 25 %.  ROADMAP's answer ("a calibration kernel timed in the
same job, gate on the ratio") is what this module provides:
:func:`kernel` is about a millisecond of bytecode and dict stores,
sampled between ops throughout the run, and every time is reported as a
multiple of what the kernel took next to it, in units of
``REFERENCE_S``.  The numbers then read "milliseconds on a machine where
the kernel takes one millisecond": what the program costs, not what the
neighbours were doing.

The kernel is deliberately not a piece of the program: a ruler that got
faster with the program would hide the gain.  (Kernels with a numpy sort
or a pointer chase over a large heap in them tracked the program's ops
worse than this one — their own times scatter more.)  What is left after
scaling is that the program's ops do not all slow down exactly as the
kernel does: row-engine ops by about the kernel's factor to the power
1.2, column-engine ops to the power 0.7 — a few per cent of a run's
numbers, which is what the bounds in ``BENCHMARK.json`` allow for.
"""

import bisect
import statistics
import time

#: The kernel time every run is scaled to (this box at its quickest).
REFERENCE_S = 0.001

#: Least time between two samples: keeps the kernel under a fifth of the
#: loop time however short the ops are.
INTERVAL_S = 0.005

#: How far either side of an op its kernel samples are looked for: wide
#: enough to hold a handful, narrow enough to be the speed the op saw.
WINDOW_S = 0.05


def kernel():
    """Seconds one pass of the calibration kernel takes."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(12000):
        total += i * i
        table[i & 255] = total
    return time.perf_counter() - start


class Calibrator:
    """Collects kernel samples, each with the time it was taken at."""

    def __init__(self):
        self.at = []
        self.seconds = []

    def sample(self, count=1):
        for _ in range(count):
            took = kernel()
            self.at.append(time.perf_counter())
            self.seconds.append(took)

    def sample_if_due(self):
        if time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def scaled(self, start, seconds):
        """*seconds* that began at *start*, in reference seconds: divided
        by the median kernel sample taken within ``WINDOW_S`` of them
        (there is one before and one after every op of 5 ms or more)."""
        low = bisect.bisect_left(self.at, start - WINDOW_S)
        high = bisect.bisect_right(self.at, start + seconds + WINDOW_S)
        if low == high:
            low, high = max(low - 1, 0), high + 1
        return seconds * REFERENCE_S / statistics.median(self.seconds[low:high])
