"""Benchmark metrics: geometric means and the G / G* / G*÷G summary.

The paper summarizes each system row with the geometric mean over the
initial 7 queries (G), over all 12 queries including q8 and the full-scale
variants (G*), and reports the ratio G*/G as the indicator of how much a
storage scheme suffers when the property restriction is lifted.
"""

import math
from dataclasses import dataclass

from repro.errors import BenchmarkError

#: The 7 queries of the original benchmark (used for G).
INITIAL_QUERIES = ("q1", "q2", "q3", "q4", "q5", "q6", "q7")


def geometric_mean(values):
    """Geometric mean of positive numbers."""
    values = list(values)
    if not values:
        raise BenchmarkError("geometric mean of an empty sequence")
    if any(v <= 0 for v in values):
        raise BenchmarkError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class TimingCell:
    """One (query, system) cell: simulated real and user seconds."""

    real: float
    user: float


def summarize(cells):
    """Compute the G / G* / G*÷G columns from query -> TimingCell.

    ``G`` covers the initial 7 queries, ``G*`` everything present; queries
    absent from *cells* (e.g. C-Store's missing q8/stars) simply don't
    contribute, mirroring the dashes in the paper's tables.
    """
    real_all = [c.real for c in cells.values()]
    user_all = [c.user for c in cells.values()]
    initial = [cells[q] for q in INITIAL_QUERIES if q in cells]
    summary = {
        "G_real": geometric_mean([c.real for c in initial]) if initial else None,
        "G_user": geometric_mean([c.user for c in initial]) if initial else None,
    }
    extended = {q: c for q, c in cells.items()}
    if len(extended) > len(initial):
        summary["Gstar_real"] = geometric_mean(real_all)
        summary["Gstar_user"] = geometric_mean(user_all)
        summary["ratio_real"] = summary["Gstar_real"] / summary["G_real"]
        summary["ratio_user"] = summary["Gstar_user"] / summary["G_user"]
    else:
        summary["Gstar_real"] = None
        summary["Gstar_user"] = None
        summary["ratio_real"] = None
        summary["ratio_user"] = None
    return summary
