"""The paper's findings, each written once as a predicate over experiment
results.

Every entry of :data:`FINDINGS` names one claim, cites where the paper
makes it, lists the experiments it ``reads`` (driver names, ``table4`` …
``figure7``) and carries ``check``: a function of those results, in
``reads`` order, returning the cells that break the claim — an empty list
means it holds.  ``kind`` is ``"finding"``, or ``"deviation"`` for a known
deviation from the paper (EXPERIMENTS.md), whose check fails when the
deviation disappears.

Sweeps are read at their first, second-to-last and last points (and
Figure 7's vertical curve at every step, which must never fall), so each
predicate holds at whatever sweep its consumer runs: tier-1 and the bench
suite evaluate the same entries at different scales.
"""

import operator
from dataclasses import dataclass
from typing import Callable

from repro.bench.metrics import INITIAL_QUERIES
from repro.bench.paper_reference import PAPER_TABLE4, PAPER_TABLE5


@dataclass(frozen=True)
class Finding:
    name: str
    cites: str
    reads: tuple
    check: Callable
    kind: str = "finding"

    def broken(self, results):
        """The cells breaking this entry, given experiment name -> result."""
        return self.check(*(results[name] for name in self.reads))


def _holds(where, low, high, op=operator.lt):
    """No cells if ``op(low, high)``, else the cell *where* and its values."""
    return [] if op(low, high) else [f"{where}: {low:.2f} vs {high:.2f}"]


def _within_10x(where, paper, ours):
    return (_holds(f"{where}: paper / 10 < ours", paper / 10, ours)
            + _holds(f"{where}: ours < paper x 10", ours, paper * 10))


# Table 4 / Table 5 — the C-Store repetition.

def _runs(table4):
    """Run label ("A cold real", ...) -> the seven query cells and G."""
    return {row[0]: row[1:] for row in table4.rows}


def _cold_g_far_above_hot(table4):
    runs = _runs(table4)
    return sum((_holds(f"table4 {m} G: 1.5 x hot < cold",
                       1.5 * runs[f"{m} hot real"][-1],
                       runs[f"{m} cold real"][-1]) for m in "AB"), [])


def _user_at_most_real(table4):
    runs = _runs(table4)
    return [
        cell
        for run in runs if run.endswith(" user")
        for column, user, real in zip(
            table4.headers[1:], runs[run], runs[run[:-4] + "real"]
        )
        for cell in _holds(f"table4 {run} {column}: user <= real", user,
                           real + 1e-9, operator.le)
    ]


def _user_similar_across_machines(table4):
    a, b = _runs(table4)["A cold user"][-1], _runs(table4)["B cold user"][-1]
    return (_holds("table4 cold user G: A <= B", a, b, operator.le)
            + _holds("table4 cold user G: B < 1.2 x A", b, a * 1.2))


def _table4_magnitudes(table4):
    runs = _runs(table4)
    return sum((_within_10x(f"table4 {' '.join(key)} G", paper[-1],
                            runs[" ".join(key)][-1])
                for key, paper in PAPER_TABLE4.items() if key[0] != "[1]"),
               [])


def _reads_less(table5, query, others):
    reads = {row[0]: row[1] for row in table5.rows}
    return sum((_holds(f"table5 MB: {query} < {q}", reads[query], reads[q])
                for q in others), [])


def _table5_magnitudes(table5):
    reads = {row[0]: row[1] for row in table5.rows}
    return (sum((_holds(f"table5 {q} rows: 0 < rows", 0, n)
                 for q, _, n in table5.rows), [])
            + sum((_within_10x(f"table5 {q} MB", mb, reads[q])
                   for q, (mb, _) in PAPER_TABLE5.items()), []))


# Tables 6 and 7 — the full grid.

DBX_SPO = ("DBX", "triple", "SPO")
DBX_PSO = ("DBX", "triple", "PSO")
DBX_VERT = ("DBX", "vert", "SO")
MONET_PSO = ("MonetDB", "triple", "PSO")
MONET_VERT = ("MonetDB", "vert", "SO")
CSTORE = ("C-Store", "vert", "SO")
_SQL = (DBX_SPO, DBX_PSO, DBX_VERT, ("MonetDB", "triple", "SPO"), MONET_PSO,
        MONET_VERT)


def _label(config):
    return "{}/{}-{}".format(*config)


def _real(table, config):
    """Query (and G, G*, G*/G) -> real time of one configuration."""
    cells, summary = table.measured[config]
    return {**{q: c.real for q, c in cells.items()}, "G": summary["G_real"],
            "G*": summary["Gstar_real"], "G*/G": summary["ratio_real"]}


def _faster(tables, low, high, keys, divisor=1):
    """Cells of *tables* where configuration *low* is not below *high*
    (divided by *divisor*) in real time."""
    scale = f" / {divisor}" if divisor != 1 else ""
    broken = []
    for table in tables:
        lows, highs = _real(table, low), _real(table, high)
        for key in keys:
            broken += _holds(
                f"{table.name} {key}: {_label(low)} < {_label(high)}{scale}",
                lows[key], highs[key] / divisor,
            )
    return broken


def _cstore_missing_cells(cold):
    cells, summary = cold.measured[CSTORE]
    broken = [f"table6 {q}: C-Store has no cell" for q in INITIAL_QUERIES
              if q not in cells]
    broken += [f"table6 {q}: C-Store cannot run it, yet has a cell"
               for q in cells if q not in INITIAL_QUERIES]
    if summary["Gstar_real"] is not None:
        broken.append("table6 G*: C-Store has one")
    return broken


def _hot_never_slower(cold, hot):
    return [
        cell
        for config, (cells, _) in cold.measured.items()
        for q, c in cells.items()
        for cell in _holds(f"table7 {q}: {_label(config)} hot <= cold",
                           hot.measured[config][0][q].real, c.real + 1e-9,
                           operator.le)
    ]


def _hot_user_close_to_real(hot):
    return [
        f"table7 {q}: {_label(config)} user {c.user:.2f} not within 5% of "
        f"real {c.real:.2f}"
        for config in _SQL
        for q, c in hot.measured[config][0].items()
        if not abs(c.user - c.real) <= 0.05 * c.real
    ]


# Figures 6 and 7 — the property sweeps.

def _figure6_vertical_rises(figure6):
    return sum((_holds(f"{r.name} vert: first < last", r.series["vert"][0],
                       r.series["vert"][-1]) for r in figure6), [])


def _figure6_triple_flat_then_drops(figure6):
    broken = []
    for r in figure6:
        triple = r.series["triple"]
        broken += _holds(f"{r.name} triple: last <= 1.1 x first", triple[-1],
                         triple[0] * 1.1, operator.le)
        broken += _holds(f"{r.name} triple: {r.x_values[-1]} < "
                         f"{r.x_values[-2]}", triple[-1], triple[-2])
    return broken


def _figure6_triple_overtakes(figure6):
    """The triple line ends below vert for at least three queries (paper:
    all but q4)."""
    behind = sum((_holds(f"{r.name} at {r.x_values[-1]}: triple < vert",
                         r.series["triple"][-1], r.series["vert"][-1])
                  for r in figure6), [])
    return behind if len(figure6) - len(behind) < 3 else []


_FIGURE7 = ("q2*", "q3*", "q4*", "q6*")


def _figure7_vertical_climbs(figure7):
    broken = []
    for q in _FIGURE7:
        vert = figure7.series[f"{q} vert"]
        broken += _holds(f"figure7 {q} vert: 1.5 x first < last",
                         vert[0] * 1.5, vert[-1])
        for x, a, b in zip(figure7.x_values[1:], vert, vert[1:]):
            broken += _holds(f"figure7 {q} vert at {x}: no fall", a - 0.05,
                             b, operator.le)
    return broken


def _figure7_triple_flat(figure7):
    return sum((_holds(f"figure7 {q} triple: last <= 1.2 x first",
                       figure7.series[f"{q} triple"][-1],
                       figure7.series[f"{q} triple"][0] * 1.2, operator.le)
                for q in _FIGURE7), [])


def _figure7_triple_wins(figure7):
    return sum((_holds(f"figure7 {q} at {figure7.x_values[-1]}: triple < "
                       "vert / 1.5", figure7.series[f"{q} triple"][-1],
                       figure7.series[f"{q} vert"][-1] / 1.5)
                for q in _FIGURE7), [])


_T4, _T5 = "Section 3, Table 4", "Section 3, Table 5"
_T6, _T7 = "Section 4.3, Table 6", "Section 4.3, Table 7"
_T67 = "Section 4.3, Tables 6 and 7"
_F6, _F7 = "Section 4.3, Figure 6", "Section 4.4, Figure 7"

FINDINGS = (
    Finding("cstore_cold_g_far_above_hot", _T4, ("table4",),
            _cold_g_far_above_hot),
    Finding("cstore_user_at_most_real", _T4, ("table4",), _user_at_most_real),
    Finding("fast_disk_barely_helps_cstore", _T4, ("table4",),
            lambda t: _holds("table4 G: cold speedup of B over A < 1.8",
                             _runs(t)["A cold real"][-1]
                             / _runs(t)["B cold real"][-1], 1.8)),
    Finding("cstore_user_similar_across_machines", _T4, ("table4",),
            _user_similar_across_machines),
    Finding("table4_within_10x_of_paper", _T4, ("table4",),
            _table4_magnitudes),
    Finding("q1_reads_least_of_scan_queries", _T5, ("table5",),
            lambda t: _reads_less(t, "q1", ("q2", "q3", "q6"))),
    Finding("table5_within_10x_of_paper", _T5, ("table5",),
            _table5_magnitudes),
    Finding("q5_reads_below_scan_queries", _T5, ("table5",),
            lambda t: _reads_less(t, "q5", ("q2", "q3", "q4", "q6")),
            "deviation"),
    Finding("pso_beats_spo_on_the_row_store", _T6, ("table6",),
            lambda *t: _faster(t, DBX_PSO, DBX_SPO,
                               ("q1", "q2", "q3", "q5", "q6", "q7"))
            + _faster(t, DBX_PSO, DBX_SPO, ("q1",), divisor=2)),
    Finding("row_store_black_swan", _T6, ("table6",),
            lambda *t: _faster(t, DBX_PSO, DBX_VERT, ("G*",))),
    Finding("vertical_wins_restricted_queries_on_row_store", _T6, ("table6",),
            lambda *t: _faster(t, DBX_VERT, DBX_PSO, ("q1", "q5", "q7"))),
    Finding("triple_wins_star_queries_on_row_store", _T6, ("table6",),
            lambda *t: _faster(t, DBX_PSO, DBX_VERT,
                               ("q2*", "q3*", "q4*", "q6*", "q8"))),
    Finding("row_store_triple_wins_q2_q3", _T67, ("table6", "table7"),
            lambda *t: _faster(t, DBX_PSO, DBX_VERT, ("q2", "q3"))),
    Finding("column_store_beats_row_store", _T6, ("table6",),
            lambda *t: _faster(t, MONET_VERT, DBX_VERT, ("G",), divisor=3)),
    Finding("vertical_wins_g_on_column_store", _T67, ("table6", "table7"),
            lambda *t: _faster(t, MONET_VERT, MONET_PSO, ("G",))),
    Finding("column_store_black_swans", _T67, ("table6", "table7"),
            lambda *t: _faster(t, MONET_PSO, MONET_VERT,
                               ("q2*", "q3*", "q6*", "q8"))),
    Finding("gstar_ratio_larger_for_vertical", _T6, ("table6",),
            lambda *t: _faster(t, DBX_PSO, DBX_VERT, ("G*/G",))
            + _faster(t, MONET_PSO, MONET_VERT, ("G*/G",))),
    Finding("cstore_cannot_run_star_queries", _T6, ("table6",),
            _cstore_missing_cells),
    Finding("hot_never_slower_than_cold", _T67, ("table6", "table7"),
            _hot_never_slower),
    Finding("hot_user_close_to_real", _T7, ("table7",),
            _hot_user_close_to_real),
    Finding("row_store_q8_depends_on_clustering", _T6, ("table6",),
            lambda *t: _faster(t, DBX_PSO, DBX_SPO, ("q8",), divisor=2),
            "deviation"),
    Finding("cstore_loses_q1_q2_to_monetdb", _T6, ("table6",),
            lambda *t: _faster(t, MONET_VERT, CSTORE, ("q1", "q2")),
            "deviation"),
    Finding("figure6_vertical_rises", _F6, ("figure6",),
            _figure6_vertical_rises),
    Finding("figure6_triple_flat_then_drops", _F6, ("figure6",),
            _figure6_triple_flat_then_drops),
    Finding("figure6_triple_overtakes_vertical", _F6, ("figure6",),
            _figure6_triple_overtakes),
    Finding("figure7_vertical_climbs", _F7, ("figure7",),
            _figure7_vertical_climbs),
    Finding("figure7_triple_stays_flat", _F7, ("figure7",),
            _figure7_triple_flat),
    Finding("figure7_triple_wins_decisively", _F7, ("figure7",),
            _figure7_triple_wins),
)
