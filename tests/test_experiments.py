"""Shape tests for the experiment drivers: every table and figure driver
runs on a small dataset, and every entry of ``repro.bench.findings`` holds
— and can fail."""

import copy
from functools import partial

import pytest

from repro.bench import experiments as E
from repro.bench.findings import DBX_SPO, FINDINGS
from repro.bench.metrics import INITIAL_QUERIES, TimingCell
from repro.bench.paper_reference import PAPER_TABLE2, PAPER_TABLE5
from repro.data import generate_barton

#: Small but structurally faithful dataset for driver tests.  The full 222
#: properties matter: the paper's triple-vs-vertical crossovers only happen
#: once the property vocabulary is large.
SCALE = dict(n_triples=40_000, n_properties=222, seed=23)


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(**SCALE)


#: The drivers the findings read, with sweeps short enough for tier-1.
DRIVERS = {
    "table4": E.experiment_table4,
    "table5": E.experiment_table5,
    "table6": E.experiment_table6,
    "table7": E.experiment_table7,
    "figure6": partial(
        E.experiment_figure6, property_counts=(28, 84, 150, 222)
    ),
    "figure7": partial(E.experiment_figure7, property_counts=(222, 500, 800)),
}


@pytest.fixture(scope="module")
def results(dataset):
    return {name: driver(dataset) for name, driver in DRIVERS.items()}


class TestStaticTables:
    def test_table1_rows(self, dataset):
        result = E.experiment_table1(dataset)
        rows = dict((label, value) for label, value in result.rows)
        assert rows["total triples"] == len(dataset.triples)
        assert rows["distinct properties"] == 222
        assert "total triples" in result.render()

    def test_figure1_property_curve_saturates_early(self, dataset):
        result = E.experiment_figure1(dataset)
        properties = result.series["properties"]
        subjects = result.series["subjects"]
        # At the 13% sample point, properties cover ~99% of triples.
        at_13 = properties[result.x_values.index(13)]
        assert at_13 > 95
        assert subjects[result.x_values.index(13)] < at_13

    def test_table2_matches_paper(self):
        result = E.experiment_table2()
        got = {
            row[0]: (row[1].split(","), row[2].split(",") if row[2] != "-" else [])
            for row in result.rows
        }
        assert got == PAPER_TABLE2

    def test_table3_lists_three_machines(self):
        result = E.experiment_table3()
        assert result.headers[1:] == ["A", "B", "C"]
        assert any("I/O read" in row[0] for row in result.rows)


class TestTable4Shapes:
    def test_has_all_runs(self, results):
        assert {row[0] for row in results["table4"].rows} == {
            f"{m} {mode} {clock}"
            for m in ("A", "B")
            for mode in ("cold", "hot")
            for clock in ("real", "user")
        }


class TestTable5Shapes:
    def test_covers_seven_queries(self, results):
        assert [row[0] for row in results["table5"].rows] == list(
            INITIAL_QUERIES
        )

    def test_magnitudes_within_10x_of_paper(self, results):
        reads = {row[0]: row[1] for row in results["table5"].rows}
        for query, (paper_mb, _) in PAPER_TABLE5.items():
            assert paper_mb / 10 < reads[query] < paper_mb * 10

    def test_row_counts_positive(self, results):
        assert all(row[2] > 0 for row in results["table5"].rows)


class TestFigure5:
    def test_histories_monotone_and_bounded(self, dataset):
        results = E.experiment_figure5(dataset)
        assert len(results) == 2
        for result in results:
            for series in result.series.values():
                assert series == sorted(series)
                assert series[-1] > 0


@pytest.mark.parametrize("finding", FINDINGS, ids=lambda f: f.name)
def test_finding_holds(finding, results):
    assert finding.broken(results) == []


def broken(results, name, doctor):
    """Finding name -> the cells it reports broken once *doctor* has edited
    a copy of the *name* result (each cell without its values)."""
    doctored = copy.deepcopy(results[name])
    doctor(doctored)
    view = {**results, name: doctored}
    cells = {f.name: [c.rsplit(": ", 1)[0] for c in f.broken(view)]
             for f in FINDINGS}
    return {finding: c for finding, c in cells.items() if c}


class TestPredicatesCanFail:
    """A doctored cell breaks exactly the predicates that read it, and
    each names it."""

    def test_swapped_figure6_series(self, results):
        def swap(figure6):
            series = figure6[0].series
            series["triple"], series["vert"] = series["vert"], series["triple"]

        assert broken(results, "figure6", swap) == {
            "figure6_vertical_rises": ["figure6_q2 vert: first < last"],
            "figure6_triple_flat_then_drops": [
                "figure6_q2 triple: last <= 1.1 x first",
                "figure6_q2 triple: 222 < 150",
            ],
        }

    def test_hot_cell_slower_than_cold(self, results):
        cold = results["table6"].measured[DBX_SPO][0]["q5"].real

        def slow(table7):
            table7.measured[DBX_SPO][0]["q5"] = TimingCell(2 * cold, 2 * cold)

        assert broken(results, "table7", slow) == {
            "hot_never_slower_than_cold": [
                "table7 q5: DBX/triple-SPO hot <= cold"
            ],
        }

    def test_figure6_without_the_222_drop(self, results):
        def flatten(figure6):
            triple = figure6[1].series["triple"]
            triple[-1] = triple[-2]

        assert broken(results, "figure6", flatten) == {
            "figure6_triple_flat_then_drops": ["figure6_q3 triple: 222 < 150"],
        }

    def test_falling_figure7_vert_point(self, results):
        def fall(figure7):
            vert = figure7.series["q3* vert"]
            vert[1] = vert[2] + 1

        assert broken(results, "figure7", fall) == {
            "figure7_vertical_climbs": ["figure7 q3* vert at 800: no fall"],
        }
