"""Tests for the benchmark harness: metrics, the measured run, reporting,
systems."""

import pytest

from repro.bench import (
    TimingCell,
    format_series,
    format_table,
    geometric_mean,
    summarize,
)
from repro.bench.systems import (
    SYSTEM_GRID,
    data_scale,
    deploy,
    deploy_grid,
)
from repro.data import generate_barton
from repro.errors import BenchmarkError


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=6_000, n_properties=40, seed=11)


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([3, 3, 3]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(BenchmarkError):
            geometric_mean([])

    def test_nonpositive_rejected(self):
        with pytest.raises(BenchmarkError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(BenchmarkError):
            geometric_mean([-1.0])

    def test_order_invariance(self):
        assert geometric_mean([2, 8, 4]) == pytest.approx(
            geometric_mean([8, 4, 2])
        )


class TestSummarize:
    def cells(self, queries, value=2.0):
        return {q: TimingCell(value, value / 2) for q in queries}

    def test_g_over_initial_seven(self):
        base = [f"q{i}" for i in range(1, 8)]
        summary = summarize(self.cells(base))
        assert summary["G_real"] == pytest.approx(2.0)
        assert summary["G_user"] == pytest.approx(1.0)
        # No extended queries -> no G*.
        assert summary["Gstar_real"] is None

    def test_gstar_with_extensions(self):
        cells = self.cells([f"q{i}" for i in range(1, 8)])
        cells["q8"] = TimingCell(16.0, 8.0)
        summary = summarize(cells)
        assert summary["Gstar_real"] > summary["G_real"]
        assert summary["ratio_real"] == pytest.approx(
            summary["Gstar_real"] / summary["G_real"]
        )

    def test_cstore_style_missing_queries(self):
        """C-Store has only q1-q7; summary must cope with missing stars."""
        summary = summarize(self.cells([f"q{i}" for i in range(1, 8)]))
        assert summary["ratio_real"] is None


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "-" in lines[1]
        assert "-" in lines[3]  # None renders as dash

    def test_format_table_title(self):
        text = format_table(["a"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_series(self):
        text = format_series("x", [1, 2], {"s1": [10, 20], "s2": [30, 40]})
        assert "s1" in text and "s2" in text
        assert "40" in text

    def test_float_rendering(self):
        text = format_table(["v"], [[123.456], [1.234], [0.0123], [0.0]])
        assert "123" in text
        assert "1.23" in text
        assert "0.0123" in text


class TestRunner:
    """``Deployment.run`` — the harness's way into the engine's one
    cold/hot protocol."""

    def test_cold_and_hot(self, dataset):
        deployment = deploy(dataset, "MonetDB", "vert")
        cold_rows, cold = deployment.run("q1", "cold")
        hot_rows, hot = deployment.run("q1", "hot")
        assert hot.real_seconds < cold.real_seconds
        assert hot.bytes_read == 0 < cold.bytes_read
        assert cold_rows.n_rows == hot_rows.n_rows > 0

    def test_unknown_mode(self, dataset):
        deployment = deploy(dataset, "MonetDB", "vert")
        with pytest.raises(BenchmarkError):
            deployment.run("q1", "warm")


class TestSystems:
    def test_grid_has_seven_rows(self):
        assert len(SYSTEM_GRID) == 7

    def test_data_scale(self, dataset):
        scale = data_scale(dataset)
        assert 0 < scale < 1
        assert scale == pytest.approx(len(dataset.triples) / 50_255_599)

    def test_deploy_grid_labels(self, dataset):
        deployments = deploy_grid(
            dataset,
            grid=(("MonetDB", "triple", "PSO"), ("C-Store", "vert", "SO")),
        )
        assert [d.label() for d in deployments] == [
            "MonetDB/triple-PSO",
            "C-Store/vert-SO",
        ]

    def test_unknown_system(self, dataset):
        with pytest.raises(BenchmarkError):
            deploy(dataset, "Oracle", "triple")

    def test_unknown_scheme(self, dataset):
        with pytest.raises(BenchmarkError):
            deploy(dataset, "DBX", "hexastore")

    def test_cstore_supports_only_base7(self, dataset):
        deployment = deploy(dataset, "C-Store", "vert")
        assert deployment.supports("q1")
        assert not deployment.supports("q8")
        assert not deployment.supports("q2*")

    def test_cstore_rejects_scope_override(self, dataset):
        deployment = deploy(dataset, "C-Store", "vert")
        with pytest.raises(BenchmarkError):
            deployment.run("q2", scope=["<type>"])

    def test_scaled_seconds(self, dataset):
        deployment = deploy(dataset, "MonetDB", "vert")
        assert deployment.scaled_seconds(1.0) == pytest.approx(
            1.0 / deployment.scale
        )

    def test_same_results_across_grid(self, dataset):
        """Both SQL deployments return identical q1 relations."""
        a = deploy(dataset, "MonetDB", "triple", "PSO")
        b = deploy(dataset, "DBX", "vert")
        rel_a, _ = a.run("q1")
        rel_b, _ = b.run("q1")
        decoded_a = sorted(rel_a.decoded_tuples(a.catalog.dictionary))
        decoded_b = sorted(rel_b.decoded_tuples(b.catalog.dictionary))
        assert decoded_a == decoded_b


class TestAsciiChart:
    def test_basic_chart(self):
        from repro.bench.ascii_chart import line_chart

        text = line_chart(
            [0, 50, 100],
            {"up": [1.0, 5.0, 9.0], "down": [9.0, 5.0, 1.0]},
            width=30, height=8, x_label="#props",
        )
        assert "*" in text and "+" in text
        assert "up" in text and "down" in text
        assert "#props" in text
        assert "9" in text and "1" in text  # y-range labels

    def test_empty_series(self):
        from repro.bench.ascii_chart import line_chart

        assert line_chart([], {}) == "(no data)"
        assert line_chart([1], {"a": [None]}) == "(no data)"

    def test_flat_series_does_not_crash(self):
        from repro.bench.ascii_chart import line_chart

        text = line_chart([1, 2], {"flat": [3.0, 3.0]})
        assert "flat" in text

    def test_figure_render_includes_chart(self):
        from repro.bench.experiments import ExperimentResult

        result = ExperimentResult(
            name="x", title="T", headers=[], rows=[],
            series={"a": [1.0, 2.0]}, x_values=[10, 20], x_label="n",
        )
        rendered = result.render()
        assert "T" in rendered
        assert "+--" in rendered or "+-" in rendered  # axis present
        assert "a" in rendered

    def test_figure_render_chart_disabled(self):
        from repro.bench.experiments import ExperimentResult

        result = ExperimentResult(
            name="x", title="T", headers=[], rows=[],
            series={"a": [1.0, 2.0]}, x_values=[10, 20], x_label="n",
        )
        assert "+--" not in result.render(chart=False)
