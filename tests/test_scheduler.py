"""Tests for the process-pool experiment scheduler."""

import pytest

from repro.bench import scheduler
from repro.bench.scheduler import (
    Cell,
    JOBS_ENV,
    default_jobs,
    map_cells,
    run_cells,
    scheduler_meta,
)
from repro.observe import counters


def _square(dataset, x):
    return (dataset, x * x)


def _boom(dataset):
    raise ValueError("cell failure")


class TestDefaultJobs:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert default_jobs() == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert default_jobs() == 3

    def test_invalid_value_falls_back(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        assert default_jobs() == 1

    def test_nonpositive_clamped(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-2")
        assert default_jobs() == 1


class TestRunCells:
    def test_serial_results_in_submission_order(self):
        outcomes = run_cells(
            [Cell(fn=_square, args=(x,), label=f"x={x}") for x in range(5)],
            dataset="d", jobs=1,
        )
        assert [o.value for o in outcomes] == [
            ("d", 0), ("d", 1), ("d", 4), ("d", 9), ("d", 16)
        ]
        assert [o.label for o in outcomes] == [f"x={x}" for x in range(5)]
        assert all(o.wall_ms >= 0 for o in outcomes)

    def test_parallel_matches_serial(self):
        cells = [Cell(fn=_square, args=(x,)) for x in range(8)]
        serial = [o.value for o in run_cells(cells, dataset="d", jobs=1)]
        parallel = [o.value for o in run_cells(cells, dataset="d", jobs=2)]
        assert parallel == serial

    def test_single_cell_stays_in_process(self):
        # One cell never pays for a pool: the worker dataset global stays
        # untouched.
        run_cells([Cell(fn=_square, args=(1,))], dataset="d", jobs=8)
        assert scheduler._WORKER_DATASET is None

    def test_worker_receives_dataset(self):
        values, _ = map_cells(
            _square, [(i,) for i in range(4)], dataset="shared", jobs=2
        )
        assert all(dataset == "shared" for dataset, _ in values)

    def test_cell_exception_propagates(self):
        with pytest.raises(ValueError, match="cell failure"):
            run_cells(
                [Cell(fn=_boom), Cell(fn=_boom)], dataset=None, jobs=2
            )

    def test_jobs_env_respected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "2")
        cells = [Cell(fn=_square, args=(x,)) for x in range(4)]
        outcomes = run_cells(cells, dataset="d", jobs=None)
        assert [o.value for o in outcomes] == [
            ("d", x * x) for x in range(4)
        ]


class TestMapCells:
    def test_values_and_outcomes(self):
        values, outcomes = map_cells(
            _square, [(2,), (3,)], dataset="d", jobs=1,
            labels=["two", "three"],
        )
        assert values == [("d", 4), ("d", 9)]
        assert [o.label for o in outcomes] == ["two", "three"]

    def test_default_labels(self):
        _, outcomes = map_cells(_square, [(7,)], dataset="d", jobs=1)
        assert outcomes[0].label == "(7,)"


class TestSchedulerMeta:
    def test_meta_shape(self):
        _, outcomes = map_cells(
            _square, [(1,), (2,)], dataset="d", jobs=1, labels=["a", "b"]
        )
        meta = scheduler_meta(outcomes, jobs=4)
        assert meta["jobs"] == 4
        assert meta["wall_ms"] == pytest.approx(
            sum(o.wall_ms for o in outcomes), abs=0.01
        )
        assert [c["label"] for c in meta["cells"]] == ["a", "b"]

    def test_meta_default_jobs(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        meta = scheduler_meta([], jobs=None)
        assert meta["jobs"] == 1 and meta["wall_ms"] == 0

    def test_meta_records_repeats(self, monkeypatch):
        monkeypatch.setenv(scheduler.REPEATS_ENV, "3")
        assert scheduler_meta([], jobs=1)["repeats"] == 3


class TestRepeats:
    def test_default_repeats(self, monkeypatch):
        monkeypatch.delenv(scheduler.REPEATS_ENV, raising=False)
        assert scheduler.default_repeats() == 1
        monkeypatch.setenv(scheduler.REPEATS_ENV, "5")
        assert scheduler.default_repeats() == 5
        monkeypatch.setenv(scheduler.REPEATS_ENV, "junk")
        assert scheduler.default_repeats() == 1
        monkeypatch.setenv(scheduler.REPEATS_ENV, "0")
        assert scheduler.default_repeats() == 1

    def test_repeats_rerun_cell_and_keep_first_value(self, monkeypatch):
        monkeypatch.setenv(scheduler.REPEATS_ENV, "4")
        calls = []

        def probe(dataset):
            calls.append(dataset)
            return len(calls)  # impure on purpose, to observe the re-runs

        outcomes = run_cells([Cell(fn=probe, label="p")], dataset="d",
                             jobs=1)
        assert len(calls) == 4
        # The reported value comes from the first run.
        assert outcomes[0].value == 1
        assert outcomes[0].wall_ms >= 0

    def test_repeats_report_minimum_wall(self):
        import time

        sleeps = iter([0.02, 0.0, 0.0])

        def uneven(dataset):
            time.sleep(next(sleeps))
            return 1

        outcome = scheduler._run_cell(
            Cell(fn=uneven, label="u"), "d", repeats=3
        )
        # min-of-N: the 20ms first run must not be the reported wall.
        assert outcome.wall_ms < 20.0

    def test_stats_accumulate(self, monkeypatch):
        monkeypatch.delenv(scheduler.REPEATS_ENV, raising=False)
        counters.reset("scheduler")
        run_cells([Cell(fn=_square, args=(2,))] * 3, dataset="d", jobs=1)
        stats = counters.snapshot("scheduler")
        assert stats["cells"] == 3
        assert stats["repeats"] == 3
        assert stats["wall_ms"] >= 0
        counters.reset("scheduler")
        assert counters.snapshot("scheduler")["cells"] == 0


class TestExperimentParity:
    """Parallel experiment drivers must be byte-identical to serial."""

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.data import generate_barton

        return generate_barton(n_triples=5_000, n_properties=40, seed=11)

    def test_figure7_parallel_identical(self, dataset):
        from repro.bench.experiments import experiment_figure7

        base = len({t.p for t in dataset.triples})
        counts = (base, base + 4)
        serial = experiment_figure7(dataset, property_counts=counts, jobs=1)
        parallel = experiment_figure7(
            dataset, property_counts=counts, jobs=2
        )
        assert parallel.render() == serial.render()
        assert parallel.series == serial.series

    def test_figure6_parallel_identical(self, dataset):
        from repro.bench.experiments import experiment_figure6

        serial = experiment_figure6(
            dataset, property_counts=(10, 20), jobs=1
        )
        parallel = experiment_figure6(
            dataset, property_counts=(10, 20), jobs=2
        )
        serial = serial if isinstance(serial, list) else [serial]
        parallel = parallel if isinstance(parallel, list) else [parallel]
        assert [p.render() for p in parallel] == [s.render() for s in serial]
        assert [p.series for p in parallel] == [s.series for s in serial]
