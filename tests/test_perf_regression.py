"""Tests for the regression engine, the perf CLI verbs, and the
always-on counter overhead bound."""

import copy
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.observe.history import RunRecord, load_snapshot, write_snapshot
from repro.observe.regression import (
    PerfComparison,
    canonical_json,
    compare_bench_documents,
    compare_records,
    first_difference,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
COMPARE_SCRIPT = REPO_ROOT / "scripts" / "compare_bench_json.py"


def make_record(name="run", wall=100.0, simulated=None, parameters=None):
    parameters = parameters if parameters is not None else {"triples": 10}
    from repro.observe.history import config_fingerprint

    return RunRecord(
        name=name,
        simulated=simulated if simulated is not None else {
            "totals": {"real_seconds": 1.25, "bytes_read": 4096},
            "rows": [["q2", 0.5], ["q3", 0.75]],
        },
        wall_ms=wall,
        parameters=parameters,
        config_fingerprint=config_fingerprint(parameters),
        counters={"buffer_pool": {"page_hits": 10}},
    )


class TestFirstDifference:
    def test_none_when_equal(self):
        assert first_difference({"a": [1, 2]}, {"a": [1, 2]}) is None

    def test_names_the_leaf(self):
        where = first_difference(
            {"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}}
        )
        assert where == "$.a.b[1]: 2 != 3"

    def test_reports_key_and_length_changes(self):
        assert "keys differ" in first_difference({"a": 1}, {"b": 1})
        assert "length" in first_difference([1], [1, 2])
        assert "type" in first_difference(1, "1")


class TestCompareRecords:
    def test_identical_rerun_passes(self):
        baseline = make_record()
        current = copy.deepcopy(baseline)
        comparison = compare_records(baseline, current)
        assert comparison.ok
        assert comparison.failures() == []
        assert "OK" in comparison.render()

    def test_simulated_drift_fails_byte_identity(self):
        baseline = make_record()
        current = copy.deepcopy(baseline)
        # The injected regression: one simulated cost drifts by +1.
        current.simulated["totals"]["real_seconds"] += 1
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        failures = comparison.failures()
        assert [f.metric for f in failures] == ["simulated"]
        assert "totals.real_seconds" in failures[0].detail

    def test_wall_info_mode_never_gates(self):
        baseline = make_record(wall=100.0)
        current = make_record(wall=1000.0)
        comparison = compare_records(baseline, current)
        assert comparison.ok
        # The slowdown is still reported, with its ratio.
        wall = [d for d in comparison.diffs if d.metric == "wall_ms"][0]
        assert (wall.policy, wall.status) == ("info", "info")
        assert "10.00x" in wall.detail

    def test_missing_wall_is_skipped(self):
        baseline = make_record(wall=None)
        current = make_record(wall=50.0)
        comparison = compare_records(baseline, current)
        assert comparison.ok
        wall = [d for d in comparison.diffs if d.metric == "wall_ms"][0]
        assert wall.status == "skip"

    def test_fingerprint_mismatch_fails(self):
        baseline = make_record(parameters={"triples": 10})
        current = make_record(parameters={"triples": 20})
        comparison = compare_records(baseline, current)
        assert not comparison.ok
        assert [f.metric for f in comparison.failures()] == [
            "config_fingerprint"
        ]

    def test_counter_changes_are_informational(self):
        baseline = make_record()
        current = copy.deepcopy(baseline)
        current.counters["buffer_pool"]["page_hits"] = 0
        comparison = compare_records(baseline, current)
        assert comparison.ok  # info rows never gate
        info = [d for d in comparison.diffs if d.status == "info"]
        assert any(d.metric == "counters.buffer_pool" for d in info)

    def test_to_dict_is_json_safe(self):
        comparison = compare_records(make_record(), make_record())
        document = json.loads(json.dumps(comparison.to_dict()))
        assert document["ok"] is True
        assert all("status" in d for d in document["diffs"])


class TestCompareBenchDocuments:
    def _documents(self):
        return [
            {"name": "figure6_q2", "rows": [["28", 0.5]],
             "meta": {"jobs": 1, "wall_ms": 100.0}},
        ]

    def test_meta_only_changes_are_identical(self):
        left = self._documents()
        right = copy.deepcopy(left)
        right[0]["meta"]["wall_ms"] = 130.0
        right[0]["meta"]["jobs"] = 4
        comparison = compare_bench_documents(left, right)
        assert comparison.ok
        simulated = comparison.diffs[0]
        assert simulated.metric == "simulated"
        assert simulated.status == "ok"

    def test_simulated_drift_fails(self):
        left = self._documents()
        right = copy.deepcopy(left)
        right[0]["rows"][0][1] += 1
        assert not compare_bench_documents(left, right).ok

    def test_rejects_non_lists(self):
        with pytest.raises(ValueError):
            compare_bench_documents({}, [])

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )


class TestPerfCli:
    def _snapshot(self, tmp_path, record, stem):
        directory = tmp_path / stem
        directory.mkdir()
        return write_snapshot(record, directory)

    def test_record_compare_report_round_trip(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path / "perf"))
        snapshot_dir = tmp_path / "snap"
        snapshot_dir.mkdir()
        code = cli_main([
            "perf", "record", "--experiment", "table2",
            "--name", "smoke", "--snapshot-dir", str(snapshot_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recorded smoke" in out
        snapshot = snapshot_dir / "BENCH_smoke.json"
        assert snapshot.exists()
        record = load_snapshot(snapshot)
        assert record.name == "smoke"
        assert record.parameters["experiments"] == ["table2"]

        # Identical snapshot compares clean.
        code = cli_main([
            "perf", "compare", str(snapshot), str(snapshot),
        ])
        assert code == 0
        assert "OK" in capsys.readouterr().out

        # The ledger saw the run.
        code = cli_main(["perf", "report", "--name", "smoke"])
        assert code == 0
        assert "smoke" in capsys.readouterr().out

    def test_compare_detects_injected_drift(self, tmp_path, capsys):
        baseline = make_record("drifty")
        current = copy.deepcopy(baseline)
        current.simulated["totals"]["bytes_read"] += 1
        left = self._snapshot(tmp_path, baseline, "base")
        right = self._snapshot(tmp_path, current, "curr")
        code = cli_main(["perf", "compare", str(left), str(right)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_wall_info_flag(self, tmp_path, capsys):
        baseline = make_record("slow", wall=100.0)
        current = make_record("slow", wall=250.0)
        left = self._snapshot(tmp_path, baseline, "base")
        right = self._snapshot(tmp_path, current, "curr")
        # Wall-clock is informational: a 2.5x slowdown is reported, not
        # gated, and there is no flag left to say so.
        assert cli_main(["perf", "compare", str(left), str(right)]) == 0
        assert "[INFO] wall_ms (info)" in capsys.readouterr().out
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "perf", "compare", str(left), str(right), "--wall-info",
            ])
        assert excinfo.value.code == 2

    def test_compare_json_output(self, tmp_path, capsys):
        record = make_record("j")
        left = self._snapshot(tmp_path, record, "base")
        code = cli_main([
            "perf", "compare", str(left), str(left), "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is True

    def test_compare_missing_file_is_usage_error(self, tmp_path, capsys):
        record = make_record("m")
        left = self._snapshot(tmp_path, record, "base")
        code = cli_main([
            "perf", "compare", str(left), str(tmp_path / "absent.json"),
        ])
        assert code == 2

    def test_record_rejects_unknown_experiment(self, capsys):
        code = cli_main([
            "perf", "record", "--experiment", "not_an_experiment",
        ])
        assert code == 2

    def test_report_empty_ledger(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path / "void"))
        assert cli_main(["perf", "report"]) == 0
        assert "no runs recorded" in capsys.readouterr().out


class TestCompareScript:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, str(COMPARE_SCRIPT), *map(str, argv)],
            capture_output=True, text=True,
        )

    def _write(self, path, document):
        path.write_text(json.dumps(document))
        return path

    def test_identical_documents_exit_zero(self, tmp_path):
        document = [{"name": "t", "rows": [[1]], "meta": {"wall_ms": 5.0}}]
        left = self._write(tmp_path / "a.json", document)
        right = self._write(tmp_path / "b.json", document)
        completed = self._run(left, right)
        assert completed.returncode == 0, completed.stderr

    def test_meta_differences_are_ignored(self, tmp_path):
        left = self._write(tmp_path / "a.json", [
            {"name": "t", "rows": [[1]], "meta": {"wall_ms": 5.0}},
        ])
        right = self._write(tmp_path / "b.json", [
            {"name": "t", "rows": [[1]], "meta": {"wall_ms": 900.0}},
        ])
        assert self._run(left, right).returncode == 0

    def test_simulated_drift_exits_one(self, tmp_path):
        left = self._write(tmp_path / "a.json", [
            {"name": "t", "rows": [[1]]},
        ])
        right = self._write(tmp_path / "b.json", [
            {"name": "t", "rows": [[2]]},
        ])
        completed = self._run(left, right)
        assert completed.returncode == 1
        assert "rows" in completed.stderr

    def test_wall_gate_flag(self, tmp_path):
        left = self._write(tmp_path / "a.json", [
            {"name": "t", "rows": [[1]], "meta": {"wall_ms": 100.0}},
        ])
        right = self._write(tmp_path / "b.json", [
            {"name": "t", "rows": [[1]], "meta": {"wall_ms": 300.0}},
        ])
        # The script never gated by default; now it cannot be asked to.
        completed = self._run(left, right)
        assert completed.returncode == 0
        assert "3.00x" in completed.stdout
        assert self._run(left, right, "--wall-gate").returncode == 2

    def test_json_diff_output(self, tmp_path):
        document = [{"name": "t", "rows": [[1]]}]
        left = self._write(tmp_path / "a.json", document)
        completed = self._run(left, left, "--json")
        assert completed.returncode == 0
        assert json.loads(completed.stdout)["ok"] is True

    def test_missing_file_exits_two(self, tmp_path):
        left = self._write(tmp_path / "a.json", [])
        assert self._run(left, tmp_path / "nope.json").returncode == 2


class TestCounterOverhead:
    def test_always_on_counters_within_five_percent(self):
        """The fig6 smoke acceptance bound: the always-on counter updates
        threaded through buffer/runtime/scheduler must cost <= 5% of the
        benchmark's wall-clock.

        Measured structurally rather than by flaky A/B timing: count the
        ``add`` calls the run actually performed, measure the per-call
        cost of the shipped write path — the ``buffer_pool`` group's
        ``add``, guard lock and write barrier included — in a tight loop,
        and bound the product against the run's wall time.
        """
        from repro.bench.experiments import experiment_figure6
        from repro.data import generate_barton
        from repro.engine import buffer
        from repro.observe import counters

        dataset = generate_barton(
            n_triples=6_000, n_properties=40, n_interesting=28, seed=11
        )
        counters.reset()
        start = time.perf_counter()
        results = experiment_figure6(
            dataset, queries=("q2",), property_counts=(28,), jobs=1,
        )
        wall_seconds = time.perf_counter() - start
        assert results  # the smoke run produced output

        table = counters.snapshot()
        # One add per _account, per lowering lookup, per bench cell, per
        # morsel batch; the compression notes at most two per column
        # built or compressed read.  Overcount generously.
        adds = (
            table["buffer_pool"]["account_calls"]
            + table["lowering_cache"]["hits"]
            + table["lowering_cache"]["misses"]
            + table["scheduler"]["cells"]
            + table["parallel"]["batches"]
            + table["parallel"]["inline_batches"]
            + 2 * (table["compression"]["columns_compressed"]
                   + table["compression"]["columns_raw"]
                   + table["compression"]["compressed_reads"])
        )
        assert table["buffer_pool"]["account_calls"] > 0  # saw the run

        n = 100_000
        try:
            tick = time.perf_counter()
            for _ in range(n):
                buffer._COUNTERS.add(3, 1, 0, 1, 8192, 1)
            per_add = (time.perf_counter() - tick) / n
        finally:
            counters.reset()

        overhead = adds * per_add
        assert overhead <= 0.05 * wall_seconds, (
            f"counter overhead {overhead * 1e3:.3f}ms exceeds 5% of "
            f"{wall_seconds * 1e3:.1f}ms wall"
        )
