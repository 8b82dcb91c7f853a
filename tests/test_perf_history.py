"""Tests for the run-history ledger (repro.observe.history)."""

import json

import pytest

from repro.bench.experiments import experiment_table2
from repro.observe.history import (
    HISTORY_SCHEMA_VERSION,
    RunLedger,
    RunRecord,
    collect_counters,
    config_fingerprint,
    default_perf_dir,
    git_sha,
    load_snapshot,
    record_from_results,
    reset_counters,
    strip_meta,
    write_snapshot,
)


@pytest.fixture(scope="module")
def profile():
    from repro.core import RDFStore
    from repro.data import generate_barton

    dataset = generate_barton(
        n_triples=3_000, n_properties=30, n_interesting=20, seed=7
    )
    store = RDFStore.from_triples(
        dataset.triples, engine="column", scheme="vertical"
    )
    return store.profile("q2", mode="cold")


class TestFingerprint:
    def test_stable_across_key_order(self):
        a = config_fingerprint({"triples": 100, "seed": 1})
        b = config_fingerprint({"seed": 1, "triples": 100})
        assert a == b
        assert len(a) == 64

    def test_distinguishes_configurations(self):
        a = config_fingerprint({"triples": 100, "seed": 1})
        b = config_fingerprint({"triples": 100, "seed": 2})
        assert a != b


class TestCounters:
    def test_collect_returns_all_groups(self):
        counters = collect_counters()
        assert sorted(counters) == [
            "buffer_pool", "compression",
            "lowering_cache", "parallel", "scheduler",
        ]
        assert "hit_ratio" in counters["buffer_pool"]
        assert "compression_ratio" in counters["compression"]
        assert sorted(counters["parallel"]) == [
            "batches", "inline_batches", "morsels",
        ]

    def test_reset_zeroes_everything(self, profile):
        # The module-scoped profile fixture has run queries, so the global
        # buffer counters are non-zero before the reset.
        reset_counters()
        counters = collect_counters()
        assert counters["buffer_pool"]["page_hits"] == 0
        assert counters["buffer_pool"]["page_misses"] == 0
        assert counters["buffer_pool"]["hit_ratio"] is None
        assert counters["lowering_cache"] == {
            "hits": 0, "misses": 0, "evictions": 0,
        }
        assert counters["scheduler"]["cells"] == 0

    def test_counters_accumulate_during_runs(self, profile):
        # Running the profile fixture charged the buffer pool; a fresh
        # query against a fresh store must bump the global aggregates.
        from repro.core import RDFStore
        from repro.data import generate_barton

        reset_counters()
        dataset = generate_barton(
            n_triples=2_000, n_properties=20, n_interesting=10, seed=3
        )
        store = RDFStore.from_triples(dataset.triples, engine="column")
        store.connection().session().query("q1", mode="cold")
        counters = collect_counters()
        assert counters["buffer_pool"]["page_misses"] > 0
        assert counters["lowering_cache"]["misses"] > 0


class TestRunRecord:
    def test_round_trip(self):
        record = RunRecord(
            name="x", simulated={"a": 1}, parameters={"p": 2},
            wall_ms=12.5, counters={"buffer_pool": {}}, notes=["n"],
        )
        back = RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert back == record
        assert back.schema_version == HISTORY_SCHEMA_VERSION

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            RunRecord.from_dict({"name": "x"})
        with pytest.raises(ValueError):
            RunRecord.from_dict({"simulated": {}})

    def test_from_dict_ignores_unknown_fields(self):
        record = RunRecord.from_dict(
            {"name": "x", "simulated": {}, "future_field": True}
        )
        assert record.name == "x"


class TestStripMeta:
    def test_strips_nested_meta(self):
        document = [
            {"name": "a", "meta": {"wall_ms": 3},
             "inner": {"meta": 1, "keep": 2}},
        ]
        assert strip_meta(document) == [
            {"name": "a", "inner": {"keep": 2}},
        ]


class TestRecordBuilders:
    def test_record_from_results(self):
        results = [experiment_table2()]
        record = record_from_results(
            "table2", results, parameters={"triples": 0},
        )
        assert record.kind == "bench"
        assert record.name == "table2"
        assert record.config_fingerprint == config_fingerprint(
            {"triples": 0}
        )
        # Simulated section is meta-free and covers every result.
        assert len(record.simulated) == 1
        assert "meta" not in json.dumps(record.simulated)
        assert record.recorded_at  # ISO timestamp present

    def test_git_sha_in_repo(self):
        sha = git_sha()
        if sha is not None:
            assert len(sha) == 40

    def test_git_sha_outside_repo(self, tmp_path):
        assert git_sha(cwd=tmp_path) is None


class TestLedger:
    def _record(self, name="run", wall=10.0):
        return RunRecord(name=name, simulated={"v": 1}, wall_ms=wall)

    def test_append_and_read_back(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self._record("a"))
        ledger.append(self._record("b"))
        ledger.append(self._record("a", wall=20.0))
        assert [r.name for r in ledger.records()] == ["a", "b", "a"]
        assert [r.wall_ms for r in ledger.records(name="a")] == [10.0, 20.0]
        assert ledger.latest(name="a").wall_ms == 20.0
        assert ledger.latest(name="missing") is None

    def test_limit_keeps_most_recent(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for wall in (1.0, 2.0, 3.0):
            ledger.append(self._record(wall=wall))
        assert [r.wall_ms for r in ledger.records(limit=2)] == [2.0, 3.0]

    def test_empty_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "nowhere")
        assert ledger.records() == []
        assert ledger.latest() is None

    def test_corrupt_lines_are_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(self._record("good"))
        with open(ledger.path, "a") as handle:
            handle.write("{not json\n")
            handle.write('{"name": "no-simulated"}\n')
        ledger.append(self._record("also-good"))
        assert [r.name for r in ledger.records()] == ["good", "also-good"]

    def test_default_dir_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PERF_DIR", str(tmp_path / "perf"))
        assert default_perf_dir() == tmp_path / "perf"
        ledger = RunLedger()
        ledger.append(self._record())
        assert (tmp_path / "perf" / "history.jsonl").exists()


class TestSnapshots:
    def test_write_and_load(self, tmp_path):
        record = RunRecord(
            name="fig6_smoke", simulated={"x": [1, 2]}, wall_ms=5.0,
        )
        path = write_snapshot(record, tmp_path)
        assert path.name == "BENCH_fig6_smoke.json"
        assert load_snapshot(path) == record

    def test_snapshot_is_canonical_json(self, tmp_path):
        record = RunRecord(name="n", simulated={"b": 1, "a": 2})
        path = write_snapshot(record, tmp_path)
        text = path.read_text()
        assert text == json.dumps(
            record.to_dict(), indent=2, sort_keys=True
        ) + "\n"
