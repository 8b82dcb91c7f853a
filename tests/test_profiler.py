"""EXPLAIN ANALYZE profiler: attribution invariants, schema, CLI."""

import json

import pytest

from repro.core import RDFStore
from repro.data import generate_barton
from repro.observe import (
    NULL_OBSERVATION,
    PROFILE_SCHEMA_VERSION,
    validate_profile,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(
        n_triples=3_000, n_properties=60, n_interesting=28, seed=42
    )


@pytest.fixture(scope="module")
def column_store(dataset):
    return RDFStore.from_triples(dataset.triples, engine="column")


@pytest.fixture(scope="module")
def row_store(dataset):
    return RDFStore.from_triples(dataset.triples, engine="row")


def _without_wall(document):
    """*document* minus every wall-clock field (the only part of a
    profile that differs between two runs of the same store state)."""
    if isinstance(document, dict):
        return {
            key: _without_wall(value) for key, value in document.items()
            if "wall" not in key
        }
    if isinstance(document, list):
        return [_without_wall(value) for value in document]
    return document


class TestAttribution:
    @pytest.mark.parametrize("mode", ["cold", "hot"])
    def test_span_self_times_sum_to_total_charge_column(
        self, column_store, mode
    ):
        profile = column_store.profile("q2", mode=mode)
        assert profile.total_span_seconds() == pytest.approx(
            profile.timing.real_seconds, abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["cold", "hot"])
    def test_span_self_times_sum_to_total_charge_row(self, row_store, mode):
        profile = row_store.profile("q2", mode=mode)
        assert profile.total_span_seconds() == pytest.approx(
            profile.timing.real_seconds, abs=1e-12
        )

    def test_bytes_and_requests_attributed(self, column_store):
        profile = column_store.profile("q2", mode="cold")
        inclusive = profile.root.inclusive()
        from repro.observe.trace import BYTES, REQUESTS

        assert inclusive[BYTES] == profile.timing.bytes_read
        assert inclusive[REQUESTS] == profile.timing.io_requests
        assert profile.timing.bytes_read > 0

    def test_hot_run_reads_less_than_cold(self, column_store):
        cold = column_store.profile("q2", mode="cold")
        hot = column_store.profile("q2", mode="hot")
        assert hot.timing.bytes_read < cold.timing.bytes_read

    def test_per_operator_rows_recorded(self, column_store):
        profile = column_store.profile("q2", mode="cold")
        spans = profile.operator_spans()
        assert any(s.rows is not None and s.rows > 0 for s in spans)
        # The root knows the final result cardinality.
        assert profile.root.rows == profile.n_rows

    def test_estimates_and_misestimate_ratio(self, column_store):
        profile = column_store.profile("q2", mode="cold")
        measured = [
            s for s in profile.operator_spans()
            if s.estimated_rows is not None and s.rows is not None
        ]
        assert measured
        for span in measured:
            assert span.misestimate_ratio() >= 1.0

    def test_seek_transfer_decomposition(self, column_store):
        profile = column_store.profile("q2", mode="cold")
        t = profile.timing
        io = t.real_seconds - t.user_seconds
        assert t.seek_seconds + t.transfer_seconds == pytest.approx(io)
        categories = profile.categories
        assert categories["io.seek"] == pytest.approx(t.seek_seconds)
        assert categories["io.transfer"] == pytest.approx(t.transfer_seconds)

    def test_categories_sum_to_real_time(self, column_store):
        profile = column_store.profile("q2", mode="cold")
        assert sum(profile.categories.values()) == pytest.approx(
            profile.timing.real_seconds
        )


class TestIsolation:
    def test_results_identical_with_observability(self, dataset):
        plain = RDFStore.from_triples(dataset.triples, engine="column")
        rows_plain = plain.connection().session().query(
            "q2", mode="cold"
        ).rows

        observed = RDFStore.from_triples(dataset.triples, engine="column")
        profile = observed.profile("q2", mode="cold")
        rows_observed = profile.relation.decoded_tuples(
            observed.catalog.dictionary,
            order=profile.plan.output_columns(),
        )
        assert sorted(rows_plain) == sorted(rows_observed)

    def test_timings_identical_with_observability(self, dataset):
        plain = RDFStore.from_triples(dataset.triples, engine="row")
        timing_plain = plain.connection().session().query(
            "q2", mode="cold"
        ).cost

        observed = RDFStore.from_triples(dataset.triples, engine="row")
        profile = observed.profile("q2", mode="cold")
        assert profile.timing.real_seconds == pytest.approx(
            timing_plain.real_seconds
        )
        assert profile.timing.bytes_read == timing_plain.bytes_read

    @pytest.mark.parametrize("engine", ["column", "row"])
    @pytest.mark.parametrize("mode", ["cold", "hot"])
    def test_store_profile_is_the_session_profile(
        self, column_store, row_store, engine, mode
    ):
        """``RDFStore.profile`` is a delegation: same document (the wall
        clock aside) as the session's, which runs under the connection's
        execution lock."""
        store = column_store if engine == "column" else row_store
        via_store = store.profile("q2", mode)
        via_session = store.connection().session().profile("q2", mode)
        assert json.dumps(_without_wall(via_store.to_dict())) == \
            json.dumps(_without_wall(via_session.to_dict()))

    def test_store_profile_and_explain_take_the_execution_lock(
        self, column_store
    ):
        """Neither may touch the shared engine while another session's
        query holds the connection's execution lock."""
        import threading

        from repro import Var

        connection = column_store.connection()
        calls = {
            "profile": lambda: column_store.profile("q1", "cold"),
            "explain-bgp": lambda: column_store.explain(
                [(Var("s"), "<type>", Var("o"))], physical=True
            ),
        }
        for name, call in calls.items():
            finished = threading.Event()
            worker = threading.Thread(
                target=lambda: (call(), finished.set()), daemon=True
            )
            with connection._exec_lock:
                worker.start()
                assert not finished.wait(0.2), name
            assert finished.wait(30), name

    def test_observation_uninstalled_after_profile(self, column_store):
        column_store.profile("q2", mode="cold")
        assert column_store.engine.observe is NULL_OBSERVATION
        assert column_store.engine.pool.observe is NULL_OBSERVATION


class TestExport:
    def test_json_document_validates(self, column_store):
        profile = column_store.profile("q2", mode="cold")
        document = json.loads(profile.to_json())
        assert validate_profile(document) is document
        assert document["schema_version"] == PROFILE_SCHEMA_VERSION
        assert document["engine"] == "column-store"
        assert document["totals"]["n_rows"] == profile.n_rows

    def test_json_document_validates_row(self, row_store):
        document = json.loads(row_store.profile("q2", mode="cold").to_json())
        validate_profile(document)
        assert document["engine"] == "row-store"

    def test_validate_rejects_missing_totals(self, column_store):
        document = column_store.profile("q1").to_dict()
        del document["totals"]["bytes_read"]
        with pytest.raises(ValueError, match="bytes_read"):
            validate_profile(document)

    def test_validate_rejects_bad_version(self, column_store):
        document = column_store.profile("q1").to_dict()
        document["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            validate_profile(document)

    def test_render_text_shape(self, column_store):
        text = column_store.profile("q2", mode="cold").render()
        assert "EXPLAIN ANALYZE q2" in text
        assert "rows=" in text
        assert "est=" in text
        assert "by category:" in text

    def test_metrics_present_in_document(self, column_store):
        document = column_store.profile("q2", mode="cold").to_dict()
        counters = document["metrics"]["counters"]
        assert any(k.startswith("buffer.page_misses") for k in counters)
        assert any(k.startswith("disk.requests") for k in counters)

    def test_sql_and_sparql_queries_profilable(self, column_store):
        sparql = (
            "SELECT ?s WHERE { ?s <type> <Text> }"
        )
        profile = column_store.profile(sparql, mode="hot")
        assert profile.total_span_seconds() == pytest.approx(
            profile.timing.real_seconds, abs=1e-12
        )

    def test_unknown_mode_rejected(self, column_store):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            column_store.profile("q1", mode="lukewarm")


class TestCli:
    def test_profile_text(self, capsys):
        from repro.cli import main

        code = main(["profile", "q2", "--triples", "3000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE q2" in out
        assert "rows=" in out

    def test_profile_json(self, capsys):
        from repro.cli import main

        code = main(
            ["profile", "q2", "--triples", "3000", "--engine", "row",
             "--mode", "hot", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        validate_profile(document)
        assert document["mode"] == "hot"


class TestExperimentResultJson:
    def test_to_dict_is_json_safe(self):
        import numpy as np

        from repro.bench.experiments import ExperimentResult

        result = ExperimentResult(
            name="t",
            title="T",
            headers=["a", "b"],
            rows=[[np.int64(3), 1.5], ["x", None]],
            series={"s": [np.float64(2.0)]},
            x_values=[1],
            x_label="n",
        )
        document = result.to_dict()
        json.dumps(document)  # must not raise
        assert document["rows"][0][0] == 3
        assert isinstance(document["rows"][0][0], int)
        assert document["series"]["s"] == [2.0]
