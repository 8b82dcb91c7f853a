"""EXPLAIN ANALYZE profiler: attribution invariants, schema, CLI."""

import json

import pytest

from repro.core import RDFStore
from repro.data import generate_barton
from repro.observe import (
    NULL_TRACER,
    PROFILE_SCHEMA_VERSION,
    counters,
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
        assert column_store.engine.tracer is NULL_TRACER
        assert column_store.engine.pool.tracer is NULL_TRACER


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
        """What the version-1 ``metrics`` section said — per-segment page
        misses and disk requests — is in the document once: the segment
        log and the span counts."""
        document = column_store.profile("q2", mode="cold").to_dict()
        assert "metrics" not in document
        segments = document["segments"].values()
        assert segments and all(s["bytes"] > 0 for s in segments)

        def spans(span):
            yield span
            for child in span["children"]:
                yield from spans(child)

        counts = [s["counts"] for s in spans(document["plan"])]
        assert sum(c.get("page_misses", 0) for c in counts) > 0
        assert sum(c.get("disk_requests", 0) for c in counts) == sum(
            s["requests"] for s in segments
        ) == document["totals"]["io_requests"]

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

# ---------------------------------------------------------------------------
# one sink per scope: the span tree is the whole per-query record
# ---------------------------------------------------------------------------

#: label -> RDFStore options; every engine x scheme the counts flow through.
SINK_CELLS = {
    "column/vertical": {"engine": "column", "scheme": "vertical"},
    "column/triple": {"engine": "column", "scheme": "triple"},
    "column/vertical-physical": {
        "engine": "column", "scheme": "vertical",
        "engine_options": {"compression": "physical"},
    },
    "row/vertical": {"engine": "row", "scheme": "vertical"},
}

POOL_COUNTS = ("page_hits", "page_misses", "disk_requests", "evictions")
COMPRESSION_COUNTS = ("bytes_scanned", "logical_bytes_scanned", "runs_skipped")


@pytest.fixture(scope="module")
def sink_stores(dataset):
    return {
        label: RDFStore.from_triples(dataset.triples, **options)
        for label, options in SINK_CELLS.items()
    }


def _count_btree_visits(engine):
    """Wrap every B+tree's ``on_access`` hook with a call counter (a
    one-slot list); engines without indexes get a counter that stays 0."""
    calls = [0]
    for name in engine.table_names():
        table = engine.table(name)
        for index in getattr(table, "all_indexes", lambda: ())():
            def counted(page, on_access=index.tree.on_access):
                calls[0] += 1
                on_access(page)
            index.tree.on_access = counted
    return calls


def _profile_measured(store, query, mode, visits):
    """Profile *query* and return ``(profile, before, after)`` where the
    two marks bracket exactly the measured run: *before* is taken when
    the protocol's preparation (pool clear / warm-up) has finished."""
    engine = store.engine

    def mark():
        return {
            "pool": engine.pool.stats(),
            "compression": counters.snapshot("compression"),
            "visits": visits[0],
        }

    before = {}
    prepare = engine.prepare

    def prepare_then_mark(plan, mode):
        prepare(plan, mode)
        before.update(mark())

    engine.prepare = prepare_then_mark  # shadows the method
    try:
        profile = store.profile(query, mode)
    finally:
        del engine.prepare
    return profile, before, mark()


class TestOneSink:
    @pytest.mark.parametrize("mode", ["cold", "hot"])
    @pytest.mark.parametrize("label", sorted(SINK_CELLS))
    def test_span_counts_are_the_whole_per_query_record(
        self, sink_stores, label, mode
    ):
        store = sink_stores[label]
        visits = _count_btree_visits(store.engine)
        session = store.connection().session()
        for query in ("q1", "q2", "q5"):
            profile, before, after = _profile_measured(
                store, query, mode, visits
            )
            for key in POOL_COUNTS:
                assert profile.count_total(key) == (
                    after["pool"][key] - before["pool"][key]
                ), (query, key)
            assert profile.count_total("disk_requests") == \
                profile.timing.io_requests
            assert profile.count_total("btree_node_visits") == (
                after["visits"] - before["visits"]
            )
            document = profile.to_dict()
            validate_profile(document)
            assert "metrics" not in document
            if "physical" in label:
                for key in COMPRESSION_COUNTS:
                    assert document["compression"][key] == (
                        after["compression"][key]
                        - before["compression"][key]
                    ), (query, key)
            else:
                assert document["compression"] is None
                for key in COMPRESSION_COUNTS:
                    assert profile.count_total(key) == 0

            # Profiling only ever reads the execution.
            result = session.query(query, mode=mode)
            assert result.cost.to_dict() == profile.timing.to_dict()
            assert result.rows == profile.relation.decoded_tuples(
                store.catalog.dictionary, order=result.columns
            )

    def test_every_count_kind_is_exercised(self, dataset, sink_stores):
        """The sums above are not 0 == 0: compressed reads happen on the
        physical store, node visits on the row store, and run skips
        where a kernel works straight off RLE runs."""
        physical = sink_stores["column/vertical-physical"].profile("q1")
        assert 0 < physical.compression["bytes_scanned"] < \
            physical.compression["logical_bytes_scanned"]
        row = sink_stores["row/vertical"].profile("q5")
        assert row.count_total("btree_node_visits") > 0

        store = RDFStore.from_triples(
            dataset.triples, engine="column", scheme="triple",
            engine_options={"compression": "physical"},
        )
        profile, before, after = _profile_measured(
            store, "SELECT prop, COUNT(*) AS n FROM triples GROUP BY prop",
            "cold", [0],
        )
        assert "compressed-group" in profile.render()
        assert profile.compression["runs_skipped"] > 0
        for key in COMPRESSION_COUNTS:
            assert profile.compression[key] == (
                after["compression"][key] - before["compression"][key]
            )

    @pytest.mark.parametrize("engine", ["column", "row"])
    def test_tight_pool_reports_evictions_on_the_span_that_caused_them(
        self, dataset, sink_stores, engine
    ):
        roomy = sink_stores[f"{engine}/vertical"]
        store = RDFStore.from_triples(
            dataset.triples, engine=engine, engine_options={
                "buffer_bytes": roomy.database_bytes() // 4,
            },
        )
        before = store.engine.pool.stats()["evictions"]
        profile = store.profile("q8", "cold")
        evicted = store.engine.pool.stats()["evictions"] - before
        assert evicted > 0
        assert profile.count_total("evictions") == evicted
        for span in profile.root.walk():
            # Only a span that read pages can have evicted any.
            if "evictions" in span.counts:
                assert span.counts["evictions"] > 0
                assert span.counts["page_misses"] > 0
        # Same rows and same simulated cost as the unprofiled run.
        result = store.connection().session().query("q8", mode="cold")
        assert result.cost.to_dict() == profile.timing.to_dict()


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
