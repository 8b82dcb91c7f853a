"""Compressed-execution parity: same rows, controlled costs.

Compression keeps rows identical while simulated costs drop on
scan-heavy queries — compressed byte ranges and run-skipping are the
paper's operate-on-compressed argument, measured.
"""

import pytest

from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.queries import ALL_QUERY_NAMES, build_query
from repro.storage import build_triple_store, build_vertical_store

SCHEMES = ("vertical", "triple")


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(
        n_triples=6000, n_properties=60, n_interesting=28, seed=42
    )


def _build(dataset, scheme, compression):
    engine = ColumnStoreEngine(compression=compression)
    if scheme == "vertical":
        catalog = build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties
        )
    else:
        catalog = build_triple_store(
            engine, dataset.triples, dataset.interesting_properties,
            clustering="PSO",
        )
    return engine, catalog


def _sweep(dataset, scheme, compression):
    """rows + exact timing fields for every Barton query, cold and hot."""
    engine, catalog = _build(dataset, scheme, compression)
    out = {}
    for query in ALL_QUERY_NAMES:
        plan = build_query(catalog, query)
        for mode in ("cold", "hot"):
            if mode == "cold":
                engine.make_cold()
            else:
                engine.run(plan)  # warm-up
            relation, timing = engine.run(plan)
            rows = sorted(relation.decoded_tuples(
                catalog.dictionary, order=plan.output_columns()
            ))
            out[(query, mode)] = (rows, {
                "real_seconds": timing.real_seconds,
                "user_seconds": timing.user_seconds,
                "seek_seconds": timing.seek_seconds,
                "transfer_seconds": timing.transfer_seconds,
                "bytes_read": timing.bytes_read,
                "io_requests": timing.io_requests,
            })
    return out


@pytest.fixture(scope="module")
def sweeps(dataset):
    return {
        (scheme, compression): _sweep(dataset, scheme, compression)
        for scheme in SCHEMES
        for compression in (None, "physical")
    }


class TestPhysicalMode:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rows_identical(self, sweeps, scheme):
        raw = sweeps[(scheme, None)]
        physical = sweeps[(scheme, "physical")]
        for key in raw:
            assert physical[key][0] == raw[key][0], (scheme, key)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_never_reads_more_bytes(self, sweeps, scheme):
        raw = sweeps[(scheme, None)]
        physical = sweeps[(scheme, "physical")]
        for key in raw:
            assert (physical[key][1]["bytes_read"]
                    <= raw[key][1]["bytes_read"]), (scheme, key)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_scan_heavy_queries_get_cheaper(self, sweeps, scheme):
        """At least one query's simulated cost strictly drops (in fact,
        on this dataset every cold query does — run-skipping and smaller
        transfers beat the raw path across the board)."""
        raw = sweeps[(scheme, None)]
        physical = sweeps[(scheme, "physical")]
        cheaper = [
            key for key in raw
            if physical[key][1]["real_seconds"] < raw[key][1]["real_seconds"]
        ]
        assert cheaper, scheme
        cold = [k for k in raw if k[1] == "cold"]
        assert all(
            physical[key][1]["real_seconds"] <= raw[key][1]["real_seconds"]
            for key in cold
        ), scheme


class TestFootprint:
    def test_vertical_columns_compress_10x(self, dataset):
        engine, _ = _build(dataset, "vertical", "physical")
        report = engine.compression_report()
        assert report["mode"] == "physical"
        assert report["compression_ratio"] >= 10.0, report
        assert report["compressed_bytes"] < report["logical_bytes"]

    def test_triple_store_compresses_5x(self, dataset):
        engine, _ = _build(dataset, "triple", "physical")
        report = engine.compression_report()
        assert report["compression_ratio"] >= 5.0, report
        # PSO clustering makes the leading prop column pure runs.
        assert report["columns_by_codec"].get("rle", 0) >= 1

    def test_disabled_engine_has_no_report(self, dataset):
        engine, _ = _build(dataset, "vertical", None)
        assert engine.compression_report() is None
        assert engine.compression_mode is None


class TestCompressedKernels:
    """Plan shapes that lower to the operate-on-compressed kernels."""

    @pytest.fixture(scope="class")
    def connections(self, dataset):
        import repro.api as api

        triples = [(t.s, t.p, t.o) for t in dataset.triples]
        return {
            compression: api.connect(
                triples=triples, engine="column", scheme="triple",
                clustering="PSO",
                engine_options={"compression": compression},
            )
            for compression in (None, "physical")
        }

    GROUP_SQL = "SELECT prop, COUNT(*) AS n FROM triples GROUP BY prop"
    JOIN_SQL = ("SELECT P.prop, T.subj FROM properties P, triples T "
                "WHERE P.prop = T.prop")

    def test_group_count_lowers_to_compressed_group(self, connections):
        plain = connections[None].session().explain(
            self.GROUP_SQL, physical=True
        )
        compressed = connections["physical"].session().explain(
            self.GROUP_SQL, physical=True
        )
        assert "compressed-group" not in plain
        assert "compressed-group" in compressed

    def test_join_on_rle_scan_lowers_to_compressed_join(self, connections):
        compressed = connections["physical"].session().explain(
            self.JOIN_SQL, physical=True
        )
        assert "compressed-join" in compressed

    @pytest.mark.parametrize("sql", [GROUP_SQL, JOIN_SQL])
    def test_kernel_results_match_uncompressed(self, connections, sql):
        raw = connections[None].query(sql, mode="cold")
        compressed = connections["physical"].query(sql, mode="cold")
        assert sorted(compressed.rows) == sorted(raw.rows)
        assert compressed.cost.bytes_read < raw.cost.bytes_read

    def test_group_kernel_is_cheaper(self, connections):
        raw = connections[None].query(self.GROUP_SQL, mode="cold")
        compressed = connections["physical"].query(self.GROUP_SQL,
                                                   mode="cold")
        assert (compressed.cost.real_seconds
                < raw.cost.real_seconds)


class TestObservability:
    def test_profile_carries_compression_metrics(self, dataset):
        import repro.api as api

        triples = [(t.s, t.p, t.o) for t in dataset.triples]
        conn = api.connect(
            triples=triples, engine="column", scheme="vertical",
            engine_options={"compression": "physical"},
        )
        profile = conn.session().profile("q1")
        document = profile.to_dict()
        compression = document["compression"]
        assert compression["mode"] == "physical"
        assert compression["compression_ratio"] > 1.0
        assert compression["bytes_scanned"] > 0
        assert "compression" in profile.render()

    def test_uncompressed_profile_has_no_compression_section(self, dataset):
        import repro.api as api

        triples = [(t.s, t.p, t.o) for t in dataset.triples]
        conn = api.connect(triples=triples, engine="column",
                           scheme="vertical")
        profile = conn.session().profile("q1")
        assert profile.to_dict()["compression"] is None

    def test_perf_counters_include_compression(self):
        from repro.observe.history import collect_counters

        counters = collect_counters()
        assert "compression" in counters
        assert "compression_ratio" in counters["compression"]

    def test_catalog_records_compression_mode(self, dataset):
        engine, catalog = _build(dataset, "vertical", "physical")
        # the catalog field is populated on the payload path used by the
        # benchmark deployments
        from repro.bench.systems import deploy

        deployment = deploy(dataset, "MonetDB", "vert",
                            compression="physical", cache=False)
        assert deployment.engine.compression_mode == "physical"
