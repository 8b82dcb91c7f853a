"""Unit tests for smaller surfaces: scale-model validation, the VP SQL
generator's error paths, KV readahead, query definitions metadata."""

import pytest

from repro.colstore import ColumnStoreEngine
from repro.data import generate_barton
from repro.engine import (
    COLUMN_STORE_COSTS,
    MACHINE_A,
    MACHINE_B,
    BufferPool,
    QueryClock,
    SimulatedDisk,
)
from repro.errors import BufferPoolError, SQLError
from repro.queries.definitions import (
    ALL_QUERY_NAMES,
    BASE_QUERY_NAMES,
    QUERIES,
    coverage_table,
)
from repro.sql import generate_vertical_sql
from repro.storage import build_vertical_store


class TestScaleModel:
    def test_machine_scaled_shrinks_latency_only(self):
        scaled = MACHINE_A.scaled(0.01)
        assert scaled.request_latency == pytest.approx(
            MACHINE_A.request_latency * 0.01
        )
        assert scaled.read_bandwidth == MACHINE_A.read_bandwidth
        assert scaled.cpu_scale == MACHINE_A.cpu_scale

    def test_machine_scaled_validates(self):
        with pytest.raises(ValueError):
            MACHINE_A.scaled(0.0)
        with pytest.raises(ValueError):
            MACHINE_A.scaled(1.5)

    def test_costs_scaled_shrinks_fixed_terms_only(self):
        scaled = COLUMN_STORE_COSTS.scaled(0.1)
        assert scaled.query_overhead == pytest.approx(
            COLUMN_STORE_COSTS.query_overhead * 0.1
        )
        assert scaled.plan_operator == pytest.approx(
            COLUMN_STORE_COSTS.plan_operator * 0.1
        )
        assert scaled.plan_quadratic == pytest.approx(
            COLUMN_STORE_COSTS.plan_quadratic * 0.1
        )
        assert scaled.scan_tuple == COLUMN_STORE_COSTS.scan_tuple

    def test_costs_scaled_validates(self):
        with pytest.raises(ValueError):
            COLUMN_STORE_COSTS.scaled(2.0)

    def test_effective_bandwidth_formula(self):
        chunk = 256 * 1024
        rate = MACHINE_A.effective_bandwidth(chunk)
        expected = chunk / (
            MACHINE_A.request_latency + chunk / MACHINE_A.read_bandwidth
        )
        assert rate == pytest.approx(expected)
        # Larger chunks always read faster.
        assert MACHINE_A.effective_bandwidth(1024 * 1024) > rate

    def test_effective_bandwidth_nearly_machine_independent_when_small(self):
        small = 64 * 1024
        a = MACHINE_A.effective_bandwidth(small)
        b = MACHINE_B.effective_bandwidth(small)
        assert b / a < 1.3

    def test_with_read_bandwidth(self):
        m = MACHINE_A.with_read_bandwidth(1_000_000)
        assert m.read_bandwidth == 1_000_000
        assert m.name == MACHINE_A.name


class TestScatteredReads:
    def test_scattered_penalty_slows_transfer(self):
        def run(scattered):
            disk = SimulatedDisk(page_size=8192)
            clock = QueryClock(MACHINE_A)
            pool = BufferPool(disk, clock, 64 * 1024 * 1024)
            seg = disk.create_segment("s", 100 * 8192)
            pool.read_pages(seg, range(100), scattered=scattered)
            return clock.timing().real_seconds

        assert run(True) > run(False) * 2

    def test_scattered_and_sequential_same_bytes(self):
        disk = SimulatedDisk(page_size=8192)
        clock = QueryClock(MACHINE_A)
        pool = BufferPool(disk, clock, 64 * 1024 * 1024)
        seg = disk.create_segment("s", 10 * 8192)
        assert pool.read_pages(seg, range(10), scattered=True) == 10 * 8192

    def test_negative_penalty_rejected(self):
        clock = QueryClock(MACHINE_A)
        with pytest.raises(ValueError):
            clock.charge_io(10, 1, bandwidth_penalty=0.5)

    def test_drop_segment(self):
        disk = SimulatedDisk()
        disk.create_segment("a", 10)
        disk.drop_segment("a")
        with pytest.raises(BufferPoolError):
            disk.segment("a")
        with pytest.raises(BufferPoolError):
            disk.drop_segment("a")
        disk.create_segment("a", 10)  # name reusable


class TestQueryDefinitions:
    def test_names_orders(self):
        assert BASE_QUERY_NAMES == tuple(f"q{i}" for i in range(1, 9))
        assert len(ALL_QUERY_NAMES) == 12
        assert ALL_QUERY_NAMES.count("q2*") == 1

    def test_star_variants_marked(self):
        starred = {n for n, q in QUERIES.items() if q.has_star_variant}
        assert starred == {"q2", "q3", "q4", "q6"}

    def test_descriptions_present(self):
        for q in QUERIES.values():
            assert len(q.description) > 10

    def test_coverage_table_complete(self):
        table = coverage_table()
        assert set(table) == set(BASE_QUERY_NAMES)


class TestVerticalSQLGeneratorErrors:
    @pytest.fixture(scope="class")
    def catalog(self):
        dataset = generate_barton(n_triples=3_000, n_properties=30, seed=4)
        engine = ColumnStoreEngine()
        return build_vertical_store(
            engine, dataset.triples, dataset.interesting_properties
        )

    def test_unknown_property_table(self, catalog):
        with pytest.raises(SQLError):
            generate_vertical_sql(
                "SELECT A.subj FROM triples AS A "
                "WHERE A.prop = '<not-a-property>'",
                catalog,
            )

    def test_bound_prop_referenced_elsewhere_rejected(self, catalog):
        # A.prop is bound to a table AND used in a join: unrepresentable.
        with pytest.raises(SQLError):
            generate_vertical_sql(
                "SELECT A.subj FROM triples AS A, properties P "
                "WHERE A.prop = '<type>' AND P.prop = A.prop",
                catalog,
            )

    def test_non_triples_tables_pass_through(self, catalog):
        table = catalog.property_table("<type>")
        sql = generate_vertical_sql(
            f"SELECT X.subj FROM {table} AS X", catalog
        )
        assert table in sql

    def test_single_property_list_produces_plain_select(self, catalog):
        sql = generate_vertical_sql(
            "SELECT A.prop, count(*) FROM triples AS A GROUP BY A.prop",
            catalog,
            properties=["<type>"],
        )
        assert "UNION" not in sql.upper()


class TestKVReadahead:
    def test_sequential_cursor_cheaper_than_random_probes(self):
        from repro.cstore.kvstore import OrderedKV

        def build():
            disk = SimulatedDisk(page_size=8192)
            clock = QueryClock(MACHINE_A)
            pool = BufferPool(
                disk, clock, 64 * 1024 * 1024,
                max_run_bytes=256 * 1024, sequential_coalescing=False,
            )
            kv = OrderedKV(
                "t", [((i, i), 0) for i in range(200_000)],
                disk, pool, clock, 1e-7, order=1500,
            )
            return kv, clock, pool

        kv, clock, pool = build()
        clock.reset()
        list(kv.cursor())
        sequential = clock.timing()

        kv, clock, pool = build()
        clock.reset()
        for key in range(0, 200_000, 40_000):  # 5 scattered point probes
            kv.get((key, key))
        probes = clock.timing()
        # Probes read far fewer bytes but pay a request per touch.
        assert probes.bytes_read < sequential.bytes_read / 2
        assert probes.io_requests >= 5
