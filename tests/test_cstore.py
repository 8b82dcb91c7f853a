"""Tests for the C-Store replica: correctness vs the reference evaluator,
hardwired limitations, and its latency-bound I/O behaviour."""

import pytest

from repro.cstore import CStoreEngine, CSTORE_QUERIES
from repro.cstore.kvstore import KVCatalog, OrderedKV
from repro.data import generate_barton
from repro.engine import MACHINE_A, MACHINE_B, BufferPool, QueryClock, SimulatedDisk
from repro.errors import StorageError, UnsupportedOperationError
from repro.queries import reference_answer


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=6_000, n_properties=40, seed=11)


@pytest.fixture(scope="module")
def engine(dataset):
    return CStoreEngine().load_vertical(
        dataset.triples, dataset.interesting_properties
    )


class TestOrderedKV:
    def make_kv(self, keys):
        disk = SimulatedDisk()
        clock = QueryClock(MACHINE_A)
        pool = BufferPool(disk, clock, 64 * 1024 * 1024)
        return OrderedKV("t", keys, disk, pool, clock, 1e-7), clock

    def test_get_and_prefix(self):
        kv, _ = self.make_kv([(1, 10), (1, 11), (2, 10)])
        assert kv.get((1, 10)) == [0]
        assert kv.get((9, 9)) == []
        assert [k for k, _ in kv.prefix((1,))] == [(1, 10), (1, 11)]

    def test_cursor_sorted(self):
        """The cursor yields the sorted keys it was built from, repeats
        included, each with the value 0."""
        keys = [(1, 2), (1, 5), (1, 5), (2, 1)]
        kv, _ = self.make_kv(keys)
        assert list(kv.cursor()) == [(k, 0) for k in keys]
        assert len(kv) == 4

    def test_access_charges_io(self):
        kv, clock = self.make_kv([(i, i) for i in range(5000)])
        clock.reset()
        list(kv.cursor())
        assert clock.bytes_read() > 0

    def test_catalog(self):
        catalog = KVCatalog()
        kv, _ = self.make_kv([(1, 1)])
        catalog.add("a", kv)
        assert "a" in catalog
        assert catalog.get("a") is kv
        with pytest.raises(StorageError):
            catalog.add("a", kv)
        with pytest.raises(StorageError):
            catalog.get("missing")


class TestHardwiredQueries:
    @pytest.mark.parametrize("query_name", CSTORE_QUERIES)
    def test_matches_reference(self, dataset, engine, query_name):
        relation, timing = engine.run(query_name)
        got = sorted(
            relation.decoded_tuples(engine.dictionary)
        )
        expected = reference_answer(
            dataset.graph(), query_name, dataset.interesting_properties
        )
        assert got == expected
        assert timing.real_seconds > 0

    def test_q8_unsupported(self, engine):
        """The paper could not extend the artifact with q8; neither can we."""
        with pytest.raises(UnsupportedOperationError):
            engine.run("q8")

    def test_star_variants_unsupported(self, engine):
        with pytest.raises(UnsupportedOperationError):
            engine.run("q2*")

    def test_no_ddl(self, engine):
        with pytest.raises(UnsupportedOperationError):
            engine.create_table("triples", {})

    def test_must_load_before_running(self):
        with pytest.raises(StorageError):
            CStoreEngine().run("q1")

    def test_cannot_load_twice(self, dataset, engine):
        with pytest.raises(StorageError):
            engine.load_vertical(
                dataset.triples, dataset.interesting_properties
            )

    def test_only_28_properties_loaded(self, dataset, engine):
        assert len(engine.catalog.names()) == 28


class TestCStoreIOBehaviour:
    def test_latency_bound_io(self, dataset):
        """Cold-run speed barely improves on a machine with ~4x the disk
        bandwidth (Table 4's machines A vs B finding)."""
        times = {}
        for machine in (MACHINE_A, MACHINE_B):
            engine = CStoreEngine(machine=machine).load_vertical(
                dataset.triples, dataset.interesting_properties
            )
            engine.make_cold()
            _, timing = engine.run("q3")
            times[machine.name] = timing
        bandwidth_ratio = (
            MACHINE_B.read_bandwidth / MACHINE_A.read_bandwidth
        )
        io_speedup = (
            times["A"].real_seconds / times["B"].real_seconds
        )
        assert io_speedup < bandwidth_ratio / 2

    def test_user_times_similar_across_machines(self, dataset):
        times = {}
        for machine in (MACHINE_A, MACHINE_B):
            engine = CStoreEngine(machine=machine).load_vertical(
                dataset.triples, dataset.interesting_properties
            )
            engine.make_cold()
            _, timing = engine.run("q5")
            times[machine.name] = timing
        # Slightly *higher* user time on B (paper, Section 3).
        assert times["B"].user_seconds > times["A"].user_seconds
        assert times["B"].user_seconds < times["A"].user_seconds * 1.2

    def test_hot_runs_faster(self, engine):
        engine.make_cold()
        _, cold = engine.run("q3")
        _, hot = engine.run("q3")
        assert hot.real_seconds < cold.real_seconds
        assert hot.bytes_read == 0

    def test_io_history_is_figure5_shaped(self, engine):
        engine.make_cold()
        engine.run("q3")
        history = engine.io_history()
        assert len(history) > 2
        times = [t for t, _ in history]
        sizes = [b for _, b in history]
        assert times == sorted(times)
        assert sizes[-1] > 0

    def test_queries_read_different_amounts(self, dataset, engine):
        """Table 5: per-query data volumes differ; q1 reads the least of
        the group-scan queries."""
        reads = {}
        for q in ("q1", "q2", "q5"):
            engine.make_cold()
            _, timing = engine.run(q)
            reads[q] = timing.bytes_read
        assert reads["q1"] < reads["q2"]
        assert reads["q1"] < reads["q5"]
