"""Tests for the prepared store payloads a benchmark sweep reuses.

``deploy`` prepares each physical design of a dataset once per process
and builds every later store of that design from the same payload
(:func:`repro.bench.systems.prepared_payload`); ``cache=False`` prepares
afresh.  A reused payload must deploy a store equal to a fresh one, in
rows and in simulated timings, however the stores built from it were
used.
"""

import pytest

from repro.bench.experiments import _figure7_split
from repro.bench import systems
from repro.bench.systems import deploy, prepared_payload
from repro.data import generate_barton
from repro.model.triple import Triple
from repro.queries import build_query
from repro.storage import insert_triples

GRID = [("MonetDB", "triple"), ("MonetDB", "vert"), ("DBX", "triple")]


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=6_000, n_properties=40, seed=11)


def _run_queries(deployment, queries=("q1", "q2", "q5")):
    """Simulated timings of a few benchmark queries."""
    timings = {}
    for query in queries:
        _, timing = deployment.run(query, "cold")
        timings[query] = (timing.real_seconds, timing.bytes_read)
    return timings


def _rows(deployment, queries=("q1", "q2", "q7")):
    """Every result column of a few benchmark queries, in order."""
    out = {}
    for query in queries:
        relation, _ = deployment.engine.run(
            build_query(deployment.catalog, query)
        )
        out[query] = [
            (name, values.tolist()) for name, values in relation.columns.items()
        ]
    return out


def _tables(deployment):
    """Every stored column of every table, as lists."""
    engine = deployment.engine
    return {
        name: {
            column: engine.table(name).array(column).tolist()
            for column in engine.table(name).column_names()
        }
        for name in engine.table_names()
    }


def _payload(dataset, scheme, clustering="PSO", cache=True):
    return prepared_payload(dataset, scheme, clustering, False, cache=cache)


class TestCacheBasics:
    def test_miss_then_hit(self, dataset, monkeypatch):
        calls = []
        prepare = systems.prepare_vertical_payload

        def counted(*args, **kwargs):
            calls.append(1)
            return prepare(*args, **kwargs)

        monkeypatch.setattr(systems, "prepare_vertical_payload", counted)
        base_count = len({t.p for t in dataset.triples})
        split = _figure7_split(dataset, base_count + 2, base_count, seed=0)
        deploy(split, "MonetDB", "vert")
        deploy(split, "MonetDB", "vert")
        assert len(calls) == 1
        deploy(split, "MonetDB", "vert", cache=False)
        assert len(calls) == 2

    def test_eviction_prunes_oldest(self, dataset):
        first = _payload(dataset, "triple", "OSP")
        for clustering in ("SPO", "SOP", "PSO", "POS", "OPS"):
            _payload(dataset, "triple", clustering)
        assert _payload(dataset, "triple", "OSP") is first  # refreshed
        for seed in range(systems.PAYLOAD_MEMO_SIZE):
            _payload(generate_barton(n_triples=1_000, seed=seed), "vertical")
        assert _payload(dataset, "triple", "OSP") is not first


class TestHitIdentity:
    @pytest.mark.parametrize("system,scheme", GRID)
    def test_cached_store_matches_fresh_build(self, dataset, system, scheme):
        fresh = deploy(dataset, system, scheme, "PSO", cache=False)
        cached = deploy(dataset, system, scheme, "PSO")
        warm = deploy(dataset, system, scheme, "PSO")

        fresh_timings = _run_queries(fresh)
        assert _run_queries(cached) == fresh_timings
        # The decisive property: a reused payload yields identical
        # *simulated* timings, not just identical result rows.
        assert _run_queries(warm) == fresh_timings

    def test_cached_store_rows_match(self, dataset):
        fresh = deploy(dataset, "MonetDB", "vert", cache=False)
        warm = deploy(dataset, "MonetDB", "vert")
        assert _rows(warm) == _rows(fresh)

    def test_a_fresh_deploy_prepares_afresh(self, dataset):
        reused = _payload(dataset, "vertical", "SO")
        assert _payload(dataset, "vertical", "SO") is reused
        assert _payload(dataset, "vertical", "SO", cache=False) is not reused


class TestKeyInvalidation:
    def test_n_triples_changes_key(self):
        base = generate_barton(n_triples=2_000, seed=3)
        other = generate_barton(n_triples=2_001, seed=3)
        one, two = _payload(base, "triple"), _payload(other, "triple")
        assert one is not two
        assert len(two["tables"][0]["columns"]["subj"]) == len(other.triples)

    def test_seed_changes_key(self):
        base = generate_barton(n_triples=2_000, seed=3)
        other = generate_barton(n_triples=2_000, seed=4)
        one, two = _payload(base, "triple"), _payload(other, "triple")
        assert one is not two
        assert two["strings"] == _payload(other, "triple", cache=False)[
            "strings"
        ]

    def test_store_key_varies_with_physical_design(self, dataset):
        payloads = [
            _payload(dataset, "triple", "PSO"),
            _payload(dataset, "triple", "SPO"),
            _payload(dataset, "vertical", "SO"),
        ]
        assert len({id(p) for p in payloads}) == 3
        # Each design hits its own entry the second time.
        assert _payload(dataset, "triple", "SPO") is payloads[1]
        assert _payload(dataset, "vertical", "SO") is payloads[2]

    def test_figure7_split_never_receives_the_base_payload(self, dataset):
        base_count = len({t.p for t in dataset.triples})
        base = deploy(dataset, "MonetDB", "vert")
        split = _figure7_split(dataset, base_count + 6, base_count, seed=0)
        assert len(split.triples) == len(dataset.triples)
        assert split.triples != dataset.triples
        assert _figure7_split(dataset, base_count, base_count, 0) is dataset

        memo = deploy(split, "MonetDB", "vert")
        fresh = deploy(split, "MonetDB", "vert", cache=False)
        assert _payload(split, "vertical", "SO") is not _payload(
            dataset, "vertical", "SO"
        )
        assert len(memo.catalog.property_tables) == base_count + 6
        assert len(base.catalog.property_tables) == base_count
        assert _run_queries(memo) == _run_queries(fresh)
        assert _rows(memo) == _rows(fresh)


class TestNothingShared:
    @pytest.mark.parametrize("system,scheme", GRID)
    def test_insert_into_a_reused_store_leaves_the_payload(
        self, dataset, system, scheme
    ):
        first = deploy(dataset, system, scheme)
        subject = "<memo/inserted>"
        catalog, report = insert_triples(first.engine, first.catalog, [
            Triple(subject, "<type>", "<Text>"),
            Triple(subject, dataset.interesting_properties[1], "<memo/o>"),
            Triple(subject, "<memo/new-property>", "<memo/o>"),
        ])
        assert report.tables_rebuilt
        first.catalog = catalog
        assert _rows(first) != _rows(deploy(dataset, system, scheme,
                                            cache=False))

        again = deploy(dataset, system, scheme)
        fresh = deploy(dataset, system, scheme, cache=False)
        assert "<memo/new-property>" not in again.catalog.all_properties
        assert again.catalog.dictionary.lookup_or_none(subject) is None
        assert _rows(again) == _rows(fresh)
        assert _run_queries(again) == _run_queries(fresh)
        assert _tables(again) == _tables(fresh)
