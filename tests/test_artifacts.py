"""Tests for the content-addressed benchmark artifact cache."""

import pickle

import pytest

from repro.bench.artifacts import (
    ArtifactCache,
    cached_dataset,
    cached_store_payload,
    dataset_cache_key,
)
from repro.bench.systems import deploy
from repro.data import generate_barton
from repro.data.barton import BartonConfig
from repro.queries import build_query


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(root=tmp_path / "cache")


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=6_000, n_properties=40, seed=11)


def _run_queries(deployment, queries=("q1", "q2", "q5")):
    """Simulated timings + result rows for a few benchmark queries."""
    timings = {}
    for query in queries:
        _, timing = deployment.run(query, "cold")
        timings[query] = (timing.real_seconds, timing.bytes_read)
    return timings


class TestCacheBasics:
    def test_miss_then_hit(self, cache):
        calls = []

        def build():
            calls.append(1)
            return {"x": 1}

        first = cache.get_or_build("thing", {"a": 1}, build)
        second = cache.get_or_build("thing", {"a": 1}, build)
        assert first == second == {"x": 1}
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_key_is_order_insensitive(self, cache):
        assert cache.key("k", {"a": 1, "b": 2}) == cache.key(
            "k", {"b": 2, "a": 1}
        )

    def test_eviction_prunes_oldest(self, cache):
        cache.max_bytes = 1  # anything written is immediately over budget
        cache.get_or_build("thing", {"n": 1}, lambda: list(range(100)))
        assert cache.entries() == []


class TestHitIdentity:
    def test_dataset_hit_equals_fresh_build(self, cache):
        config = BartonConfig(n_triples=4_000, n_properties=30, seed=5)
        built = cached_dataset(config, cache=cache)
        hit = cached_dataset(
            BartonConfig(n_triples=4_000, n_properties=30, seed=5),
            cache=cache,
        )
        assert cache.hits == 1
        assert hit.triples == built.triples
        assert hit.interesting_properties == built.interesting_properties

    @pytest.mark.parametrize("system,scheme", [
        ("MonetDB", "triple"),
        ("MonetDB", "vert"),
        ("DBX", "triple"),
    ])
    def test_cached_store_matches_fresh_build(
        self, cache, dataset, system, scheme
    ):
        fresh = deploy(dataset, system, scheme, "PSO", cache=False)
        cached = deploy(dataset, system, scheme, "PSO", cache=cache)
        warm = deploy(dataset, system, scheme, "PSO", cache=cache)
        assert cache.hits == 1 and cache.misses == 1

        fresh_timings = _run_queries(fresh)
        assert _run_queries(cached) == fresh_timings
        # The decisive property: a cache hit yields identical *simulated*
        # timings, not just identical result rows.
        assert _run_queries(warm) == fresh_timings

    def test_cached_store_rows_match(self, cache, dataset):
        import numpy as np

        fresh = deploy(dataset, "MonetDB", "vert", cache=False)
        warm = deploy(dataset, "MonetDB", "vert", cache=cache)
        for query in ("q1", "q2", "q7"):
            one, _ = fresh.engine.run(build_query(fresh.catalog, query))
            two, _ = warm.engine.run(build_query(warm.catalog, query))
            assert list(one.columns) == list(two.columns)
            for name in one.columns:
                assert np.array_equal(one.columns[name], two.columns[name])


class TestKeyInvalidation:
    def test_n_triples_changes_key(self, cache):
        base = dataset_cache_key(generate_barton(n_triples=2_000, seed=3))
        other = dataset_cache_key(generate_barton(n_triples=2_001, seed=3))
        assert cache.key("dataset", base) != cache.key("dataset", other)

    def test_seed_changes_key(self, cache):
        base = dataset_cache_key(generate_barton(n_triples=2_000, seed=3))
        other = dataset_cache_key(generate_barton(n_triples=2_000, seed=4))
        assert cache.key("dataset", base) != cache.key("dataset", other)

    def test_schema_version_changes_key(self, tmp_path):
        one = ArtifactCache(root=tmp_path, schema=1)
        two = ArtifactCache(root=tmp_path, schema=2)
        params = {"n": 1}
        assert one.key("dataset", params) != two.key("dataset", params)
        one.get_or_build("dataset", params, lambda: "v1")
        # The schema bump misses the old entry and rebuilds.
        assert two.get_or_build("dataset", params, lambda: "v2") == "v2"

    def test_store_key_varies_with_physical_design(self, cache, dataset):
        cached_store_payload(dataset, "triple", "PSO", cache=cache)
        cached_store_payload(dataset, "triple", "SPO", cache=cache)
        cached_store_payload(dataset, "vertical", cache=cache)
        assert cache.misses == 3 and cache.hits == 0

    def test_uncacheable_dataset_builds_fresh(self, cache):
        class Plain:
            triples = generate_barton(n_triples=1_000, seed=2).triples
            interesting_properties = []

        assert dataset_cache_key(Plain()) is None
        payload = cached_store_payload(Plain(), "triple", cache=cache)
        assert payload["tables"]
        assert cache.hits == cache.misses == 0  # never touched the cache


class TestCorruption:
    def _entry_path(self, cache):
        entries = cache.entries()
        assert len(entries) == 1
        return entries[0][0]

    @pytest.mark.parametrize("damage", [
        lambda blob: blob[: len(blob) // 2],          # truncated
        lambda blob: b"0" * 64 + b"\n" + blob[65:],   # checksum mismatch
        lambda blob: blob[:65] + b"not a pickle",     # unpicklable body
        lambda blob: b"junk with no header",          # malformed header
    ])
    def test_corrupt_entry_rebuilt(self, cache, damage):
        cache.get_or_build("thing", {"n": 1}, lambda: {"v": 1})
        path = self._entry_path(cache)
        path.write_bytes(damage(path.read_bytes()))
        value = cache.get_or_build("thing", {"n": 1}, lambda: {"v": 2})
        assert value == {"v": 2}  # rebuilt, not crashed
        assert cache.corrupt == 1
        # The rebuilt entry replaced the corrupt one and hits again.
        assert cache.get_or_build("thing", {"n": 1}, lambda: 0) == {"v": 2}

    def test_checksum_guards_bit_flips(self, cache):
        cache.get_or_build("thing", {"n": 1}, lambda: list(range(64)))
        path = self._entry_path(cache)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.get_or_build("thing", {"n": 1}, lambda: "fresh") == "fresh"
        assert cache.corrupt == 1

    def test_valid_entry_round_trips_pickle(self, cache):
        value = {"arrays": [1, 2, 3], "nested": {"k": "v"}}
        cache.get_or_build("thing", {"n": 1}, lambda: value)
        blob = self._entry_path(cache).read_bytes()
        assert pickle.loads(blob.partition(b"\n")[2]) == value
