"""Tests for the stable public facade (:mod:`repro.api`).

Covers connect/session semantics, query classification, timeouts through
the cooperative cancellation token, the prepared-plan cache, and the
contract that the legacy ``RDFStore.sql/sparql/solve`` shims stay result-
and cost-identical to the new surface.
"""

import json
import threading

import pytest

import repro
import repro.api as api
from repro.core import RDFStore, Var
from repro.data import generate_barton
from repro.errors import (
    PlanError,
    QueryCancelled,
    QueryTimeout,
    ReproError,
    SessionClosed,
)
from repro.lru import LruCache

SCALE = dict(n_triples=4_000, n_properties=40, seed=11)

SPARQL = "SELECT ?s WHERE { ?s <type> <Text> }"


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(**SCALE)


@pytest.fixture(scope="module")
def connection(dataset):
    return api.connect(
        triples=dataset.triples,
        interesting_properties=dataset.interesting_properties,
    )


def fresh_connection(dataset, **options):
    return api.connect(
        triples=dataset.triples,
        interesting_properties=dataset.interesting_properties,
        **options,
    )


# ---------------------------------------------------------------------------
# connect
# ---------------------------------------------------------------------------

class TestConnect:
    def test_connect_wraps_existing_store(self, dataset):
        store = RDFStore(dataset.triples)
        conn = api.connect(store=store)
        assert conn.store is store
        assert conn.engine_kind == "column"
        assert conn.scheme == "vertical"

    def test_positional_store_dispatch(self, dataset):
        store = RDFStore(dataset.triples)
        assert api.connect(store).store is store

    def test_exactly_one_source_required(self, dataset):
        with pytest.raises(ReproError, match="exactly one"):
            api.connect()
        with pytest.raises(ReproError, match="exactly one"):
            api.connect(
                triples=dataset.triples,
                ntriples="<a> <b> <c> .",
            )

    def test_connect_from_ntriples_text(self):
        conn = api.connect(ntriples="<a> <p> <b> .\n<b> <p> <c> .\n")
        assert conn.store.n_triples == 2

    def test_closed_connection_rejects_queries(self, dataset):
        conn = fresh_connection(dataset)
        session = conn.session()
        conn.close()
        with pytest.raises(SessionClosed):
            session.query("q1")
        with pytest.raises(SessionClosed):
            conn.session()

    def test_top_level_reexports(self):
        assert repro.connect is api.connect
        assert repro.Connection is api.Connection
        assert repro.Session is api.Session
        assert repro.Result is api.Result
        for name in ("connect", "serve", "QueryTimeout", "Result"):
            assert name in repro.__all__


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class TestClassifyQuery:
    def test_benchmark_names(self):
        assert api.classify_query("q1") == "benchmark"
        assert api.classify_query("q2*") == "benchmark"

    def test_sparql_and_sql(self):
        assert api.classify_query(SPARQL) == "sparql"
        assert api.classify_query("SELECT * FROM triples") == "sql"

    def test_non_string_rejected(self):
        with pytest.raises(ReproError, match="must be a string"):
            api.classify_query([("?s", "<p>", "?o")])


# ---------------------------------------------------------------------------
# sessions and results
# ---------------------------------------------------------------------------

class TestSession:
    def test_benchmark_query_result(self, connection):
        result = connection.session().query("q1")
        assert result.kind == "benchmark"
        assert result.n_rows == len(result.rows) > 0
        assert result.columns
        assert result.cost.real_seconds > 0
        assert result.profile is None

    def test_sparql_result_bindings(self, connection):
        result = connection.session().query(SPARQL)
        assert result.kind == "sparql"
        bindings = result.bindings()
        assert len(bindings) == result.n_rows
        assert all(set(b) == {"s"} for b in bindings)

    def test_result_is_iterable_and_sized(self, connection):
        result = connection.session().query("q1")
        assert len(list(result)) == len(result)

    def test_result_to_dict_is_json_ready(self, connection):
        document = connection.session().query("q1").to_dict()
        json.dumps(document)  # must not raise
        assert set(document) == {
            "query", "kind", "columns", "rows", "n_rows", "cost",
        }
        assert set(document["cost"]) == {
            "real_seconds", "user_seconds", "seek_seconds",
            "transfer_seconds", "bytes_read", "io_requests",
        }

    def test_solve_matches_query(self, connection):
        bindings = connection.session().solve(
            [(Var("s"), "<type>", "<Text>")]
        )
        assert sorted(b["s"] for b in bindings) == sorted(
            b["s"] for b in connection.session().query(SPARQL).bindings()
        )

    def test_closed_session_rejects_queries(self, connection):
        session = connection.session()
        session.close()
        assert session.closed
        with pytest.raises(SessionClosed):
            session.query("q1")

    def test_session_context_manager(self, connection):
        with connection.session() as session:
            session.query("q1")
        assert session.closed

    def test_unknown_mode_rejected(self, connection):
        with pytest.raises(ReproError, match="unknown mode"):
            connection.session().query("q1", mode="lukewarm")

    def test_profile_mode(self, connection):
        result = connection.session().query("q2", profile=True)
        assert result.profile is not None
        assert result.profile.timing.real_seconds == \
            result.cost.real_seconds

    def test_explain_renders_plans(self, connection):
        text = connection.session().explain("q1", physical=True)
        assert "physical plan:" in text

    def test_lint_strict_on_clean_query(self, connection):
        result = connection.session().query("q1", lint="strict")
        assert result.n_rows > 0


class TestPlanCache:
    def test_repeated_queries_share_the_plan_object(self, dataset):
        conn = fresh_connection(dataset)
        _, plan_a, _ = conn._plan_for("q1")
        _, plan_b, _ = conn._plan_for("q1")
        assert plan_a is plan_b

    def test_cache_key_separates_variants(self, dataset):
        conn = fresh_connection(dataset, scheme="triple")
        sql = "SELECT A.subj FROM triples AS A WHERE A.prop = '<type>'"
        _, plain, _ = conn._plan_for(sql)
        _, optimized, _ = conn._plan_for(sql, optimize=True)
        assert plain is not optimized

    def test_hit_and_miss_counters(self, dataset):
        conn = fresh_connection(dataset)
        stats = conn.plan_cache_stats()
        assert stats == {
            "size": 0, "capacity": api.PLAN_CACHE_SIZE,
            "hits": 0, "misses": 0, "evictions": 0,
        }
        conn._plan_for("q1")
        conn._plan_for("q1")
        conn._plan_for("q2")
        stats = conn.plan_cache_stats()
        assert stats["size"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["evictions"] == 0

    def test_lru_evicts_least_recently_used(self):
        """The raw cache structure: touching an old entry saves it from
        eviction (the FIFO this replaced would have dropped it)."""
        cache = LruCache(3)
        for key in ("a", "b", "c"):
            assert cache.get(key) is None
            cache.put(key, key.upper())
        assert cache.get("a") == "A"   # refresh "a"
        cache.put("d", "D")            # evicts "b", the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == "A"
        assert cache.get("d") == "D"
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 3

    def test_put_is_insert_if_absent(self):
        cache = LruCache(2)
        first = object()
        assert cache.put("k", first) is first
        assert cache.put("k", object()) is first  # first build wins
        assert cache.get("k") is first

    def test_eviction_under_query_load(self, dataset, monkeypatch):
        """End to end through Connection: a stream of distinct queries
        rolls the cache over while a hot entry survives."""
        monkeypatch.setattr(api, "PLAN_CACHE_SIZE", 4)
        conn = fresh_connection(dataset)
        conn._plans = LruCache(4)
        conn._plan_for("q1")
        for name in ("q2", "q3", "q4"):
            conn._plan_for(name)
            conn._plan_for("q1")   # keep q1 hot
        conn._plan_for("q5")       # overflows: evicts q2, not q1
        stats = conn.plan_cache_stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 4
        hits_before = stats["hits"]
        conn._plan_for("q1")
        assert conn.plan_cache_stats()["hits"] == hits_before + 1

    def test_list_scope_is_the_tuple_scope(self, dataset):
        """An explicit property list — what a JSON array decodes to —
        keys the plan cache as the tuple form does."""
        conn = fresh_connection(dataset)
        session = conn.session()
        properties = dataset.interesting_properties[:3]
        as_tuple = session.query("q2", scope=tuple(properties), mode="cold")
        assert conn.plan_cache_stats()["misses"] == 1
        as_list = session.query("q2", scope=list(properties), mode="cold")
        assert as_list.rows == as_tuple.rows and as_list.n_rows > 0
        assert as_list.cost == as_tuple.cost
        stats = conn.plan_cache_stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)

    @pytest.mark.parametrize("scope", [7, "some", ["<type>", 3], {"a": 1}])
    def test_malformed_scope_is_a_typed_error(self, connection, scope):
        with pytest.raises(ReproError, match="scope must be"):
            connection.session().query("q2", scope=scope)

    def test_repeated_property_scope_is_a_typed_error(self, connection):
        """Counted once, a property would otherwise count twice."""
        prop = connection.store.catalog.interesting_properties[1]
        once = connection.session().query("q2", scope=[prop])
        assert once.n_rows == 1
        with pytest.raises(ReproError, match="each property once"):
            connection.session().query("q2", scope=[prop, prop])

    def test_empty_scope_is_a_typed_error(self, connection):
        with pytest.raises(ReproError, match="each property once"):
            connection.session().query("q2", scope=[])

    def test_property_list_scope_on_a_triple_store(self, dataset):
        """The triple store's restriction is its properties table: an
        explicit list is refused and points at ``with_properties``."""
        conn = fresh_connection(dataset, scheme="triple")
        properties = dataset.interesting_properties[:3]
        with pytest.raises(PlanError, match="with_properties"):
            conn.session().query("q2", scope=properties)
        assert conn.session().query("q2", scope="all").n_rows > 0


# ---------------------------------------------------------------------------
# timeouts / cancellation
# ---------------------------------------------------------------------------

class _InstantTimer:
    """threading.Timer stand-in that fires synchronously on start() —
    makes deadline expiry deterministic instead of racing the query."""

    def __init__(self, interval, function, args=None, kwargs=None):
        self.function = function
        self.args = args or ()
        self.kwargs = kwargs or {}
        self.daemon = True

    def start(self):
        self.function(*self.args, **self.kwargs)

    def cancel(self):
        pass


class TestTimeouts:
    def test_expired_deadline_raises_query_timeout(self, dataset,
                                                   monkeypatch):
        conn = fresh_connection(dataset)
        monkeypatch.setattr(threading, "Timer", _InstantTimer)
        with pytest.raises(QueryTimeout, match="exceeded timeout"):
            conn.session().query("q5", timeout=0.001)

    def test_engine_stays_usable_after_timeout(self, dataset, monkeypatch):
        conn = fresh_connection(dataset)
        monkeypatch.setattr(threading, "Timer", _InstantTimer)
        with pytest.raises(QueryTimeout):
            conn.session().query("q5", timeout=0.001)
        monkeypatch.undo()
        result = conn.session().query("q5")
        assert result.n_rows > 0

    def test_nonpositive_timeout_never_starts(self, connection):
        with pytest.raises(QueryTimeout, match="never started"):
            connection.session().query("q1", timeout=0)

    def test_generous_timeout_completes(self, connection):
        assert connection.session().query("q1", timeout=60).n_rows > 0

    def test_session_default_timeout_applies(self, dataset, monkeypatch):
        conn = fresh_connection(dataset)
        monkeypatch.setattr(threading, "Timer", _InstantTimer)
        session = conn.session(default_timeout=0.001)
        with pytest.raises(QueryTimeout):
            session.query("q5")

    def test_cancelled_token_unwinds_the_runtime(self, dataset):
        from repro.exec.cancel import CancellationToken

        conn = fresh_connection(dataset)
        engine = conn.store.engine
        runtime = engine.executor()
        _, plan, _ = conn._plan_for("q1")
        token = CancellationToken()
        token.cancel(reason="test")
        runtime.cancel_token = token
        try:
            with pytest.raises(QueryCancelled):
                engine.run(plan)
        finally:
            runtime.cancel_token = None
        # the engine recovers fully once the token is cleared
        relation, _timing = engine.run(plan)
        assert relation.n_rows > 0

    def test_timeout_is_a_cancellation(self):
        assert issubclass(QueryTimeout, QueryCancelled)


# ---------------------------------------------------------------------------
# parity with engine.run(plan, mode=), the one measured-run protocol
# ---------------------------------------------------------------------------

class TestShimParity:
    def test_benchmark_costs_match_on_exec_parity_cells(self, dataset):
        """Session.query(mode=...) reproduces engine.run(build_query(...),
        mode=...) on a twin store bit-for-bit — rows and simulated
        timings — on the goldens' engine x scheme cells (fresh stores on
        both sides, same protocol)."""
        from repro.queries import build_query

        build = dict(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
        )
        for engine, scheme in (
            ("column", "vertical"), ("column", "triple"),
            ("row", "vertical"), ("row", "triple"),
        ):
            twin = RDFStore(engine=engine, scheme=scheme, **build)
            conn = api.connect(engine=engine, scheme=scheme, **build)
            for name in ("q1", "q2", "q5"):
                for mode in ("cold", "hot"):
                    plan = build_query(twin.catalog, name)
                    relation, timing = twin.engine.run(plan, mode=mode)
                    result = conn.session().query(name, mode=mode)
                    where = (engine, scheme, name, mode)
                    assert result.rows == relation.decoded_tuples(
                        twin.catalog.dictionary, order=plan.output_columns()
                    ), where
                    assert result.cost == timing, where
                    assert result.cost_dict() == {
                        "real_seconds": timing.real_seconds,
                        "user_seconds": timing.user_seconds,
                        "seek_seconds": timing.seek_seconds,
                        "transfer_seconds": timing.transfer_seconds,
                        "bytes_read": timing.bytes_read,
                        "io_requests": timing.io_requests,
                    }, where
