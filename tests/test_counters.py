"""The process-wide counter table (:mod:`repro.observe.counters`).

Coverage: one key set reaches the ledger, ``/metrics`` and the docs.
Exactness: the table moves by exactly what the per-instance views move.
Concurrency: no lost update, and the write barrier audits every write.
"""

import json
import pathlib
import re
import subprocess
import sys
import threading
import urllib.request

import pytest

import repro.api as api
from repro.data import generate_barton
from repro.engine.buffer import PAGES, SPAN
from repro.exec import morsel
from repro.observe import counters
from repro.observe.history import collect_counters
from repro.observe.race import (
    enable_race_check,
    race_check_enabled,
    race_report,
    reset_race_state,
)
from repro.server import serve
from repro.storage.compress import CompressionCounts

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``collect_counters()``: five groups, 25 leaves — the 29 of the commit
#: before the table existed minus ``parallel.steals``, which went with the
#: work-stealing pool (it was the one scheduling-dependent count and no
#: committed baseline recorded it), and minus the three
#: :data:`RETIRED_KEYS`.  The ledger's ``counters`` document is read by
#: ``repro perf compare`` against committed baselines, so a leaf goes only
#: with what it counted, and the set changes only together with
#: docs/observability.md.
LEDGER_KEYS = {
    "buffer_pool.page_hits", "buffer_pool.page_misses",
    "buffer_pool.evictions", "buffer_pool.disk_requests",
    "buffer_pool.bytes_transferred", "buffer_pool.account_calls",
    "buffer_pool.hit_ratio",
    "lowering_cache.hits", "lowering_cache.misses",
    "lowering_cache.evictions",
    "scheduler.cells", "scheduler.repeats", "scheduler.wall_ms",
    "compression.columns_compressed", "compression.columns_raw",
    "compression.logical_bytes", "compression.compressed_bytes",
    "compression.bytes_scanned", "compression.logical_bytes_scanned",
    "compression.runs_skipped", "compression.compressed_reads",
    "compression.compression_ratio",
    "parallel.batches", "parallel.inline_batches", "parallel.morsels",
}

#: Leaves of the on-disk artifact cache, which went with the cache.  The
#: committed CI baselines still record them; ``repro perf compare`` shows
#: the missing group as an info row.
RETIRED_KEYS = {
    "artifact_cache.hits", "artifact_cache.misses", "artifact_cache.corrupt",
}

#: The ``compression`` counters the engine counts per run, in
#: :class:`CompressionCounts` order.
SCAN_KEYS = (
    "bytes_scanned", "logical_bytes_scanned", "runs_skipped",
    "compressed_reads",
)


def flat_keys(document):
    return {
        f"{group}.{name}"
        for group, values in document.items() for name in values
    }


@pytest.fixture(scope="module")
def dataset():
    return generate_barton(n_triples=3_000, n_properties=30, seed=7)


@pytest.fixture()
def connection(dataset):
    return api.connect(
        triples=dataset.triples,
        interesting_properties=dataset.interesting_properties,
    )


@pytest.fixture()
def race_check():
    was_enabled = race_check_enabled()
    enable_race_check(True)
    reset_race_state()
    yield
    reset_race_state()
    enable_race_check(was_enabled)


class TestCoverage:
    def test_key_set_is_pinned(self):
        assert flat_keys(collect_counters()) == LEDGER_KEYS

    def test_a_fresh_process_reports_every_group(self):
        # Groups are declared when their owner is imported; the ledger
        # must not depend on what else the process happened to load.
        completed = subprocess.run(
            [sys.executable, "-c",
             "import json; "
             "from repro.observe.history import collect_counters; "
             "print(json.dumps(collect_counters()))"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        )
        assert completed.returncode == 0, completed.stderr
        assert flat_keys(json.loads(completed.stdout)) == LEDGER_KEYS

    @pytest.mark.parametrize("baseline", [
        "BENCH_fig6_smoke_baseline.json",
        "BENCH_compress_smoke_baseline.json",
    ])
    def test_ci_baselines_compare_key_for_key(self, baseline):
        document = json.loads((ROOT / "ci" / baseline).read_text())
        recorded = flat_keys(document["counters"])
        assert recorded and recorded <= LEDGER_KEYS | RETIRED_KEYS

    def test_every_counter_is_documented(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        section = text.split("### Always-on counters")[1].split("\n## ")[0]
        rows = set(re.findall(
            r"^\| `([a-z_]+\.[a-z_]+)` \|", section, flags=re.MULTILINE
        ))
        assert rows == LEDGER_KEYS

    def test_every_counter_is_a_metrics_series(self, connection):
        with serve(connection, port=0, workers=2, background=True) as server:
            request = urllib.request.Request(
                server.address + "/v1/query",
                data=json.dumps({"query": "q1"}).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
            with urllib.request.urlopen(
                server.address + "/metrics", timeout=10
            ) as response:
                exposition = response.read().decode("utf-8")
        series = {
            line.split(" ")[0]: line.split(" ")[1]
            for line in exposition.splitlines() if not line.startswith("#")
        }
        for key in LEDGER_KEYS:  # q1 ran, so no ratio is None any more
            assert "repro_" + key.replace(".", "_") in series, key
        assert float(series["repro_buffer_pool_page_misses"]) > 0
        assert "# TYPE repro_buffer_pool_page_hits counter" in exposition
        assert "# TYPE repro_buffer_pool_hit_ratio gauge" in exposition
        # ... beside the scheduler's own series, not instead of them.
        assert 'repro_server_queries{outcome="completed"}' in series
        assert "repro_server_plan_cache_hits" in series

    def test_metrics_reads_the_series_under_the_stats_lock(
        self, connection, monkeypatch
    ):
        """Worker threads book outcomes while ``/metrics`` reads the
        scheduler's counts and histograms: the snapshot must be taken
        under the scheduler's stats lock, as ``/v1/stats`` always did."""
        from repro.observe.metrics import Histogram

        summary = Histogram.summary
        held = []
        with serve(connection, port=0, workers=2, background=True) as server:
            scheduler = server.scheduler
            scheduler.execute("q1")

            def audited_summary(histogram):
                free = scheduler._stats_lock.acquire(blocking=False)
                if free:
                    scheduler._stats_lock.release()
                held.append(not free)
                return summary(histogram)

            monkeypatch.setattr(Histogram, "summary", audited_summary)
            with urllib.request.urlopen(
                server.address + "/metrics", timeout=10
            ) as response:
                assert response.status == 200
        assert len(held) == 3 and all(held)


class TestExactness:
    def test_table_moves_with_the_instance_views(self, connection):
        pool = connection.store.engine.pool
        runtime = connection.store.engine.executor()

        def views():
            return (
                counters.snapshot("buffer_pool"), pool.stats(),
                counters.snapshot("lowering_cache"),
                runtime.lowering_cache_stats(),
            )

        before = views()
        session = connection.session()
        for text, mode in (
            ("q1", "cold"), ("q2", None), ("q1", None), ("q5", "hot"),
            ("SELECT ?s WHERE { ?s <type> <Text> }", None), ("q2", "cold"),
        ):
            session.query(text, mode=mode)
        after = views()

        table_pool, view_pool, table_lower, view_lower = (
            {key: new[key] - old[key] for key in new if key in old}
            for old, new in zip(before, after)
        )
        assert view_pool["page_misses"] > 0 and view_pool["page_hits"] > 0
        for key, delta in view_pool.items():
            assert table_pool[key] == delta, key
        assert table_pool["account_calls"] > 0
        assert view_lower["hits"] > 0 and view_lower["misses"] > 0
        for key in ("hits", "misses", "evictions"):
            assert table_lower[key] == view_lower[key], key


class TestPoolFlush:
    """The pool counts its reads in plain fields; ``EngineHost.run``
    publishes them to the ``buffer_pool`` group once per measured run —
    in a ``finally``, so a run that raises mid-plan is still counted."""

    @staticmethod
    def _views(pool):
        return counters.snapshot("buffer_pool"), pool.stats()

    @staticmethod
    def _count_reads(pool, monkeypatch, on_read=lambda n: None):
        """Count the pool reads: ``read`` goes through ``read_span``, and
        ``read_spans`` is one read per span or page-run entry of the
        charge list it is given — those it hands to ``read_span`` are
        counted there, the rest when it returns."""
        reads = []

        def count(name):
            reads.append(name)
            on_read(len(reads))

        for name in ("read_span", "read_pages"):
            def counted(*args, _read=getattr(pool, name), _name=name,
                        **kwargs):
                count(_name)
                return _read(*args, **kwargs)
            monkeypatch.setattr(pool, name, counted)

        def batched(charges, *args, _read=pool.read_spans, **kwargs):
            before = len(reads)
            _read(charges, *args, **kwargs)
            spans = sum(entry[0] in (SPAN, PAGES) for entry in charges)
            for _ in range(spans - (len(reads) - before)):
                count("read_spans")
        monkeypatch.setattr(pool, "read_spans", batched)
        return reads

    def _assert_flushed(self, before, pool, reads):
        (table0, view0), (table1, view1) = before, self._views(pool)
        assert view1["page_misses"] > view0["page_misses"]
        for key in view1:
            assert table1[key] - table0[key] == view1[key] - view0[key], key
        assert table1["account_calls"] - table0["account_calls"] == len(reads)
        assert len(reads) > 0

    def test_one_add_per_run_and_account_calls_counts_the_reads(
        self, connection, monkeypatch
    ):
        pool = connection.store.engine.pool
        session = connection.session()
        session.query("q2", mode="cold")      # plan + lowering caches warm
        adds = []
        add = counters.CounterGroup.add

        def spy(group, *deltas):
            if group.name == "buffer_pool":
                adds.append(deltas)
            add(group, *deltas)

        monkeypatch.setattr(counters.CounterGroup, "add", spy)
        reads = self._count_reads(pool, monkeypatch)
        before = self._views(pool)
        session.query("q2", mode="cold")
        self._assert_flushed(before, pool, reads)
        assert len(adds) == 1 and adds[0][5] == len(reads) > 10
        session.query("q2", mode="hot")       # warm-up + measured: one run
        assert len(adds) == 2

    def test_a_cancelled_run_is_still_flushed(self, connection, monkeypatch):
        from repro.errors import QueryCancelled
        from repro.exec.cancel import CancellationToken

        engine = connection.store.engine
        session = connection.session()
        token = CancellationToken().bind()
        reads = self._count_reads(
            engine.pool, monkeypatch,
            on_read=lambda n: n == 1 and token.cancel("test"),
        )
        monkeypatch.setattr(engine.executor(), "cancel_token", token)
        before = self._views(engine.pool)
        with pytest.raises(QueryCancelled):
            # A join: the token is polled again at its second input.
            session.query("q3", mode="cold")
        self._assert_flushed(before, engine.pool, reads)

    def test_a_run_whose_operator_throws_is_still_flushed(
        self, connection, monkeypatch
    ):
        from repro.colstore import vectorops

        def boom(*args, **kwargs):
            raise RuntimeError("operator failed")

        pool = connection.store.engine.pool
        session = connection.session()
        reads = self._count_reads(pool, monkeypatch)
        monkeypatch.setattr(vectorops, "group_count", boom)
        before = self._views(pool)
        with pytest.raises(RuntimeError, match="operator failed"):
            session.query("q2", mode="cold")
        self._assert_flushed(before, pool, reads)


class TestCompressionFlush:
    """Compressed reads count in the engine's plain fields
    (``engine.compression_counts``); ``EngineHost.run`` publishes them to
    the ``compression`` group in one ``add`` per measured run, also when
    the run is cancelled."""

    @pytest.fixture()
    def compressed(self, dataset):
        return api.connect(
            triples=dataset.triples,
            interesting_properties=dataset.interesting_properties,
            engine_options={"compression": "physical"},
        )

    @staticmethod
    def _spy_adds(monkeypatch):
        adds = []
        add = counters.CounterGroup.add

        def spy(group, *deltas):
            if group.name == "compression":
                adds.append(deltas)
            add(group, *deltas)

        monkeypatch.setattr(counters.CounterGroup, "add", spy)
        return adds

    @staticmethod
    def _tally_notes(monkeypatch, on_scan=lambda n: None):
        """What the operators note, summed as the old per-read adds were:
        ``[bytes_scanned, logical_bytes_scanned, runs_skipped,
        compressed_reads]``."""
        noted = [0, 0, 0, 0]
        note_scan = CompressionCounts.note_scan
        note_runs_skipped = CompressionCounts.note_runs_skipped

        def scan(counts, compressed_bytes, logical_bytes):
            noted[0] += compressed_bytes
            noted[1] += logical_bytes
            noted[3] += 1
            on_scan(noted[3])
            note_scan(counts, compressed_bytes, logical_bytes)

        def runs_skipped(counts, n):
            noted[2] += n
            note_runs_skipped(counts, n)

        monkeypatch.setattr(CompressionCounts, "note_scan", scan)
        monkeypatch.setattr(
            CompressionCounts, "note_runs_skipped", runs_skipped
        )
        return noted

    @staticmethod
    def _delta(before):
        after = counters.snapshot("compression")
        return [after[key] - before[key] for key in SCAN_KEYS]

    def test_one_add_per_run(self, compressed, monkeypatch):
        session = compressed.session()
        session.query("q8", mode="cold")      # plan + lowering caches warm
        adds = self._spy_adds(monkeypatch)
        noted = self._tally_notes(monkeypatch)
        session.query("q8", mode="cold")
        assert len(adds) == 1 and noted[3] > 10
        session.query("q8", mode="hot")       # warm-up + measured: one run
        assert len(adds) == 2

    def test_the_totals_of_the_reads_and_of_the_spans(
        self, compressed, monkeypatch
    ):
        session = compressed.session()
        noted = self._tally_notes(monkeypatch)
        for query in ("q1", "q2", "q8"):
            before = counters.snapshot("compression")
            session.query(query, mode="cold")
            assert self._delta(before) == noted and noted[0] > 0, query
            noted[:] = [0, 0, 0, 0]
            # The span counts record every read as it happens.
            before = counters.snapshot("compression")
            profile = session.profile(query, mode="cold")
            delta = self._delta(before)
            assert delta == noted, query
            assert delta[:3] == [
                profile.count_total(key) for key in SCAN_KEYS[:3]
            ], query
            noted[:] = [0, 0, 0, 0]

    def test_a_cancelled_run_is_still_flushed(self, compressed, monkeypatch):
        from repro.errors import QueryCancelled
        from repro.exec.cancel import CancellationToken

        engine = compressed.store.engine
        session = compressed.session()
        token = CancellationToken().bind()
        noted = self._tally_notes(
            monkeypatch, on_scan=lambda n: n == 1 and token.cancel("test"),
        )
        monkeypatch.setattr(engine.executor(), "cancel_token", token)
        before = counters.snapshot("compression")
        with pytest.raises(QueryCancelled):
            # A join: the token is polled again at its second input.
            session.query("q3", mode="cold")
        assert noted[3] >= 1
        assert self._delta(before) == noted
        assert engine.compression_counts.counts == [0, 0, 0, 0]


class TestTable:
    def test_snapshot_is_a_copy_and_reset_takes_one_group(self):
        counters.reset()
        handle = morsel._COUNTERS
        handle.add(1, 0, 5)
        counters.snapshot("parallel")["morsels"] = 99      # a fresh dict
        counters.snapshot()["parallel"]["morsels"] = 99
        assert counters.snapshot("parallel") == {
            "batches": 1, "inline_batches": 0, "morsels": 5,
        }
        counters.reset("scheduler")
        assert counters.snapshot("parallel")["morsels"] == 5
        counters.reset("parallel")
        assert counters.snapshot("parallel")["morsels"] == 0
        wall_ms = counters.snapshot("scheduler")["wall_ms"]
        assert wall_ms == 0.0 and isinstance(wall_ms, float)

    def test_wrong_number_of_deltas_is_refused(self):
        before = counters.snapshot("parallel")
        with pytest.raises(TypeError, match="takes 3 deltas"):
            morsel._COUNTERS.add(1, 2)
        assert counters.snapshot("parallel") == before

    def test_a_group_is_declared_once(self):
        with pytest.raises(ValueError, match="already declared"):
            counters.declare("parallel", batches=0)
        with pytest.raises(KeyError):
            counters.snapshot("no_such_group")


class TestConcurrency:
    THREADS = 8
    ADDS = 10_000

    def _hammer(self):
        handle = morsel._COUNTERS
        start = threading.Barrier(self.THREADS)

        def work():
            start.wait()
            for _ in range(self.ADDS):
                handle.add(1, 0, 2)

        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave inside the adds
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

    def test_concurrent_adds_lose_nothing(self):
        before = counters.snapshot("parallel")
        self._hammer()
        after = counters.snapshot("parallel")
        total = self.THREADS * self.ADDS
        assert {k: after[k] - before[k] for k in after} == {
            "batches": total, "inline_batches": 0, "morsels": 2 * total,
        }

    def test_write_barrier_audits_every_add(self, race_check):
        self._hammer()
        report = race_report()
        entry = report["structures"]["observe.counters"]
        assert entry["threads"] == self.THREADS
        assert entry["mutations"] == self.THREADS * self.ADDS
        assert entry["unguarded"] == 0
        assert report["violation_count"] == 0

    def test_write_outside_the_lock_is_flagged(self, race_check):
        counters.reset("parallel")  # through the API: guarded
        assert race_report()["violation_count"] == 0
        counters._TABLE["parallel"] = (0, 0, 0)  # behind its back
        report = race_report()
        assert report["structures"]["observe.counters"]["unguarded"] == 1
        assert report["violations"][0] == {
            "structure": "observe.counters",
            "op": "__setitem__",
            "thread": threading.get_ident(),
            "lock": "observe.counters",
        }
