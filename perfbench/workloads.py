"""The five workloads.

Each workload stresses one group of layers and bypasses the others, so a
change to one layer has a workload where it must show and one where it
must not (README.md has the table).  All are closed-loop with one
client: this box has two cores, and a second client made identical runs
disagree by a fifth.

A workload has two ways to run an op.  :meth:`Workload.run` calls only
the public surface (``Session.query``, an HTTP POST, ``deploy``) and is
what the end-to-end metrics time.  :meth:`Workload.run_staged` calls the
same public layer functions one after another with a span around each;
it runs on a *twin* deployment that receives exactly the same op
sequence, so its rows and its simulated cost document must equal the
public path's — that equality is what makes the spans a decomposition
of the same program and not of a look-alike.
"""

import collections
import dataclasses
import json
import http.client
import os
import socket
import subprocess
import sys
import time

import repro.api as api
from repro.analysis import check_plan, set_lint_mode
from repro.bench.systems import SYSTEM_GRID, data_scale, deploy
from repro.colstore import ColumnStoreEngine
from repro.cstore import CStoreEngine
from repro.cstore.engine import MAX_REQUEST_BYTES
from repro.data import generate_barton, split_properties
from repro.data.barton import TYPE, WELL_KNOWN_PROPERTIES
from repro.dictionary import Dictionary
from repro.engine import (
    COLUMN_STORE_COSTS,
    CSTORE_COSTS,
    MACHINE_B,
    ROW_STORE_COSTS,
)
from repro.model.triple import Triple
from repro.plan.optimizer import engine_stats_provider, optimize_joins
from repro.queries import ALL_QUERY_NAMES, build_query, reference_answer
from repro.rowstore import RowStoreEngine
from repro.sparql import parse_sparql
from repro.sparql.executor import sparql_plan
from repro.sql import generate_vertical_sql, parse_sql, plan_sql
from repro.storage import (
    build_store_from_payload,
    insert_triples,
    prepare_triple_payload,
    prepare_vertical_payload,
)

from perfbench.gen import rng_for, rows_digest, shuffled, zipf_counts
from perfbench.spans import Tracer, span

HERE = os.path.dirname(os.path.abspath(__file__))

#: The database is the same on every seed; ``--seed`` is the traffic (op
#: order, query constants, insert batches, the property split).  A
#: dataset per seed moved q8's result size — and with it every timing —
#: by more than the bounds, which measured the generator, not the program.
DATA_SEED = 7

#: What one op returned: decoded rows, the simulated cost document, and
#: workload-specific extras the checker needs.
Outcome = collections.namedtuple("Outcome", "rows cost info")


class OracleError(Exception):
    """The program's output disagreed with the reference."""


def staged_execute(tracer, connection, plan, columns, query, kind,
                   run_span, mode=None):
    """The execution tail every staged pipeline shares: lower, run,
    decode, wrap — ``Session.query`` after planning, one span per layer."""
    engine = connection.store.engine
    if mode == "cold":
        with span(tracer, "engine.pool_clear"):
            engine.make_cold()
    with span(tracer, "exec.lower"):
        engine.lower(plan)
    with span(tracer, run_span):
        relation, timing = engine.run(plan)
    with span(tracer, "relation.decode"):
        rows = relation.decoded_tuples(
            connection.store.catalog.dictionary, order=columns
        )
    with span(tracer, "api.result"):
        return api.Result(query, kind, columns, rows, timing,
                          n_rows=relation.n_rows)


def result_outcome(result):
    return Outcome(result.rows, result.cost_dict(), None)


def connect(tracer, dataset, engine, scheme, options=None):
    """Deploy *dataset* through the public ``api.connect``."""
    with span(tracer, "api.connect"):
        return api.connect(
            triples=dataset.triples, engine=engine, scheme=scheme,
            interesting_properties=dataset.interesting_properties,
            engine_options=options,
        )


def pool_counters(engines):
    totals = collections.Counter()
    for engine in engines:
        totals.update(engine.pool.stats())
    return totals


def cache_counters(connections):
    """Exact plan-cache and lowering-cache counts over *connections*."""
    totals = collections.Counter()
    for connection in connections:
        plans = connection.plan_cache_stats()
        lowered = connection.store.engine.executor().lowering_cache_stats()
        totals["plan_hits"] += plans["hits"]
        totals["plan_misses"] += plans["misses"]
        totals["lower_hits"] += lowered["hits"]
        totals["lower_misses"] += lowered["misses"]
    return totals


class Workload:
    """One workload instance = one set-up of the program."""

    name = None
    why = None
    n_triples = None
    smoke_triples = None
    #: The span that brackets the program's own execution work.
    run_span = "colstore.run"
    #: Collect garbage after every op, not only after every round.  Costs
    #: a full walk of the program's live objects, so only where an op
    #: leaves garbage that matters.
    collect_after_op = False

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.smoke = smoke
        self.tracer = None
        self.expected = {}
        self._rounds = []
        self._staged_first = False

    @property
    def requested_triples(self):
        return self.smoke_triples if self.smoke else self.n_triples

    def generate(self, tracer):
        with span(tracer, "data.generate"):
            self.dataset = generate_barton(
                n_triples=self.requested_triples, seed=DATA_SEED
            )

    # -- set-up: timed as setup_s ----------------------------------------

    def setup(self, tracer=None):
        """Everything up to the first timed op: data, deployment, server
        start, and one warm-up round that fills the program's caches."""
        self.tracer = tracer
        self.build()
        for op in self.round(0):
            if tracer is not None:
                self.run_traced(op)
            else:
                self.run(op)

    def build(self):
        raise NotImplementedError

    def close(self):
        """Stop every process this set-up started."""

    # -- ops -------------------------------------------------------------

    def round(self, index):
        """The ops of round *index* (0 is the warm-up).  Rounds are made
        in order and remembered, so a round never depends on who asks."""
        while len(self._rounds) <= index:
            self._rounds.append(self.make_round(len(self._rounds)))
        return self._rounds[index]

    def make_round(self, index):
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def run_staged(self, op):
        raise NotImplementedError

    def run_traced(self, op):
        """Run *op* staged on the twin and publicly on the primary;
        returns ``(public outcome, staged outcome, public seconds)``.

        Whichever goes second finds the processor's caches warm with this
        very op, so the two take turns going first.
        """
        self._staged_first = not self._staged_first
        if self._staged_first:
            staged = self.run_staged(op)
        start = time.perf_counter()
        public = self.run(op)
        took = time.perf_counter() - start
        if not self._staged_first:
            staged = self.run_staged(op)
        return public, staged, took

    # -- oracle ----------------------------------------------------------

    def verify(self):
        """Compute reference answers (outside any timed region)."""

    def check(self, op, outcome, seconds, thorough=False):
        """Is *outcome* the right answer to *op*?"""
        raise NotImplementedError

    def finish(self):
        """Checks that need the whole run; returns failed-op count."""
        return 0

    # -- exact counts ----------------------------------------------------

    def stored(self):
        """``(bytes stored, triples loaded)`` over this workload's stores."""
        raise NotImplementedError

    def counters(self):
        """Cumulative exact counters; the runner takes deltas."""
        return collections.Counter()

    def extras(self):
        """Exact values only this workload can supply (metrics.EXTRAS)."""
        return {}

    def _reference(self, dataset):
        graph = dataset.graph()
        return {
            name: rows_digest(reference_answer(
                graph, name, dataset.interesting_properties
            ))
            for name in ALL_QUERY_NAMES
        }


# ----------------------------------------------------------------------
# col_exec / row_exec
# ----------------------------------------------------------------------

class ExecWorkload(Workload):
    """Named benchmark queries on hot plan and lowering caches: the
    engine's operators and buffer pool do nearly all the work."""

    engine = None
    smoke_triples = 4_000
    modes = (None,)

    def store_specs(self):
        """``(label, scheme, engine options)`` per store."""
        raise NotImplementedError

    def build(self):
        self.generate(self.tracer)
        self.public = self._deploy()
        self.sessions = {
            label: conn.session() for label, conn in self.public.items()
        }
        if self.tracer is not None:
            self.twins = self._deploy()
            self.plans = {}
            for label, conn in self.twins.items():
                for name in ALL_QUERY_NAMES:
                    with span(self.tracer, "queries.build"):
                        plan = build_query(conn.store.catalog, name)
                    self.plans[label, name] = plan

    def _deploy(self):
        return {
            label: connect(self.tracer, self.dataset, self.engine, scheme,
                           options)
            for label, scheme, options in self.store_specs()
        }

    def make_round(self, index):
        if index:
            # Every round is the same list in the same order, so the
            # buffer-pool state — and with it the simulated cost — of
            # round n+1 repeats round n exactly.
            return self._rounds[0]
        queries = shuffled(rng_for(self.seed, self.name), [
            (label, name)
            for label, _scheme, _options in self.store_specs()
            for name in ALL_QUERY_NAMES
        ])
        # A query's modes run back to back (cold, then as the cold run
        # left the pool — the paper's hot protocol), so what a "current
        # pool" run finds never depends on the seed's order.
        return [
            {"store": label, "query": name, "mode": mode}
            for label, name in queries
            for mode in self.modes
        ]

    def run(self, op):
        return result_outcome(
            self.sessions[op["store"]].query(op["query"], mode=op["mode"])
        )

    def run_staged(self, op):
        label, name = op["store"], op["query"]
        plan = self.plans[label, name]
        with span(self.tracer, "op"):
            result = staged_execute(
                self.tracer, self.twins[label], plan, plan.output_columns(),
                name, "benchmark", self.run_span, mode=op["mode"],
            )
        return result_outcome(result)

    def verify(self):
        self.expected = self._reference(self.dataset)
        for label, conn in self.public.items():
            if label.endswith("_tight"):
                pool = conn.store.engine.pool
                if pool.capacity_pages * pool.page_size >= conn.store.database_bytes():
                    raise OracleError(f"{label}: pool is not smaller than the data")

    def check(self, op, outcome, seconds, thorough=False):
        return rows_digest(outcome.rows) == self.expected[op["query"]]

    def stored(self):
        stores = [conn.store for conn in self.public.values()]
        return (sum(s.database_bytes() for s in stores),
                sum(s.n_triples for s in stores))

    def counters(self):
        connections = list(self.public.values())
        return (pool_counters(c.store.engine for c in connections)
                + cache_counters(connections))


class ColExec(ExecWorkload):
    name = "col_exec"
    why = ("named queries, hot plan caches, column engine: colstore "
           "operators and the buffer pool dominate; front-end and server "
           "changes must not show here")
    engine = "column"
    run_span = "colstore.run"
    n_triples = 100_000
    modes = ("cold", None)

    def store_specs(self):
        # The PSO triples table is 24 bytes a triple; a pool of 6 bytes a
        # triple is a quarter of it, so this store's working set does not
        # fit its cache while the other two stores' does (verify() checks).
        return (
            ("vertical", "vertical", None),
            ("vertical_physical", "vertical", {"compression": "physical"}),
            ("triple_pso_tight", "triple",
             {"buffer_bytes": self.requested_triples * 6}),
        )

    def extras(self):
        plain = self.public["vertical"].store.database_bytes()
        packed = self.public["vertical_physical"].store.database_bytes()
        return {"storage.compress_ratio": plain / packed}


class RowExec(ExecWorkload):
    name = "row_exec"
    why = ("named queries on the row engine: rowstore operators and the "
           "B+tree dominate and colstore is absent, so a column-store "
           "change predicts no movement here")
    engine = "row"
    run_span = "rowstore.run"
    n_triples = 5_000
    smoke_triples = 2_000

    def store_specs(self):
        return (("vertical", "vertical", None), ("triple", "triple", None))


# ----------------------------------------------------------------------
# adhoc_frontend
# ----------------------------------------------------------------------

#: (kind, ops per round): 40 % SPARQL describe, 30 % SQL describe, 20 %
#: SQL class-union, 10 % two-property SQL join.
ADHOC_MIX = (
    ("sparql_describe", 20),
    ("sql_describe", 15),
    ("sql_class_union", 10),
    ("sql_two_property", 5),
)


class AdhocFrontend(Workload):
    name = "adhoc_frontend"
    why = ("every text is new, so the plan cache always misses: SQL "
           "generation of the 222-way union, parsing, planning and lint "
           "dominate and colstore does little; the mirror of col_exec")
    n_triples = 60_000
    smoke_triples = 6_000
    #: Share of the executed texts replayed on a triple-scheme store.
    replay_share = 0.10

    def build(self):
        self.generate(self.tracer)
        self.public = connect(self.tracer, self.dataset, "column", "vertical")
        self.session = self.public.session()
        if self.tracer is not None:
            self.twin = connect(self.tracer, self.dataset, "column", "vertical")
        # Generator state: constants come from the dataset itself, so
        # every describe and class-union has at least one answer.
        dataset = self.dataset
        self._rng = rng_for(self.seed, self.name)
        self._entities = shuffled(self._rng, range(dataset.n_entities))
        self._class_of = {t.s: t.o for t in dataset.triples if t.p == TYPE}
        self._others = [t for t in dataset.triples if t.p != TYPE]
        self._common = dataset.properties[:40]
        self._seen = set()
        self.executed = []

    def _text(self, kind):
        rng = self._rng
        entity = self.dataset.entity_name
        if kind == "sparql_describe":
            return "SELECT ?p ?o WHERE { %s ?p ?o }" % entity(self._entities.pop())
        if kind == "sql_describe":
            return ("SELECT A.prop, A.obj FROM triples AS A "
                    "WHERE A.subj = '%s'" % entity(self._entities.pop()))
        if kind == "sql_class_union":
            t = rng.choice(self._others)
            return (
                "SELECT B.subj, B.prop FROM triples AS A, triples AS B "
                "WHERE A.prop = '<type>' AND A.obj = '%s' "
                "AND A.subj = B.subj AND B.obj = '%s'"
                % (self._class_of[t.s], t.o)
            )
        first, second = rng.sample(self._common, 2)
        return (
            "SELECT A.subj, B.obj FROM triples AS A, triples AS B "
            "WHERE A.prop = '%s' AND B.prop = '%s' AND A.subj = B.subj"
            % (first, second)
        )

    def make_round(self, index):
        ops = []
        for kind, count in ADHOC_MIX:
            made = 0
            while made < count:
                text = self._text(kind)
                if text in self._seen:
                    continue
                self._seen.add(text)
                made += 1
                ops.append({
                    "kind": kind, "text": text,
                    "optimize": kind == "sql_two_property",
                })
        return shuffled(self._rng, ops)

    def run(self, op):
        text = op["text"]
        if op["kind"] == "sparql_describe":
            return result_outcome(self.session.query(text))
        vertical = generate_vertical_sql(text, self.public.store.catalog)
        return result_outcome(
            self.session.query(vertical, optimize=op["optimize"])
        )

    def run_staged(self, op):
        tracer, twin = self.tracer, self.twin
        catalog = twin.store.catalog
        text = op["text"]
        with span(tracer, "op"):
            if op["kind"] == "sparql_describe":
                kind = "sparql"
                with span(tracer, "sparql.parse"):
                    parsed = parse_sparql(text)
                # sparql_plan lints under the global mode; switch it off
                # there and lint explicitly, so lint gets its own span
                # ("warn" is the default, and REPRO_LINT is scrubbed).
                set_lint_mode("off")
                try:
                    with span(tracer, "sparql.plan"):
                        plan, columns = sparql_plan(catalog, parsed)
                finally:
                    set_lint_mode("warn")
                with span(tracer, "analysis.lint"):
                    check_plan(plan, where="sparql")
                columns = list(columns)
            else:
                kind = "sql"
                with span(tracer, "sql.generate"):
                    text = generate_vertical_sql(text, catalog)
                with span(tracer, "sql.parse"):
                    statement = parse_sql(text)
                with span(tracer, "sql.plan"):
                    plan = plan_sql(statement, catalog, lint="off")
                with span(tracer, "analysis.lint"):
                    check_plan(plan, where="sql")
                if op["optimize"]:
                    with span(tracer, "plan.optimize"):
                        plan = optimize_joins(
                            plan, engine_stats_provider(twin.store.engine)
                        )
                columns = plan.output_columns()
            result = staged_execute(
                tracer, twin, plan, columns, text, kind, self.run_span
            )
        return result_outcome(result)

    def check(self, op, outcome, seconds, thorough=False):
        self.executed.append((op, rows_digest(outcome.rows)))
        return bool(outcome.rows) or op["kind"] == "sql_two_property"

    def finish(self):
        """Replay a seeded sample of the executed texts — the original
        triple-store SQL, ungenerated — on a triple-scheme store."""
        rng = rng_for(self.seed, "replay")
        wanted = max(1, round(len(self.executed) * self.replay_share))
        sample = rng.sample(self.executed, min(wanted, len(self.executed)))
        session = connect(None, self.dataset, "column", "triple").session()
        failed = 0
        for op, digest in sample:
            result = session.query(op["text"], optimize=op["optimize"])
            failed += rows_digest(result.rows) != digest
        return failed

    def stored(self):
        store = self.public.store
        return store.database_bytes(), store.n_triples

    def counters(self):
        return (pool_counters([self.public.store.engine])
                + cache_counters([self.public]))


# ----------------------------------------------------------------------
# serve_http
# ----------------------------------------------------------------------

class ServeHttp(Workload):
    name = "serve_http"
    why = ("cheap named queries over HTTP to a server in a child "
           "process: request handling, admission, Result.to_dict and "
           "JSON dominate; api and server changes show here only")
    #: The smallest database the generator makes (all 12 answers are
    #: still non-empty).  A named query costs the column engine 0.1-0.6 ms
    #: of per-operator overhead however little data there is — about a
    #: third of a 1.4 ms request — and every triple more takes the
    #: request further from the server this workload is here to time.
    n_triples = 1_000
    smoke_triples = 1_000
    requests_per_round = 480
    #: The stated limit: 99 % of the requests answered correctly within
    #: 50 ms.  A non-200 or a wrong row set is a failed op on its own; the
    #: slow ones become failed ops when there are more than 1 % of them.
    #: (The limit sits on a percentile because single requests stall on
    #: this box whatever the server does: p99 is 2.3-2.9 ms over 7000
    #: requests, yet one run in three holds a request or a burst of them
    #: at 40-400 ms, the requests either side taking 1.5 ms.)
    latency_limit_s = 0.05
    latency_limit_share = 0.99

    def build(self):
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"),
             "--seed", str(DATA_SEED),
             "--triples", str(self.requested_triples)],
            stdout=subprocess.PIPE, text=True,
        )
        with span(self.tracer, "server.start"):
            line = self.child.stdout.readline().split()
        if len(line) != 2 or line[0] != "READY":
            self.close()
            raise RuntimeError(f"server child did not start: {line!r}")
        host, port = line[1].rsplit("/", 1)[1].split(":")
        self.http = http.client.HTTPConnection(host, int(port), timeout=60)
        self.http.connect()
        # Both ends write a message in two pieces (headers, then body).
        # On a kept-alive connection the second piece then waits ~40 ms
        # for the peer's delayed ACK, and the workload would time a kernel
        # timer instead of the server.  NODELAY cures our half; QUICKACK
        # (re-armed per request: the kernel clears it) cures the server's.
        # README.md, "Findings", has the numbers.
        self.http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.response_bytes = []
        self.requests = self.over_limit = 0
        if self.tracer is not None:
            # The twin must see the warm-up round too, so it exists
            # before the first request; the child holds the same data.
            self.generate(None)
            self.twin = connect(None, self.dataset, "column", "triple")
            self.plans = {
                name: build_query(self.twin.store.catalog, name)
                for name in ALL_QUERY_NAMES
            }

    def close(self):
        child = getattr(self, "child", None)
        if child is None or child.poll() is not None:
            return
        if getattr(self, "http", None) is not None:
            self.http.close()
        child.terminate()
        try:
            child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()

    def make_round(self, index):
        total = 48 if self.smoke else self.requests_per_round
        counts = zipf_counts(len(ALL_QUERY_NAMES), total)
        names = [
            name for name, count in zip(ALL_QUERY_NAMES, counts)
            for _ in range(count)
        ]
        rng = rng_for(self.seed, f"{self.name}:{index}")
        return [{"query": name} for name in shuffled(rng, names)]

    def _request(self, method, path, body=None):
        self.http.request(method, path, body=body,
                          headers={"Content-Type": "application/json"})
        self.http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        response = self.http.getresponse()
        return response.status, response.read()

    def run(self, op):
        status, raw = self._request(
            "POST", "/v1/query", json.dumps({"query": op["query"]})
        )
        document = json.loads(raw)
        return Outcome(
            document.get("rows"), document.get("cost"),
            {"status": status, "bytes": len(raw),
             "queue_s": document.get("queue_ms", 0.0) / 1e3,
             "exec_s": document.get("exec_ms", 0.0) / 1e3},
        )

    def run_traced(self, op):
        """One POST is the public path; the server says how long the
        request queued and executed, and the same query on the in-process
        twin says how that execution splits.  Twin-measured stages are
        laid inside the server-reported interval, clipped to fit."""
        tracer, name = self.tracer, op["query"]
        start = time.perf_counter()
        public = self.run(op)
        end = time.perf_counter()

        local = Tracer()
        plan = self.plans[name]
        result = staged_execute(
            local, self.twin, plan, plan.output_columns(), name, "benchmark",
            self.run_span,
        )
        with local.span("api.serialise"):
            json.dumps(result.to_dict(), sort_keys=True)
        measured = {s[0]: s[2] - s[1] for s in local.spans}

        queue_s, exec_s = public.info["queue_s"], public.info["exec_s"]
        total = end - start
        exec_s = min(exec_s, total)
        queue_s = min(queue_s, total - exec_s)
        serialise_s = min(measured["api.serialise"], total - exec_s - queue_s)
        root = tracer.add("server.request", start, end, None)
        at = start + (total - queue_s - exec_s - serialise_s) / 2
        tracer.add("server.queue_wait", at, at + queue_s, root)
        at += queue_s
        query = tracer.add("api.query", at, at + exec_s, root)
        tracer.add("api.serialise", at + exec_s, at + exec_s + serialise_s, root)
        left = exec_s
        for stage in ("exec.lower", self.run_span, "relation.decode"):
            took = min(measured[stage], left)
            tracer.add(stage, at, at + took, query)
            at += took
            left -= took
        return public, result_outcome(result), total

    def verify(self):
        if self.tracer is None:
            # The parent's own copy of the child's data, for the oracle.
            self.generate(None)
        self.expected = self._reference(self.dataset)

    def check(self, op, outcome, seconds, thorough=False):
        if thorough:
            self.response_bytes.append(outcome.info["bytes"])
        self.requests += 1
        self.over_limit += seconds > self.latency_limit_s
        return (
            outcome.info["status"] == 200
            and rows_digest(outcome.rows) == self.expected[op["query"]]
        )

    def finish(self):
        # One stall of the box (up to ten requests in a row) never fails
        # a run, however short.
        allowed = max(10.0, (1.0 - self.latency_limit_share) * self.requests)
        return self.over_limit if self.over_limit > allowed else 0

    def extras(self):
        sizes = self.response_bytes
        return {"server.response_bytes_per_op": sum(sizes) / len(sizes)}

    def _stats(self):
        status, raw = self._request("GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(raw)

    def stored(self):
        store = self._stats()["store"]
        return store["database_bytes"], store["n_triples"]

    def counters(self):
        stats = self._stats()
        totals = collections.Counter(stats["store"]["buffer_pool"])
        totals["plan_hits"] = stats["plan_cache"]["hits"]
        totals["plan_misses"] = stats["plan_cache"]["misses"]
        admission = stats.get("counters", {})
        totals["rejected"] = sum(
            value for key, value in admission.items()
            if key.startswith("server.admission") and "rejected" in key
        )
        return totals


# ----------------------------------------------------------------------
# deploy_write
# ----------------------------------------------------------------------

#: The seven rows of Tables 6/7, both MonetDB schemes compressed, and
#: MonetDB/vert over the 1000-property split (Figure 7's axis).  An even
#: count on purpose: a round's median op then lies between two configs,
#: and does not jump when two of similar cost swap ranks.
DEPLOY_CONFIGS = tuple(
    {"config": f"{system}_{scheme}_{clustering}".lower().replace("-", ""),
     "system": system, "scheme": scheme, "clustering": clustering}
    for system, scheme, clustering in SYSTEM_GRID
) + (
    {"config": "monetdb_vert_physical", "system": "MonetDB",
     "scheme": "vert", "clustering": "SO", "compression": "physical"},
    {"config": "monetdb_triple_physical", "system": "MonetDB",
     "scheme": "triple", "clustering": "PSO", "compression": "physical"},
    {"config": "monetdb_vert_split", "system": "MonetDB",
     "scheme": "vert", "clustering": "SO", "split": True},
)

#: Deploys followed by incremental inserts and a q1 that must see them.
INSERT_CONFIGS = ("monetdb_vert_so", "monetdb_triple_pso")


class DeployWrite(Workload):
    name = "deploy_write"
    why = ("the write side of the storage and dictionary code the read "
           "workloads only query: store build, B+tree and C-Store load, "
           "incremental insert; a read gain bought with build time or "
           "bytes shows here")
    #: A deployed store is cyclic: dropped, it is tens of MB of garbage.
    collect_after_op = True
    n_triples = 8_000
    smoke_triples = 4_000
    split_properties = 1000
    batches = 5
    batch_triples = 50

    def build(self):
        self.generate(self.tracer)
        dataset = self.dataset
        target = 300 if self.smoke else self.split_properties
        with span(self.tracer, "data.split"):
            triples, properties = split_properties(
                dataset.triples, target, seed=self.seed,
                protected=WELL_KNOWN_PROPERTIES, max_subproperties=50,
            )
        self.split_dataset = dataclasses.replace(
            dataset, triples=triples, properties=properties
        )
        self.bytes_by_config = {}
        self.insert_bytes = collections.Counter()

    def _dataset(self, op):
        return self.split_dataset if op.get("split") else self.dataset

    def make_round(self, index):
        if index:
            # Every deploy builds a fresh store, so the same batches can be
            # inserted again: every round does identical work.
            return self._rounds[0]
        rng = rng_for(self.seed, self.name)
        ops = []
        # Always in this order — the seed is the inserted triples: which
        # store is built on the heap the one before left behind moved the
        # peak RSS between 62 and 70 MB, which measured the shuffle.
        for config in DEPLOY_CONFIGS:
            op = dict(config)
            if op["config"] in INSERT_CONFIGS:
                op["batches"] = [
                    self._batch(rng, op["config"], b)
                    for b in range(self.batches)
                ]
            ops.append(op)
        return ops

    def _batch(self, rng, config, number):
        dataset = self.dataset
        triples = []
        for i in range(self.batch_triples):
            subject = f"<perfbench/{config}/{number}/{i}>"
            if i == 0:
                # A <type> triple per batch: q1 is the histogram of <type>
                # objects, so it changes only if the insert is visible.
                triples.append([subject, TYPE, rng.choice(dataset.classes)])
            else:
                # Properties cycle (how many tables an insert rebuilds is
                # then the same on every seed); the objects are the seed's.
                triples.append([
                    subject, dataset.properties[1 + (number * 7 + i) % 19],
                    dataset.entity_name(rng.randrange(dataset.n_entities)),
                ])
        if number == self.batches - 1:
            # The last batch brings a property the store has never seen.
            triples[-1][1] = "<perfbench/property>"
        return triples

    def run(self, op):
        deployment = deploy(
            self._dataset(op), op["system"], op["scheme"], op["clustering"],
            cache=False, compression=op.get("compression"),
        )
        return self._after_deploy(
            op, deployment.engine, deployment.catalog, None
        )

    def _after_deploy(self, op, engine, catalog, tracer):
        """Apply the op's insert batches and prove the store answers."""
        rows = cost = None
        rewritten = 0
        if "batches" in op:
            for batch in op["batches"]:
                with span(tracer, "storage.insert"):
                    catalog, report = insert_triples(
                        engine, catalog, [Triple(*t) for t in batch]
                    )
                rewritten += report.bytes_rewritten
            with span(tracer, "queries.build"):
                plan = build_query(catalog, "q1")
            with span(tracer, "exec.lower"):
                engine.lower(plan)
            with span(tracer, self.run_span):
                relation, timing = engine.run(plan)
            with span(tracer, "relation.decode"):
                rows = relation.decoded_tuples(
                    catalog.dictionary, order=plan.output_columns()
                )
            cost = api.Result("q1", "benchmark", plan.output_columns(),
                              rows, timing).cost_dict()
        return Outcome(rows, cost, {
            "engine": engine, "catalog": catalog,
            "database_bytes": engine.database_bytes(),
            "bytes_rewritten": rewritten,
        })

    def run_staged(self, op):
        """``deploy()`` taken apart: engine set-up, the engine-free
        payload preparation (dictionary + encoding + sort), and the load
        into the engine."""
        tracer = self.tracer
        dataset = self._dataset(op)
        scale = data_scale(dataset)
        system = op["system"]
        with span(tracer, "op"):
            with span(tracer, "bench.engine_setup"):
                if system == "DBX":
                    engine = RowStoreEngine(
                        machine=MACHINE_B.scaled(scale),
                        costs=ROW_STORE_COSTS.scaled(scale),
                    )
                elif system == "MonetDB":
                    engine = ColumnStoreEngine(
                        machine=MACHINE_B.scaled(scale),
                        costs=COLUMN_STORE_COSTS.scaled(scale),
                        compression=op.get("compression"),
                    )
                else:
                    engine = CStoreEngine(
                        machine=MACHINE_B.with_read_bandwidth(
                            MACHINE_B.effective_bandwidth(MAX_REQUEST_BYTES)
                        ).scaled(scale),
                        costs=CSTORE_COSTS.scaled(scale),
                    )
            interesting = dataset.interesting_properties
            if system == "C-Store":
                catalog = None
                with span(tracer, "cstore.load"):
                    engine.load_vertical(dataset.triples, interesting)
            else:
                indexes = engine.kind == "row-store"
                with span(tracer, "storage.prepare"):
                    if op["scheme"] == "triple":
                        payload = prepare_triple_payload(
                            dataset.triples, interesting,
                            clustering=op["clustering"], with_indexes=indexes,
                        )
                    else:
                        payload = prepare_vertical_payload(
                            dataset.triples, interesting, with_indexes=indexes,
                        )
                load = "rowstore.load" if indexes else "colstore.load"
                with span(tracer, load):
                    catalog = build_store_from_payload(engine, payload)
            return self._after_deploy(op, engine, catalog, tracer)

    def verify(self):
        types = collections.Counter(
            t.o for t in self.dataset.triples if t.p == TYPE
        )
        reference = reference_answer(
            self.dataset.graph(), "q1", self.dataset.interesting_properties
        )
        if sorted(types.items()) != reference:
            raise OracleError("q1 histogram disagrees with reference_answer")
        self._types = types
        self.expected = {"q1": rows_digest(reference)}

    def check(self, op, outcome, seconds, thorough=False):
        info = outcome.info
        known = self.bytes_by_config.setdefault(
            op["config"], info["database_bytes"]
        )
        ok = known == info["database_bytes"] > 0
        if "batches" in op:
            inserted = collections.Counter(
                t[2] for batch in op["batches"] for t in batch if t[1] == TYPE
            )
            want = sorted((self._types + inserted).items())
            ok = ok and rows_digest(outcome.rows) == rows_digest(want)
            self.insert_bytes[op["scheme"]] = info["bytes_rewritten"]
        elif thorough:
            # Once per run, outside the timed region: the freshly
            # deployed store must answer q1 like the reference.
            engine = info["engine"]
            if op["system"] == "C-Store":
                relation, _ = engine.run("q1")
                rows = relation.decoded_tuples(
                    engine.dictionary, order=("obj", "count")
                )
            else:
                plan = build_query(info["catalog"], "q1")
                relation, _ = engine.run(plan)
                rows = relation.decoded_tuples(
                    info["catalog"].dictionary, order=plan.output_columns()
                )
            ok = ok and rows_digest(rows) == self.expected["q1"]
        return ok

    def stored(self):
        return (sum(self.bytes_by_config.values()),
                len(self.dataset.triples) * len(self.bytes_by_config))

    def extras(self):
        stored = self.bytes_by_config
        return {
            "storage.insert_bytes_rewritten.vertical": self.insert_bytes["vert"],
            "storage.insert_bytes_rewritten.triple": self.insert_bytes["triple"],
            "storage.compress_ratio":
                stored["monetdb_vert_so"] / stored["monetdb_vert_physical"],
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ColExec, RowExec, AdhocFrontend, ServeHttp, DeployWrite)
}


def probe_dictionary(tracer, triples):
    """Time the dictionary alone: encode a dataset's strings into a fresh
    :class:`Dictionary` (the storage builders call it inside
    ``storage.prepare``, where it cannot be told apart from outside)."""
    strings = [term for t in triples for term in (t.s, t.p, t.o)]
    dictionary = Dictionary()
    with span(tracer, "dictionary.encode"):
        dictionary.encode_many(strings)
