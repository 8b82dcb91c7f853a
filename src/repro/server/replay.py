"""``repro replay`` — a Zipf-skewed workload generator and replay harness.

Real SPARQL workloads are frequency-skewed mixes of a few pattern shapes
(Arias et al., "An empirical study of real-world SPARQL queries"), so the
generator samples the Barton benchmark queries (q1–q8 plus the
parameterized ``*`` variants) from a Zipf distribution over a seeded RNG:
the same seed always yields the same query sequence.

Two drive modes share one harness:

* **in-process** — each client thread opens its own
  :class:`~repro.api.Session` on a shared :class:`~repro.api.Connection`
  and issues queries directly; this is the mode whose single-client serial
  replay is byte-identical (simulated costs) to a hand-written
  ``Session.query`` loop, because it *is* that loop.
* **HTTP** — clients POST ``/v1/query`` to a running ``repro serve``
  instance (stdlib :mod:`urllib`), exercising admission control; 429
  rejections are retried with backoff and counted separately.

Latencies land in a :class:`~repro.observe.metrics.Histogram` (p50/p95/p99
within 4.4 % of the sample at that rank, the same one the server reports
from), and :func:`record_from_replay` turns a report into a
:class:`~repro.observe.history.RunRecord` for the perf ledger — with the
ordered per-query **simulated** costs as the byte-identity section when
the replay was serial, and ``None`` (plus an explanatory note) when
concurrent interleaving makes per-query pool state order-dependent.
"""

import json
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

from repro.data.zipf import zipf_weights
from repro.errors import QueryTimeout, ReproError, ServerOverloaded
from repro.observe.history import (
    RunRecord,
    collect_counters,
    config_fingerprint,
    git_sha,
)
from repro.observe.log import get_logger
from repro.observe.metrics import Histogram
from repro.queries import ALL_QUERY_NAMES

log = get_logger("server.replay")

#: How often a 429-rejected HTTP request is retried before counting as
#: failed, and the base backoff between attempts (seconds, linear).
REJECT_RETRIES = 20
REJECT_BACKOFF = 0.02


class WorkloadMix:
    """A Zipf-skewed categorical distribution over benchmark queries."""

    def __init__(self, names=None, exponent=1.0, seed=17):
        self.names = list(names) if names is not None else list(ALL_QUERY_NAMES)
        if not self.names:
            raise ReproError("workload mix needs at least one query name")
        unknown = sorted(set(self.names) - set(ALL_QUERY_NAMES))
        if unknown:
            raise ReproError(
                f"unknown benchmark queries in mix: {unknown}; "
                f"choose from {sorted(ALL_QUERY_NAMES)}"
            )
        self.exponent = float(exponent)
        self.seed = int(seed)
        self.weights = [float(w) for w in zipf_weights(len(self.names),
                                                       self.exponent)]

    def sample(self, n, stream=0):
        """A deterministic sequence of *n* query names.

        *stream* derives an independent RNG stream from the mix seed —
        duration-bounded clients each draw from their own stream so the
        sequence never depends on thread timing.
        """
        rng = random.Random(self.seed * 1000003 + stream)
        return rng.choices(self.names, weights=self.weights, k=n)

    def frequency(self):
        """``{name: weight}`` — the mix as a JSON-ready dict."""
        return dict(zip(self.names, self.weights))


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs for one replay run."""

    clients: int = 4
    queries: int = 200            # total across all clients (count mode)
    duration: object = None       # seconds; overrides `queries` when set
    timeout: object = None        # per-query timeout (seconds)
    seed: int = 17
    exponent: float = 1.0
    names: object = None          # query subset; None = all benchmark queries

    def __post_init__(self):
        if self.clients < 1:
            raise ReproError("replay needs at least one client")
        if self.duration is None and self.queries < 1:
            raise ReproError("replay needs at least one query")
        if self.duration is not None and self.duration <= 0:
            raise ReproError("replay duration must be positive")

    def mix(self):
        return WorkloadMix(names=self.names, exponent=self.exponent,
                           seed=self.seed)


@dataclass
class ReplayReport:
    """The outcome of one replay run (JSON-ready via :meth:`to_dict`)."""

    clients: int
    issued: int = 0
    completed: int = 0
    failed: int = 0
    timeouts: int = 0
    rejections: int = 0          # 429s absorbed by retry (HTTP mode)
    wall_seconds: float = 0.0
    latency_ms: dict = field(default_factory=dict)
    queue_wait_ms: dict = field(default_factory=dict)
    per_query: dict = field(default_factory=dict)
    simulated: object = None     # ordered per-query costs (serial only)
    errors: list = field(default_factory=list)

    @property
    def throughput_qps(self):
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def to_dict(self):
        return {
            "clients": self.clients,
            "issued": self.issued,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "rejections": self.rejections,
            "wall_seconds": round(self.wall_seconds, 3),
            "throughput_qps": round(self.throughput_qps, 3),
            "latency_ms": self.latency_ms,
            "queue_wait_ms": self.queue_wait_ms,
            "per_query": dict(sorted(self.per_query.items())),
            "simulated": self.simulated,
            "errors": list(self.errors),
        }

    def summary_text(self):
        """Human-readable latency report for the CLI."""
        lines = [
            f"clients            {self.clients}",
            f"queries issued     {self.issued}",
            f"completed          {self.completed}",
            f"failed             {self.failed}",
            f"timeouts           {self.timeouts}",
            f"rejections (429)   {self.rejections}",
            f"wall seconds       {self.wall_seconds:.3f}",
            f"throughput         {self.throughput_qps:.2f} queries/s",
        ]
        latency = self.latency_ms
        if latency.get("count"):
            lines.append(
                "latency ms         "
                f"p50 {latency['p50']:.2f}  p95 {latency['p95']:.2f}  "
                f"p99 {latency['p99']:.2f}  max {latency['max']:.2f}"
            )
        mix = ", ".join(
            f"{name}:{count}" for name, count in sorted(self.per_query.items())
        )
        if mix:
            lines.append(f"query mix          {mix}")
        for error in self.errors:
            lines.append(f"error              {error}")
        return "\n".join(lines)


class _Collector:
    """Thread-safe accumulation of per-query outcomes into one report."""

    def __init__(self, clients):
        self.lock = threading.Lock()
        self.report = ReplayReport(clients=clients)  # guarded-by: lock
        self.latency_ms = Histogram()  # guarded-by: lock
        self.queue_wait_ms = Histogram()  # guarded-by: lock
        # issue index -> {"query": ..., "cost": ...}
        self.costs = {}  # guarded-by: lock

    def record(self, index, name, outcome, latency_ms, cost=None,
               queue_ms=None, error=None):
        with self.lock:
            self.report.issued += 1
            self.report.per_query[name] = (
                self.report.per_query.get(name, 0) + 1
            )
            if outcome == "completed":
                self.report.completed += 1
                self.latency_ms.observe(latency_ms)
                if queue_ms is not None:
                    self.queue_wait_ms.observe(queue_ms)
                if cost is not None:
                    self.costs[index] = {"query": name, "cost": cost}
            elif outcome == "timeout":
                self.report.timeouts += 1
            else:
                self.report.failed += 1
            if error is not None and len(self.report.errors) < 5:
                self.report.errors.append(f"{name}: {error}")

    def count_rejection(self):
        with self.lock:
            self.report.rejections += 1

    def finish(self, wall_seconds, serial):
        with self.lock:
            self.report.wall_seconds = wall_seconds
            self.report.latency_ms = self.latency_ms.summary()
            self.report.queue_wait_ms = self.queue_wait_ms.summary()
            if serial:
                self.report.simulated = [
                    self.costs[i] for i in sorted(self.costs)
                ]
            return self.report


def run_replay(connection=None, url=None, config=None):
    """Drive a replay workload; returns a :class:`ReplayReport`.

    Exactly one target: *connection* (in-process sessions) or *url* (a
    running ``repro serve`` endpoint).  With ``config.clients == 1`` and a
    query count, the sampled sequence executes serially in order and the
    report carries the ordered per-query simulated costs.
    """
    if (connection is None) == (url is None):
        raise ReproError("run_replay needs exactly one of connection=, url=")
    config = config or ReplayConfig()
    mix = config.mix()
    collector = _Collector(config.clients)
    serial = config.clients == 1 and config.duration is None

    if config.duration is None:
        sequence = mix.sample(config.queries)
        # Round-robin partition keeps the serial (1-client) order exact.
        plans = [
            list(enumerate(sequence))[i::config.clients]
            for i in range(config.clients)
        ]
        deadline = None
    else:
        plans = [None] * config.clients
        deadline = time.monotonic() + config.duration

    run_one = (
        _session_client(connection, config, collector)
        if connection is not None
        else _http_client(url, config, collector)
    )

    def client_loop(client_index):
        if plans[client_index] is not None:
            for index, name in plans[client_index]:
                run_one(index, name)
            return
        rng_stream = client_index + 1
        issued = 0
        batch = mix.sample(1024, stream=rng_stream)
        while time.monotonic() < deadline:
            if issued >= len(batch):
                batch.extend(mix.sample(1024, stream=rng_stream + issued))
            run_one(-1, batch[issued])
            issued += 1

    started = time.monotonic()
    if config.clients == 1:
        client_loop(0)
    else:
        threads = [
            threading.Thread(
                target=client_loop, args=(i,),
                name=f"replay-client-{i}", daemon=True,
            )
            for i in range(config.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.monotonic() - started
    report = collector.finish(wall, serial)
    log.info(
        "replay done: %d/%d completed in %.2fs (%.1f q/s)",
        report.completed, report.issued, wall, report.throughput_qps,
    )
    return report


def _session_client(connection, config, collector):
    """In-process drive: one Session per client thread, direct queries."""
    local = threading.local()

    def run_one(index, name):
        session = getattr(local, "session", None)
        if session is None:
            session = local.session = connection.session(
                default_timeout=config.timeout
            )
        started = time.monotonic()
        try:
            result = session.query(name)
        except QueryTimeout as exc:
            collector.record(index, name, "timeout",
                             (time.monotonic() - started) * 1000.0,
                             error=str(exc))
            return
        except ReproError as exc:
            collector.record(index, name, "failed",
                             (time.monotonic() - started) * 1000.0,
                             error=str(exc))
            return
        collector.record(index, name, "completed",
                         (time.monotonic() - started) * 1000.0,
                         cost=result.cost_dict())

    return run_one


def _http_client(url, config, collector):
    """HTTP drive: POST /v1/query with bounded retry on 429."""
    endpoint = url.rstrip("/") + "/v1/query"

    def run_one(index, name):
        body = {"query": name}
        if config.timeout is not None:
            body["timeout"] = config.timeout
        payload = json.dumps(body).encode("utf-8")
        started = time.monotonic()
        for attempt in range(REJECT_RETRIES + 1):
            request = urllib.request.Request(
                endpoint, data=payload,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    document = json.loads(response.read().decode("utf-8"))
                latency = (time.monotonic() - started) * 1000.0
                collector.record(index, name, "completed", latency,
                                 cost=document.get("cost"),
                                 queue_ms=document.get("queue_ms"))
                return
            except urllib.error.HTTPError as exc:
                status = exc.code
                try:
                    detail = json.loads(exc.read().decode("utf-8")).get(
                        "error", ""
                    )
                except (ValueError, UnicodeDecodeError):
                    detail = ""
                if status == 429 and attempt < REJECT_RETRIES:
                    collector.count_rejection()
                    time.sleep(REJECT_BACKOFF * (attempt + 1))
                    continue
                latency = (time.monotonic() - started) * 1000.0
                outcome = "timeout" if status == 408 else "failed"
                collector.record(index, name, outcome, latency,
                                 error=f"HTTP {status}: {detail}")
                return
            except (urllib.error.URLError, OSError) as exc:
                latency = (time.monotonic() - started) * 1000.0
                collector.record(index, name, "failed", latency,
                                 error=str(exc))
                return

    return run_one


def record_from_replay(report, name="replay", parameters=None, notes=()):
    """Build a ledger :class:`~repro.observe.history.RunRecord` from a
    replay report (``repro replay --record`` / ``repro perf record``).

    Serial single-client replays carry the ordered per-query simulated
    costs as the byte-identity section; concurrent replays record ``None``
    there — interleaving makes per-query buffer-pool state order-dependent,
    so only wall-clock latency and counters are meaningful.
    """
    from datetime import datetime, timezone

    parameters = dict(parameters or {})
    parameters.setdefault("clients", report.clients)
    parameters.setdefault("issued", report.issued)
    notes = list(notes)
    if report.simulated is None:
        notes.append(
            "concurrent replay: per-query simulated costs omitted "
            "(interleaving-dependent buffer-pool state)"
        )
    document = report.to_dict()
    return RunRecord(
        name=name,
        kind="replay",
        recorded_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_sha=git_sha(),
        config_fingerprint=config_fingerprint(parameters),
        parameters=parameters,
        simulated=report.simulated,
        wall_ms=round(report.wall_seconds * 1000.0, 3),
        counters=collect_counters(),
        notes=notes + [
            "latency_ms: " + json.dumps(
                {k: document["latency_ms"].get(k)
                 for k in ("count", "p50", "p95", "p99", "max")},
                sort_keys=True,
            ),
            f"throughput_qps: {document['throughput_qps']}",
        ],
    )
