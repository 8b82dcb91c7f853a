"""Metric names, units and how each is computed.

``BENCHMARK.json`` lists exactly these names (a self-test keeps the two
in step).  End-to-end metrics come from untraced runs and are what a
user of the system sees; per-layer metrics come from the traced run's
spans and the program's own exact counters.  Every workload reports
every metric: a layer a workload bypasses reads 0, which is the
prediction "a change there must not show here" in measurable form.
"""

import collections
import statistics

from perfbench.spans import END, NAME, OP, PARENT, START, layer_of, self_times

#: name, unit, better, bound (share of the parent's median).  The driver's
#: schema has one bound per metric, so the noisiest workload on this box's
#: noisiest day sets it; README.md, "Bounds", has the measured spreads.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("stored_bytes_per_triple", "bytes", "lower", 0.05),
)

#: Given the same seed these repeat bit for bit; compare.py insists.
EXACT = ("stored_bytes_per_triple",)

#: Spans a staged op may open, by name ``<layer>.<stage>``.
OP_STAGES = (
    "engine.pool_clear", "exec.lower", "colstore.run", "rowstore.run",
    "relation.decode", "api.result",
    "sparql.parse", "sparql.plan", "sql.generate", "sql.parse", "sql.plan",
    "analysis.lint", "plan.optimize", "queries.build",
    "server.request", "server.queue_wait", "api.query", "api.serialise",
    "bench.engine_setup", "storage.prepare", "colstore.load",
    "rowstore.load", "cstore.load", "storage.insert",
)

#: Spans of the set-up phase.
SETUP_STAGES = (
    "data.generate", "data.split", "api.connect", "queries.build",
    "server.start",
)

#: Layers (this repository's modules) whose share of op time is reported.
SHARE_LAYERS = (
    "engine", "exec", "colstore", "rowstore", "cstore", "relation", "api",
    "sparql", "sql", "analysis", "plan", "queries", "server", "bench",
    "storage",
)

#: What a cache-missing query pays before the engine runs.
FRONTEND_LAYERS = ("sql", "sparql", "plan", "analysis", "exec", "queries")

#: Exact counts, taken over the first measured round (a fixed op list, so
#: they repeat bit for bit however long the run lasts).
COUNTS = (
    ("engine.sim_ms_per_op", "sim_ms", "lower"),
    ("engine.buffer_hit_ratio", "ratio", "higher"),
    ("engine.buffer_evictions", "count", "lower"),
    ("engine.bytes_transferred", "bytes", "lower"),
    ("api.plan_cache_hit_ratio", "ratio", "higher"),
    ("exec.lowering_cache_hit_ratio", "ratio", "higher"),
    ("server.rejected_429", "count", "lower"),
)

#: Exact values only the workloads that write can supply; others read 0.
EXTRAS = (
    ("storage.insert_bytes_rewritten.vertical", "bytes", "lower"),
    ("storage.insert_bytes_rewritten.triple", "bytes", "lower"),
    ("storage.compress_ratio", "ratio", "higher"),
)

#: Times and rates that every workload measures (none is ever 0), and the
#: diagnostics of the traced run itself.
DERIVED = (
    ("op_staged_mean_ms", "ms", "lower"),
    ("api.query_p99_ms", "ms", "lower"),
    ("relation.decode_us_per_row", "us", "lower"),
    ("dictionary.encode_ktriples_s", "1/s", "higher"),
    ("server.response_bytes_per_op", "bytes", "lower"),
    ("api.unaccounted_share", "ratio", "lower"),
    ("perfbench.trace_overhead_share", "ratio", "lower"),
)

# A stage's cost is listed as its share of op time, not in ms: a layer the
# workload bypasses then reads 0 as a ratio, and no listed *time* is ever a
# constant.  Milliseconds per op are share x op_staged_mean_ms; a traced
# run prints them.
PER_LAYER = (
    tuple((f"share.{stage}", "ratio", "lower") for stage in OP_STAGES)
    + tuple((f"share.{layer}", "ratio", "lower")
            for layer in SHARE_LAYERS + ("frontend", "unattributed"))
    + tuple((f"setup_share.{stage}", "ratio", "lower")
            for stage in SETUP_STAGES)
    + COUNTS
    + EXTRAS
    + DERIVED
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def percentile(values, q):
    """Linear-interpolated *q*-quantile (0..1) of *values*."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def end_to_end(setup_seconds, rounds, stored, peak_rss_kb, calibrator):
    """*rounds* is one list of ``(start, seconds)`` per round: every
    correct op, timed on the public surface.  *calibrator* holds the
    kernel samples of the same run, and every op's time is first put in
    reference seconds by it (:mod:`perfbench.calibrate`); *setup_seconds*
    arrive in reference seconds.

    A round is a fixed mix of ops, so rounds can be compared.  Each
    round's throughput (its ops over the time they took, all of them),
    median and 90th-percentile op latency are taken over its own ops, and
    the run reports the median round: a stretch of seconds during which
    this box stalls moves the rounds it hits, not the run's numbers,
    while a cost the program pays in every round moves them all.
    """
    throughput, p50, p90 = [], [], []
    for ops in rounds:
        times = [calibrator.scaled(start, seconds) for start, seconds in ops]
        throughput.append(len(times) / sum(times))
        p50.append(statistics.median(times))
        p90.append(percentile(times, 0.90))
    stored_bytes, triples = stored
    return {
        "setup_s": statistics.median(setup_seconds),
        "throughput_ops_s": statistics.median(throughput),
        "op_p50_ms": statistics.median(p50) * 1e3,
        "op_p90_ms": statistics.median(p90) * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "stored_bytes_per_triple": stored_bytes / triples,
    }


def per_layer(spans, setup_seconds, public_seconds, first_round, extras,
              rows_returned, n_triples):
    """Every per-layer metric from one traced run.

    *public_seconds* are the public path's op latencies, *first_round* the
    first measured round's counter deltas, simulated seconds and op count,
    *extras* workload-specific exact values.
    """
    own = self_times(spans)
    self_by_stage = collections.Counter()
    setup_by_stage = collections.Counter()
    roots = []
    decode = 0.0
    probe = None
    for i, s in enumerate(spans):
        took = s[END] - s[START]
        if s[NAME] == "dictionary.encode":
            probe = took
        elif s[OP] == "setup":
            if s[PARENT] is None:
                setup_by_stage[s[NAME]] += took
        else:
            # The root of a staged op is "op" (its self time is the glue
            # between stages); serve_http's root is the real request, whose
            # self time is transport and HTTP handling.
            self_by_stage[s[NAME]] += own[i]
            if s[PARENT] is None:
                roots.append(took)
            elif s[NAME] == "relation.decode":
                decode += took
    total = sum(roots)
    self_by_layer = collections.Counter()
    for stage, seconds in self_by_stage.items():
        self_by_layer[layer_of(stage)] += seconds

    out = {f"share.{stage}": self_by_stage[stage] / total
           for stage in OP_STAGES}
    for layer in SHARE_LAYERS:
        out[f"share.{layer}"] = self_by_layer[layer] / total
    out["share.unattributed"] = self_by_stage["op"] / total
    out["share.frontend"] = sum(
        self_by_layer[layer] for layer in FRONTEND_LAYERS
    ) / total
    for stage in SETUP_STAGES:
        out[f"setup_share.{stage}"] = setup_by_stage[stage] / setup_seconds

    counts = first_round["counts"]
    out["engine.sim_ms_per_op"] = (
        first_round["sim_seconds"] * 1e3 / first_round["ops"]
    )
    out["engine.buffer_hit_ratio"] = ratio(
        counts["page_hits"], counts["page_misses"]
    )
    out["engine.buffer_evictions"] = counts["evictions"]
    out["engine.bytes_transferred"] = counts["bytes_transferred"]
    out["api.plan_cache_hit_ratio"] = ratio(
        counts["plan_hits"], counts["plan_misses"]
    )
    out["exec.lowering_cache_hit_ratio"] = ratio(
        counts["lower_hits"], counts["lower_misses"]
    )
    out["server.rejected_429"] = counts["rejected"]
    for name, _unit, _better in EXTRAS:
        out[name] = extras.get(name, 0)

    out["op_staged_mean_ms"] = total * 1e3 / len(roots)
    out["api.query_p99_ms"] = percentile(public_seconds, 0.99) * 1e3
    out["relation.decode_us_per_row"] = decode * 1e6 / max(rows_returned, 1)
    out["dictionary.encode_ktriples_s"] = n_triples / 1e3 / probe
    out["server.response_bytes_per_op"] = extras.get(
        "server.response_bytes_per_op", 0
    )
    covered = total - self_by_stage["server.request"] - self_by_stage["op"]
    out["api.unaccounted_share"] = 1.0 - covered / sum(public_seconds)
    staged = statistics.median(roots)
    public = statistics.median(public_seconds)
    out["perfbench.trace_overhead_share"] = (staged - public) / public
    return out
