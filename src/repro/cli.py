"""Command-line interface.

::

    python -m repro generate --triples 50000 --out barton.nt
    python -m repro query --data barton.nt --sparql 'SELECT ?s WHERE {...}'
    python -m repro query --data barton.nt --scheme triple \\
        --sql "SELECT A.obj, count(*) FROM triples AS A GROUP BY A.obj"
    python -m repro bench --experiment table6 --triples 60000
    python -m repro bench --list
    python -m repro profile q2 --engine column --mode cold
    python -m repro profile q2 --trace-out q2.trace.json
    python -m repro perf record --experiment figure6 --name fig6_smoke
    python -m repro perf compare ci/BENCH_fig6_smoke_baseline.json \\
        BENCH_fig6_smoke.json
    python -m repro perf report --name fig6_smoke
    python -m repro serve --triples 20000 --port 8737 --workers 4
    python -m repro replay --url http://127.0.0.1:8737 --clients 8
    python -m repro replay --triples 20000 --clients 1 --queries 200 \\
        --record replay_smoke
    python -m repro -v verify --triples 20000
    python -m repro analyze q5 --scheme triple
    python -m repro analyze all --strict
    python -m repro analyze --concurrency --static-only
    python -m repro analyze all --concurrency --json
    python -m repro lint
"""

import argparse
import sys

from repro import __version__
from repro.observe.log import configure_logging, get_logger

log = get_logger("cli")


def _add_store_arguments(parser):
    """The store-deployment options shared by profile/analyze/serve/
    replay: load --data if given, else generate."""
    parser.add_argument("--data", help="N-Triples file (default: generate)")
    parser.add_argument("--triples", type=int, default=20_000)
    parser.add_argument("--properties", type=int, default=60)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--engine", choices=("column", "row"), default="column"
    )
    parser.add_argument(
        "--scheme", choices=("vertical", "triple"), default="vertical"
    )
    parser.add_argument("--clustering", default="PSO")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Column-Store Support for RDF Data "
                    "Management: not all swans are white' (VLDB 2008)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable debug logging (place before the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a Barton-like N-Triples dataset"
    )
    generate.add_argument("--triples", type=int, default=100_000)
    generate.add_argument("--properties", type=int, default=222)
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument(
        "--out", default="-", help="output file ('-' for stdout)"
    )

    query = sub.add_parser("query", help="query an N-Triples file")
    query.add_argument("--data", required=True, help="N-Triples file")
    query.add_argument(
        "--engine", choices=("column", "row"), default="column"
    )
    query.add_argument(
        "--scheme", choices=("vertical", "triple"), default="vertical"
    )
    query.add_argument("--clustering", default="PSO")
    group = query.add_mutually_exclusive_group(required=True)
    group.add_argument("--sparql", help="SPARQL SELECT text")
    group.add_argument("--sql", help="SQL text")
    group.add_argument(
        "--benchmark", help="benchmark query name (q1..q8, q2*..q6*)"
    )
    query.add_argument(
        "--mode", choices=("cold", "hot"), default="hot",
        help="run protocol for --benchmark",
    )

    bench = sub.add_parser(
        "bench", help="regenerate one of the paper's tables/figures"
    )
    bench.add_argument(
        "--experiment",
        help="experiment name or comma-separated list (e.g. "
             "'table6' or 'figure6,figure7'); 'all' runs every experiment",
    )
    bench.add_argument("--triples", type=int, default=60_000)
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for experiment cells (default: "
             "REPRO_BENCH_JOBS or 1; results are byte-identical to serial)",
    )
    bench.add_argument(
        "--workers", type=int, default=None,
        help="intra-query degree of parallelism on the column-store "
             "engines (sets REPRO_WORKERS for the run; results and "
             "simulated timings are byte-identical at any value)",
    )
    bench.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable results (timings + wall-clock "
             "meta) to PATH ('-' for stdout instead of the rendered text)",
    )
    bench.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk artifact cache (datasets, store payloads)",
    )
    bench.add_argument(
        "--list", action="store_true", help="list experiment names"
    )

    profile = sub.add_parser(
        "profile",
        help="EXPLAIN ANALYZE a query: per-operator rows, simulated time, "
             "buffer and disk activity",
    )
    profile.add_argument(
        "query",
        help="benchmark query name (q1..q8, q2*..q6*), SPARQL, or SQL",
    )
    _add_store_arguments(profile)
    profile.add_argument("--mode", choices=("cold", "hot"), default="cold")
    profile.add_argument(
        "--workers", type=int, default=None,
        help="intra-query degree of parallelism (sets REPRO_WORKERS; "
             "per-morsel child spans appear under the scan and union spans)",
    )
    profile.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable profile document",
    )
    profile.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="also write the span tree as Chrome trace-event JSON "
             "(open in Perfetto or chrome://tracing)",
    )

    perf = sub.add_parser(
        "perf",
        help="the performance observatory: record runs into the ledger, "
             "compare snapshots under regression policies, report history",
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    record = perf_sub.add_parser(
        "record",
        help="run an experiment, append a RunRecord to the ledger and "
             "write a BENCH_<name>.json snapshot",
    )
    record.add_argument(
        "--experiment", required=True,
        help="experiment name or comma-separated list (same names as "
             "'repro bench')",
    )
    record.add_argument("--name", default=None,
                        help="run name (default: the experiment list)")
    record.add_argument("--triples", type=int, default=60_000)
    record.add_argument("--seed", type=int, default=42)
    record.add_argument(
        "--perf-dir", default=None,
        help="ledger directory (default: REPRO_PERF_DIR or .repro/perf)",
    )
    record.add_argument(
        "--snapshot-dir", default=".",
        help="where BENCH_<name>.json is written (default: cwd)",
    )
    record.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk artifact cache",
    )
    record.add_argument(
        "--compress", choices=("physical",), default=None,
        help="enable columnar compression on the column-store engines "
             "(sets REPRO_COMPRESS for the run; recorded as a run "
             "parameter so compressed and uncompressed baselines get "
             "distinct config fingerprints)",
    )
    record.add_argument(
        "--workers", type=int, default=None,
        help="intra-query degree of parallelism (sets REPRO_WORKERS; "
             "NOT part of the config fingerprint — simulated costs are "
             "identical at any value, so serial and parallel snapshots "
             "stay byte-identity comparable; the morsel counters land "
             "in the snapshot's counters section)",
    )

    compare = perf_sub.add_parser(
        "compare",
        help="compare two run snapshots; exits 1 when the simulated costs "
             "or the configuration differ (wall-clock is informational)",
    )
    compare.add_argument("baseline", help="baseline BENCH_<name>.json")
    compare.add_argument("current", help="current BENCH_<name>.json")
    compare.add_argument(
        "--json", action="store_true",
        help="emit the comparison as a JSON document",
    )

    report = perf_sub.add_parser(
        "report", help="render the run-history ledger"
    )
    report.add_argument("--name", default=None,
                        help="only runs with this name")
    report.add_argument("--limit", type=int, default=20,
                        help="most recent N entries (default 20)")
    report.add_argument(
        "--perf-dir", default=None,
        help="ledger directory (default: REPRO_PERF_DIR or .repro/perf)",
    )
    report.add_argument(
        "--json", action="store_true",
        help="emit the matching records as a JSON document",
    )

    serve = sub.add_parser(
        "serve",
        help="run the concurrent query server (HTTP JSON API over one "
             "shared store; see docs/serving.md)",
    )
    _add_store_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8737,
        help="listen port (0 picks a free port; default 8737)",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="session worker threads (default 4)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="admission queue capacity; further queries get HTTP 429 "
             "(default 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="default per-query timeout in seconds (none by default)",
    )
    serve.add_argument(
        "--max-dop", type=int, default=None,
        help="admission cap on per-query intra-query parallelism; "
             "requests asking for more workers are clamped, never "
             "rejected (default: no cap)",
    )

    replay = sub.add_parser(
        "replay",
        help="replay a Zipf-skewed benchmark-query workload against a "
             "server URL or an in-process store; reports p50/p95/p99 "
             "latency and throughput",
    )
    _add_store_arguments(replay)
    replay.add_argument(
        "--url", default=None,
        help="base URL of a running 'repro serve' (default: drive an "
             "in-process store built from the store options)",
    )
    replay.add_argument(
        "--clients", type=int, default=4,
        help="concurrent client threads (default 4)",
    )
    replay.add_argument(
        "--queries", type=int, default=200,
        help="total queries across all clients (default 200)",
    )
    replay.add_argument(
        "--duration", type=float, default=None,
        help="run for this many seconds instead of a fixed query count",
    )
    replay.add_argument(
        "--timeout", type=float, default=None,
        help="per-query timeout in seconds",
    )
    replay.add_argument(
        "--workload-seed", type=int, default=17,
        help="RNG seed for the query mix (default 17; --seed seeds the "
             "generated dataset)",
    )
    replay.add_argument(
        "--exponent", type=float, default=1.0,
        help="Zipf exponent of the query-frequency skew (default 1.0)",
    )
    replay.add_argument(
        "--only", default=None,
        help="comma-separated benchmark query subset (default: all)",
    )
    replay.add_argument(
        "--record", metavar="NAME", default=None,
        help="append the run to the perf ledger and write "
             "BENCH_<NAME>.json",
    )
    replay.add_argument(
        "--perf-dir", default=None,
        help="ledger directory (default: REPRO_PERF_DIR or .repro/perf)",
    )
    replay.add_argument(
        "--snapshot-dir", default=".",
        help="where BENCH_<NAME>.json is written (default: cwd)",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="emit the replay report as a JSON document",
    )

    verify = sub.add_parser(
        "verify",
        help="cross-check every engine x scheme against the reference "
             "evaluator on all benchmark queries",
    )
    verify.add_argument("--triples", type=int, default=10_000)
    verify.add_argument("--properties", type=int, default=60)
    verify.add_argument("--seed", type=int, default=42)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: lint a query plan without executing it "
             "and/or check the codebase's concurrency discipline",
    )
    analyze.add_argument(
        "query", nargs="?", default=None,
        help="benchmark query name (q1..q8, q2*..q6*, or 'all'), SPARQL, "
             "or SQL (optional when --concurrency is given)",
    )
    _add_store_arguments(analyze)
    analyze.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on ANY diagnostic, informational notes "
             "included (default: only warnings and errors fail)",
    )
    analyze.add_argument(
        "--physical", action="store_true",
        help="lower the plan through the selected engine's operator "
             "registry and run the physical rule set too",
    )
    analyze.add_argument(
        "--concurrency", action="store_true",
        help="also run the concurrency-safety heads: the static "
             "guarded-by and leaf-lock pass and — unless --static-only "
             "— the runtime race/determinism harness",
    )
    analyze.add_argument(
        "--static-only", action="store_true",
        help="with --concurrency: run only the static checks, skipping "
             "the runtime harness",
    )
    analyze.add_argument(
        "--json", action="store_true",
        help="emit one machine-readable document covering every section "
             "run (schema documented in docs/static-analysis.md)",
    )

    lint = sub.add_parser(
        "lint",
        help="run the source rules (code invariants, guarded-by, leaf "
             "locks) over the codebase; any violation fails",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: the installed "
             "repro package)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit violations as a JSON document",
    )

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    handler = {
        "generate": _command_generate,
        "query": _command_query,
        "bench": _command_bench,
        "profile": _command_profile,
        "verify": _command_verify,
        "analyze": _command_analyze,
        "lint": _command_lint,
        "perf": _command_perf,
        "serve": _command_serve,
        "replay": _command_replay,
    }[args.command]
    return handler(args)


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _command_generate(args):
    from repro.data import generate_barton
    from repro.model.parser import serialize_ntriples

    dataset = generate_barton(
        n_triples=args.triples,
        n_properties=args.properties,
        n_interesting=min(28, args.properties),
        seed=args.seed,
    )
    text = serialize_ntriples(dataset.triples)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)
        log.info(
            "wrote %d triples (%d properties) to %s",
            len(dataset.triples), len(dataset.properties), args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def _command_query(args):
    import repro.api as api

    with open(args.data) as handle:
        text = handle.read()
    connection = api.connect(
        ntriples=text,
        engine=args.engine,
        scheme=args.scheme,
        clustering=args.clustering,
    )

    with connection.session() as session:
        if args.sparql:
            for binding in session.query(args.sparql).bindings():
                print("\t".join(f"?{k}={v}" for k, v in binding.items()))
        elif args.sql:
            for row in session.query(args.sql):
                print("\t".join(str(v) for v in row))
        else:
            result = session.query(args.benchmark, mode=args.mode)
            for row in result:
                print("\t".join(str(v) for v in row))
            timing = result.cost
            log.info(
                "-- %s %s: real %.6fs, user %.6fs, %d bytes read",
                args.benchmark, args.mode, timing.real_seconds,
                timing.user_seconds, timing.bytes_read,
            )
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

_EXPERIMENTS = {
    "table1": ("experiment_table1", True),
    "figure1": ("experiment_figure1", True),
    "table2": ("experiment_table2", False),
    "table3": ("experiment_table3", False),
    "table4": ("experiment_table4", True),
    "table5": ("experiment_table5", True),
    "figure5": ("experiment_figure5", True),
    "table6": ("experiment_table6", True),
    "table7": ("experiment_table7", True),
    "figure6": ("experiment_figure6", True),
    "figure7": ("experiment_figure7", True),
    "compression": ("experiment_compression", True),
    "scaling": ("experiment_scaling", True),
}


def _command_bench(args):
    import json
    import os

    if args.list or not args.experiment:
        for name in _EXPERIMENTS:
            print(name)
        return 0
    if args.experiment == "all":
        names = list(_EXPERIMENTS)
    else:
        names = [n.strip() for n in args.experiment.split(",") if n.strip()]
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        log.error(
            "unknown experiment(s) %s; choose from %s",
            ", ".join(map(repr, unknown)), ", ".join(_EXPERIMENTS),
        )
        return 2

    if args.no_cache:
        os.environ["REPRO_CACHE_DISABLE"] = "1"
    if args.workers is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)

    results = _run_experiments(names, args, jobs=args.jobs)

    if args.json != "-":
        for item in results:
            print(item.render())
            print()
    if args.json:
        document = json.dumps(
            [item.to_dict() for item in results], indent=2, sort_keys=True
        )
        if args.json == "-":
            print(document)
        else:
            with open(args.json, "w") as handle:
                handle.write(document + "\n")
            log.info("wrote %d experiment result(s) to %s",
                     len(results), args.json)
    return 0


def _run_experiments(names, args, jobs=None):
    """Run the named experiments; returns the flat result list.  Shared by
    ``repro bench`` and ``repro perf record`` (*args* needs ``triples`` and
    ``seed``)."""
    import inspect

    from repro.bench import experiments

    dataset = None  # generated once, shared by every requested experiment
    results = []
    for name in names:
        function_name, needs_dataset = _EXPERIMENTS[name]
        driver = getattr(experiments, function_name)
        kwargs = {}
        if jobs is not None:
            if "jobs" in inspect.signature(driver).parameters:
                kwargs["jobs"] = jobs
        if needs_dataset:
            if dataset is None:
                dataset = _bench_dataset(args)
            result = driver(dataset, **kwargs)
        else:
            result = driver(**kwargs)
        results.extend(result if isinstance(result, list) else [result])
    return results


def _bench_dataset(args):
    """The benchmark dataset — served from the artifact cache when enabled."""
    from repro.bench.artifacts import cache_disabled, cached_dataset
    from repro.data import generate_barton

    if cache_disabled():
        return generate_barton(n_triples=args.triples, seed=args.seed)
    return cached_dataset(n_triples=args.triples, seed=args.seed)


def _store_from_args(args):
    """An RDFStore for the profile/analyze subcommands: load --data if
    given, otherwise generate a deterministic Barton-like dataset."""
    from repro.core import RDFStore

    if args.data:
        with open(args.data) as handle:
            text = handle.read()
        log.debug("loading %s", args.data)
        return RDFStore.from_ntriples(
            text,
            engine=args.engine,
            scheme=args.scheme,
            clustering=args.clustering,
        )
    from repro.data import generate_barton

    log.debug("generating %d triples (seed %d)", args.triples, args.seed)
    dataset = generate_barton(
        n_triples=args.triples,
        n_properties=args.properties,
        n_interesting=min(28, args.properties),
        seed=args.seed,
    )
    return RDFStore.from_triples(
        dataset.triples,
        engine=args.engine,
        scheme=args.scheme,
        clustering=args.clustering,
    )


def _command_profile(args):
    import json
    import os

    if args.workers is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)
    store = _store_from_args(args)
    with store.connection().session() as session:
        profile = session.profile(args.query, mode=args.mode)
    if args.json:
        print(profile.to_json())
    else:
        print(profile.render())
    if args.trace_out:
        document = profile.to_chrome_trace()
        with open(args.trace_out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        log.info(
            "wrote %d trace event(s) to %s (open in https://ui.perfetto.dev)",
            len(document["traceEvents"]), args.trace_out,
        )
    return 0


# ---------------------------------------------------------------------------
# serve / replay: the concurrent query server
# ---------------------------------------------------------------------------

def _command_serve(args):
    from repro.server import QueryServer

    store = _store_from_args(args)
    server = QueryServer(
        store.connection(),
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_timeout=args.timeout,
        max_dop=args.max_dop,
    )
    dop = getattr(store.engine, "workers", 1)
    print(
        f"serving {store.engine_kind}/{store.scheme} "
        f"({store.n_triples} triples) at {server.address} "
        f"[{args.workers} workers, queue {args.queue_depth}, "
        f"dop {dop}"
        + (f" (max {args.max_dop})" if args.max_dop else "")
        + "]"
    )
    print("POST /v1/query  GET /v1/stats  GET /metrics  (Ctrl-C to stop)")
    server.serve_forever()
    return _report_race_violations()


def _report_race_violations():
    """Exit status for race-checked runs: 1 when the write barrier
    (REPRO_RACE_CHECK=1) recorded any unguarded concurrent mutation."""
    from repro.observe.race import race_check_enabled, race_report

    if not race_check_enabled():
        return 0
    report = race_report()
    if not report["violation_count"]:
        log.info("race check: %d structure(s) tracked, no violations",
                 len(report["structures"]))
        return 0
    print(
        f"race check FAILED: {report['violation_count']} unguarded "
        "concurrent mutation(s)", file=sys.stderr,
    )
    for event in report["violations"]:
        print(
            f"  {event['structure']}: {event['op']} on thread "
            f"{event['thread']} without {event['lock']}", file=sys.stderr,
        )
    return 1


def _command_replay(args):
    import json

    from repro.server import ReplayConfig, record_from_replay, run_replay

    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
    config = ReplayConfig(
        clients=args.clients,
        queries=args.queries,
        duration=args.duration,
        timeout=args.timeout,
        seed=args.workload_seed,
        exponent=args.exponent,
        names=names,
    )
    if args.url:
        report = run_replay(url=args.url, config=config)
    else:
        if args.record:
            from repro.observe.history import reset_counters

            reset_counters()
        store = _store_from_args(args)
        report = run_replay(connection=store.connection(), config=config)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary_text())
    if args.record:
        from repro.observe.history import RunLedger, write_snapshot

        record = record_from_replay(
            report, name=args.record,
            parameters={
                "clients": args.clients,
                "queries": args.queries,
                "duration": args.duration,
                "workload_seed": args.workload_seed,
                "exponent": args.exponent,
                "only": names,
                "url": args.url,
                "triples": None if args.url else args.triples,
                "seed": None if args.url else args.seed,
            },
        )
        ledger = RunLedger(args.perf_dir)
        ledger_path = ledger.append(record)
        snapshot = write_snapshot(record, args.snapshot_dir)
        print(
            f"recorded {args.record}: "
            f"fingerprint {record.config_fingerprint[:12]}\n"
            f"  ledger   {ledger_path}\n"
            f"  snapshot {snapshot}"
        )
    # In-process replay shares our interpreter; honor the write barrier
    # the same way `repro serve` does (no-op against a remote --url).
    race_failed = 0 if args.url else _report_race_violations()
    return 1 if (report.failed or report.timeouts or race_failed) else 0


# ---------------------------------------------------------------------------
# perf: the performance observatory
# ---------------------------------------------------------------------------

def _command_perf(args):
    handler = {
        "record": _command_perf_record,
        "compare": _command_perf_compare,
        "report": _command_perf_report,
    }[args.perf_command]
    return handler(args)


def _command_perf_record(args):
    import os

    from repro.observe.history import (
        RunLedger,
        record_from_results,
        reset_counters,
        write_snapshot,
    )

    names = [n.strip() for n in args.experiment.split(",") if n.strip()]
    if args.experiment == "all":
        names = list(_EXPERIMENTS)
    unknown = [n for n in names if n not in _EXPERIMENTS]
    if unknown:
        log.error(
            "unknown experiment(s) %s; choose from %s",
            ", ".join(map(repr, unknown)), ", ".join(_EXPERIMENTS),
        )
        return 2
    if args.no_cache:
        os.environ["REPRO_CACHE_DISABLE"] = "1"
    compression = args.compress or os.environ.get("REPRO_COMPRESS") or None
    if compression:
        os.environ["REPRO_COMPRESS"] = compression
    # Deliberately NOT a fingerprint parameter: simulated costs are
    # byte-identical at any degree of parallelism, so serial baselines
    # gate parallel runs (the CI parity job depends on this).
    if args.workers is not None:
        os.environ["REPRO_WORKERS"] = str(args.workers)

    run_name = args.name or "_".join(names)
    parameters = {
        "experiments": names,
        "triples": args.triples,
        "seed": args.seed,
    }
    if compression:
        # Part of the fingerprint: compressed and raw runs are only
        # comparable with themselves (physical mode changes I/O costs).
        parameters["compression"] = compression
    # Serial on purpose: the process-wide counters (buffer pool, lowering
    # cache, scheduler) only see work done in this process.
    reset_counters()
    results = _run_experiments(names, args, jobs=1)
    record = record_from_results(run_name, results, parameters=parameters)
    ledger = RunLedger(args.perf_dir)
    ledger_path = ledger.append(record)
    snapshot = write_snapshot(record, args.snapshot_dir)
    wall = f"{record.wall_ms:.1f}ms" if record.wall_ms is not None else "n/a"
    print(
        f"recorded {run_name}: wall {wall}, "
        f"fingerprint {record.config_fingerprint[:12]}\n"
        f"  ledger   {ledger_path}\n"
        f"  snapshot {snapshot}"
    )
    return 0


def _command_perf_compare(args):
    import json

    from repro.observe.history import load_snapshot
    from repro.observe.regression import compare_records

    try:
        baseline = load_snapshot(args.baseline)
        current = load_snapshot(args.current)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        log.error("cannot load snapshot: %s", exc)
        return 2
    comparison = compare_records(baseline, current)
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        print(comparison.render())
    return 0 if comparison.ok else 1


def _command_perf_report(args):
    import json

    from repro.observe.history import RunLedger

    ledger = RunLedger(args.perf_dir)
    records = ledger.records(name=args.name, limit=args.limit)
    if args.json:
        print(json.dumps(
            [record.to_dict() for record in records],
            indent=2, sort_keys=True,
        ))
        return 0
    if not records:
        print(f"no runs recorded in {ledger.path}")
        return 0
    print(f"{'recorded_at':<26} {'name':<24} {'sha':<8} "
          f"{'fingerprint':<12} {'wall_ms':>10}")
    for record in records:
        sha = (record.git_sha or "-")[:8]
        wall = (
            f"{record.wall_ms:.1f}" if record.wall_ms is not None else "-"
        )
        print(
            f"{record.recorded_at:<26} {record.name:<24} {sha:<8} "
            f"{record.config_fingerprint[:12]:<12} {wall:>10}"
        )
    return 0


def _command_analyze(args):
    import json

    sections = []
    if args.query is not None:
        sections.append("plan")
    if args.concurrency:
        sections.append("concurrency")
    if not sections:
        log.error(
            "nothing to analyze: give a query and/or --concurrency"
        )
        return 2

    document = {"version": 1, "sections": sections}
    lines = []  # text report, printed unless --json
    failing = 0

    if "plan" in sections:
        report, plan_failing = _analyze_plan_section(args)
        failing += plan_failing
        document["plan"] = {
            query: [d.to_dict() for d in diagnostics]
            for query, diagnostics in report.items()
        }
        for query, diagnostics in report.items():
            if not diagnostics:
                lines.append(f"{query}: clean")
                continue
            lines.append(f"{query}: {len(diagnostics)} finding(s)")
            lines.extend(f"  {d.render()}" for d in diagnostics)
        threshold = "any severity" if args.strict else "warning+"
        count = len(report)
        lines.append(
            f"analyzed {count} quer{'y' if count == 1 else 'ies'}: "
            f"{plan_failing} finding(s) at {threshold}"
        )

    if "concurrency" in sections:
        section, conc_failing = _analyze_concurrency_section(
            static_only=args.static_only
        )
        failing += conc_failing
        document["concurrency"] = section
        violations = section["violations"]
        lines.extend(v["rendered"] for v in violations)
        nested = sum(v["rule"] == "lock-not-leaf" for v in violations)
        leaves = f"{nested} nesting(s)" if nested else "all leaves"
        lines.append(
            f"concurrency: {len(violations)} violation(s) "
            f"[{len(section['locks'])} locks, {leaves}]"
        )
        runtime = section["runtime"]
        if runtime is not None:
            determinism = runtime["determinism"]
            lines.append(
                f"runtime: {determinism['queries']} queries x "
                f"{determinism['threads']} threads — determinism "
                f"{'OK' if determinism['identical'] else 'MISMATCH'}, "
                f"{runtime['race']['violation_count']} race violation(s)"
            )

    document["ok"] = failing == 0
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 1 if failing else 0


def _analyze_plan_section(args):
    """Plan diagnostics per query: ``({query: [Diagnostic]}, failing)``."""
    from repro.analysis import WARNING, plan_lint, worst
    from repro.queries import ALL_QUERY_NAMES

    # The analyzer reports findings itself; suppress the frontends' own
    # warn-mode logging so nothing is reported twice.
    previous_mode = plan_lint._lint_mode
    plan_lint.set_lint_mode("off")
    try:
        store = _store_from_args(args)

        queries = (
            list(ALL_QUERY_NAMES) if args.query == "all" else [args.query]
        )
        report = {}
        failing = 0
        for query in queries:
            diagnostics = store.analyze(query, physical=args.physical)
            report[query] = diagnostics
            failing += len(
                diagnostics if args.strict
                else worst(diagnostics, at_least=WARNING)
            )
    finally:
        plan_lint._lint_mode = previous_mode
    return report, failing


def _analyze_concurrency_section(static_only):
    """The concurrency section: the static pass (+ runtime)."""
    from repro.analysis import scan_paths

    violations, locks = scan_paths()
    section = {
        "violations": [
            dict(v.to_dict(), rendered=v.render()) for v in violations
        ],
        "locks": locks,
        "runtime": None,
    }
    failing = len(violations)
    if not static_only:
        from repro.analysis.concurrency.determinism import (
            run_concurrency_harness,
        )

        runtime = run_concurrency_harness()
        section["runtime"] = runtime
        if not runtime["ok"]:
            failing += 1
    return section, failing


def _command_lint(args):
    import json

    from repro.analysis import check_paths, lint_paths

    paths = args.paths or None  # None: the installed repro package
    violations = lint_paths(paths)
    concurrency = check_paths(paths)

    if args.json:
        print(json.dumps(
            {
                "violations": [v.to_dict() for v in violations],
                "concurrency": {
                    "violations": [v.to_dict() for v in concurrency],
                },
            },
            indent=2, sort_keys=True,
        ))
    else:
        for v in violations + concurrency:
            print(v.render())
        print(f"{len(violations)} violation(s)")
        print(f"{len(concurrency)} concurrency violation(s)")
    return 1 if (violations or concurrency) else 0


def _command_verify(args):
    from repro.data import generate_barton
    from repro.verify import verify_dataset

    dataset = generate_barton(
        n_triples=args.triples,
        n_properties=args.properties,
        n_interesting=min(28, args.properties),
        seed=args.seed,
    )
    result = verify_dataset(dataset)
    print(result.render())
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
