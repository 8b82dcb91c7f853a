"""perfbench runner.

Two ways in:

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload, the form ``BENCHMARK.json`` pins.  Prints
    every metric by name with its unit and sample count, then — as the
    last line — one JSON object ``{correct, attempted, failed, metrics}``:
    the end-to-end metrics untraced, the per-layer metrics traced.

``python3 perfbench/run.py [--seed N] [--trace] [--repeats R] [--out F]``
    Every workload, each run in a fresh process, *R* untraced runs (the
    median is reported) plus one traced run with ``--trace``; writes the
    whole set to *F* for ``compare.py``.

Exits non-zero when any op failed or any output was wrong.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Settings of the program that would change what is measured; every
#: process of a run has them removed, so the numbers are the defaults'.
SCRUBBED = ("REPRO_WORKERS", "REPRO_COMPRESS", "REPRO_LINT",
            "REPRO_MORSEL_ROWS", "REPRO_RACE_CHECK")
SCRUBBED_PREFIX = "REPRO_BENCH_"


def scrub_environment():
    """Make this process (and every child) measure the program's
    defaults, and keep it away from ``~/.cache/repro``."""
    for key in list(os.environ):
        if key in SCRUBBED or key.startswith(SCRUBBED_PREFIX):
            del os.environ[key]
    scratch = os.path.join(OUT, "scratch")
    os.environ["REPRO_CACHE_DISABLE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    os.environ["REPRO_PERF_DIR"] = os.path.join(scratch, "perf")


def import_program():
    """Put this checkout's ``src`` and perfbench itself on the path."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"perfbench: no program to measure: {source}/repro is missing")
    sys.path[:0] = [source, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(source):
        sys.exit(f"perfbench: measuring {repro.__file__}, not this checkout")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def environment():
    """The recorded environment block."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "scrubbed": list(SCRUBBED) + [SCRUBBED_PREFIX + "*"],
    }


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------

def same_answer(public, staged):
    """Did the staged pipeline return what the public path returned?"""
    from perfbench.gen import rows_digest

    if (public.rows is None) != (staged.rows is None):
        return False
    if public.rows is not None and (
        rows_digest(public.rows) != rows_digest(staged.rows)
    ):
        return False
    if public.cost != staged.cost:
        return False
    a, b = public.info or {}, staged.info or {}
    return a.get("database_bytes") == b.get("database_bytes")


def measure(workload, seconds, tracer):
    """Run whole rounds until *seconds* have passed; check every op."""
    from perfbench.calibrate import Calibrator

    calibrator = Calibrator()
    calibrator.sample(20)
    rounds, public_seconds = [], []
    attempted = failed = rows_returned = 0
    staged = None
    first = {}
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        ops = workload.round(index)
        if index == 1:
            before = workload.counters()
        latencies = []
        simulated = 0.0
        for number, op in enumerate(ops):
            attempted += 1
            calibrator.sample_if_due()
            try:
                start = time.perf_counter()
                if tracer is not None:
                    tracer.op = f"{index}.{number}"
                    outcome, staged, took = workload.run_traced(op)
                    ok = same_answer(outcome, staged)
                else:
                    outcome = workload.run(op)
                    took = time.perf_counter() - start
                    ok = True
                ok = workload.check(op, outcome, took, thorough=index == 1) and ok
            except Exception:
                # An op that raises is a failed op, not a crashed run.
                traceback.print_exc()
                ok = False
            if not ok:
                failed += 1
                if failed <= 5:
                    print(f"FAILED op {index}.{number}: {json.dumps(op)[:300]}",
                          file=sys.stderr)
                continue
            latencies.append((start, took))
            public_seconds.append(took)
            if outcome.cost is not None:
                simulated += outcome.cost["real_seconds"]
            if outcome.rows is not None:
                rows_returned += len(outcome.rows)
            outcome = staged = None
            if workload.collect_after_op:
                gc.collect()
        # Between rounds, never inside an op: neither an op's time nor the
        # peak RSS should depend on when the collector last ran.
        gc.collect()
        rounds.append(latencies)
        if index == 1:
            after = workload.counters()
            after.subtract(before)
            first = {"counts": after, "sim_seconds": simulated,
                     "ops": len(ops)}
        index += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "rounds": rounds, "public_seconds": public_seconds,
        "attempted": attempted, "failed": failed,
        "rows_returned": rows_returned, "first_round": first,
        "calibrator": calibrator,
    }


def peak_rss_kb():
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


#: Set-ups per untraced run, each in a fresh process; their median is
#: ``setup_s``.  One set-up is a single sample of a second or so on a
#: shared box.  A traced run reports no set-up time and a smoke run only
#: checks that it works, so they set up once.
SETUPS = 5

#: Kernel samples taken before and again after a set-up, to scale it by.
SETUP_KERNEL_SAMPLES = 30


def timed_setup(workload, tracer=None):
    """Reference seconds (:mod:`perfbench.calibrate`) *workload* takes
    from nothing to its first timed op."""
    from perfbench.calibrate import Calibrator

    calibrator = Calibrator()
    calibrator.sample(SETUP_KERNEL_SAMPLES)
    start = time.perf_counter()
    try:
        workload.setup(tracer)
    except BaseException:
        workload.close()
        raise
    took = time.perf_counter() - start
    calibrator.sample(SETUP_KERNEL_SAMPLES)
    # Both bursts of samples lie within the calibrator's window.
    return calibrator.scaled(start, took)


def fresh_setup(name, seed):
    """Reference seconds one more set-up takes, in a process of its own:
    as cold as the first, and leaving nothing behind in this one's peak
    RSS."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, smoke):
    """Set up, verify, measure and report one workload; returns the
    result document whose JSON is the run's last output line."""
    from perfbench import metrics, spans, workloads

    tracer = spans.Tracer() if trace else None
    workload = workloads.WORKLOADS[name](seed, smoke)
    setup_seconds = [timed_setup(workload, tracer)]
    try:
        workload.verify()
        if tracer is not None:
            workloads.probe_dictionary(tracer, workload.dataset.triples)
        # The inputs perfbench holds (a few hundred thousand Triple
        # objects) are not the program's garbage: keep the collector from
        # walking them during timed ops.
        gc.collect()
        gc.freeze()
        measured = measure(workload, seconds, tracer)
        failed = measured["failed"] + workload.finish()
        # Numbers from a run that got answers wrong describe nothing.
        values = {}
        if failed == 0 and tracer is None:
            stored = workload.stored()
            # A child's peak RSS is known only once it has been waited
            # for — and must be read before the set-up processes below
            # are children of this one too.
            workload.close()
            peak = peak_rss_kb()
            if not smoke:
                setup_seconds += [fresh_setup(name, seed)
                                  for _ in range(SETUPS - 1)]
            values = metrics.end_to_end(
                setup_seconds, measured["rounds"], stored, peak,
                measured["calibrator"],
            )
        elif failed == 0:
            values = metrics.per_layer(
                tracer.spans, setup_seconds[0], measured["public_seconds"],
                measured["first_round"], workload.extras(),
                measured["rows_returned"], len(workload.dataset.triples),
            )
    finally:
        workload.close()

    if values and tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"trace_{name}.json"), "w") as handle:
            json.dump(spans.chrome_trace(
                tracer.spans, {"workload": name, "seed": seed},
            ), handle)

    samples = sum(len(r) for r in measured["rounds"])
    calibrator = measured["calibrator"]
    print(f"# {name}: seed {seed}, {len(measured['rounds'])} rounds, "
          f"{samples} correct ops of {measured['attempted']} attempted, "
          f"{failed} failed, {len(setup_seconds)} set-ups; calibration "
          f"kernel took {statistics.median(calibrator.seconds) * 1e3:.4f} "
          f"ms (median of {len(calibrator.seconds)} samples), times are "
          f"scaled to a kernel of 1 ms")
    for metric, value in values.items():
        print(f"{name:15s} {metric:42s} {value:16.6f} "
              f"{metrics.UNITS[metric]:8s} n={samples}")
    if values and tracer is not None:
        # The listed stage metrics are shares; in ms per op they read:
        for stage in metrics.OP_STAGES:
            share = values[f"share.{stage}"]
            if share:
                print(f"{name:15s} {stage + ' (derived)':42s} "
                      f"{share * values['op_staged_mean_ms']:16.6f} "
                      f"{'ms/op':8s} n={samples}")
    return {
        "correct": failed == 0,
        "attempted": measured["attempted"],
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": metrics.UNITS[metric]}
            for metric, value in values.items()
        },
    }


# ----------------------------------------------------------------------
# every workload, each run in a fresh process
# ----------------------------------------------------------------------

def run_child(args, name, trace):
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(int(trace)),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench: {name} printed no result (exit {done.returncode})")
    return json.loads(lines[-1])


def run_all(args):
    spec = load_spec()
    document = {
        "environment": environment(), "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    correct = True
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [run_child(args, name, False) for _ in range(args.repeats)]
        record = {
            "runs": runs,
            "median": {
                metric: statistics.median(
                    run["metrics"][metric]["value"] for run in runs
                )
                for metric in runs[0]["metrics"]
            },
        }
        if args.trace:
            record["traced"] = run_child(args, name, True)
            runs = runs + [record["traced"]]
        correct = correct and all(run["correct"] for run in runs)
        document["workloads"][name] = record

    print(f"\n{'workload':15s} {'metric':26s} {'median':>14s} unit     runs")
    for name, record in document["workloads"].items():
        for metric, value in record["median"].items():
            unit = record["runs"][0]["metrics"][metric]["unit"]
            print(f"{name:15s} {metric:26s} {value:14.4f} {unit:8s} "
                  f"{len(record['runs'])}")
        failed = sum(run["failed"] for run in record["runs"])
        attempted = sum(run["attempted"] for run in record["runs"])
        print(f"{name:15s} {'failed_share':26s} {failed / attempted:14.4f} "
              f"{'ratio':8s} {len(record['runs'])}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: staged, span-recording run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets and one round: a self-test")
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced runs per workload (all-workload form)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up once, print the seconds "
                             "it took and stop (what a run starts for its "
                             "further set-ups)")
    parser.add_argument("--out", help="write the result set here")
    args = parser.parse_args(argv)

    scrub_environment()
    import_program()
    if args.seconds is None:
        args.seconds = 0.2 if args.smoke else load_spec()["run_seconds"]
    if args.smoke:
        args.repeats = 1

    if args.workload is None:
        return 0 if run_all(args) else 1
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
        took = timed_setup(workload)
        workload.close()
        print(repr(took))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
