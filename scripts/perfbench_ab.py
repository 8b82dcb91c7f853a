#!/usr/bin/env python3
"""Parent/change A/B of the wall-clock benchmark — the protocol behind a
performance claim (docs/benchmarking.md, "Wall-clock A/B"), as a command.

    python scripts/perfbench_ab.py --parent <sha> --workload col_exec \\
        --pairs 10 --also row_exec,adhoc_frontend,serve_http,deploy_write

``git archive`` puts the parent commit in a temporary directory; each pair
then runs the command ``BENCHMARK.json`` pins (``perfbench/run.py``, which
this script only invokes) once in the parent's tree and once in this
checkout, same seed, back to back, and the side that goes first alternates
from pair to pair.  Every run made is listed; per workload and end-to-end
metric the record gives each side's median and quartiles and how many
pairs the change won (ties count for neither).  One extra ``--trace 1``
pair on the claimed workload records the per-layer split and checks that
the counts that must repeat exactly do.

The record (schema ``perfbench-ab/1``, the shape of
``BENCH_adhoc_frontend.json``) is rewritten after every pair, so an
interrupted session keeps the runs it made.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")

#: Traced metrics that repeat bit for bit on one commit, so any difference
#: between the sides is the change's.
EXACT = (
    "engine.sim_ms_per_op", "engine.bytes_transferred",
    "engine.buffer_hit_ratio", "engine.buffer_evictions",
    "api.plan_cache_hit_ratio", "exec.lowering_cache_hit_ratio",
)


def run_once(checkout, spec, workload, seed, trace):
    """One benchmark run in *checkout*; returns its result document."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"perfbench_ab: {' '.join(command)} in {checkout} printed "
                 f"no result (exit {done.returncode})")
    return json.loads(lines[-1])


def run_pair(checkouts, spec, workload, seed, number, trace):
    """Both sides with one seed, back to back; pair *number* decides who
    goes first."""
    order = SIDES if number % 2 == 0 else SIDES[::-1]
    results = {}
    for side in order:
        print(f"  {workload} seed {seed} trace {trace}: {side}",
              file=sys.stderr, flush=True)
        results[side] = run_once(checkouts[side], spec, workload, seed, trace)
    return order[0], results


def values_of(result):
    return {name: round(entry["value"], 6)
            for name, entry in result["metrics"].items()}


def spread(values):
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": round(statistics.median(values), 6),
            "q1": round(q1, 6), "q3": round(q3, 6), "n": len(values)}


def summarise(pairs, metric):
    """Medians, quartiles and wins of one end-to-end metric over *pairs*."""
    name, lower = metric["name"], metric["better"] == "lower"
    sides = {side: [pair[side][name] for pair in pairs] for side in SIDES}
    wins = ties = 0
    for parent, change in zip(sides["parent"], sides["change"]):
        ties += parent == change
        wins += change < parent if lower else change > parent
    summary = {"bound": metric["bound"], "better": metric["better"]}
    summary.update((side, spread(sides[side])) for side in SIDES)
    parent_median = summary["parent"]["median"]
    summary.update(
        change_over_parent_median=(
            round(summary["change"]["median"] / parent_median, 6)
            if parent_median else None),
        change_wins=wins, ties=ties, pairs=len(pairs),
    )
    return summary


def traced_entry(seed, results):
    """What one ``--trace 1`` pair shows: exact counts side by side, and
    every op stage's share and milliseconds per op."""
    metrics = {side: values_of(results[side]) for side in SIDES}
    if not all(metrics.values()):
        sys.exit("perfbench_ab: the traced pair had failed ops, no metrics")
    both = lambda name: {side: metrics[side][name] for side in SIDES}
    entry = {"seed": seed, "exact": {}, "layers": {},
             "op_staged_mean_ms": both("op_staged_mean_ms"),
             "ops": {side: results[side]["attempted"] for side in SIDES}}
    for name in EXACT:
        # Compared unrounded: "identical" means bit for bit.
        raw = {side: results[side]["metrics"][name]["value"] for side in SIDES}
        entry["exact"][name] = dict(
            raw, identical=raw["parent"] == raw["change"])
    for name in metrics["parent"]:
        stage = name[len("share."):]
        if (name.startswith("share.") and stage.count(".") == 1
                and any(metrics[side][name] for side in SIDES)):
            entry["layers"][stage] = {
                "share": both(name),
                "ms_per_op": {
                    side: round(metrics[side][name]
                                * metrics[side]["op_staged_mean_ms"], 6)
                    for side in SIDES},
            }
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True,
                        help="commit the change is measured against")
    parser.add_argument("--workload", required=True,
                        help="the workload the claim is made on")
    parser.add_argument("--metric", default="op_p50_ms",
                        help="the claimed end-to-end metric")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs on the claimed workload")
    parser.add_argument("--also", default="",
                        help="comma-separated workloads that must not move")
    parser.add_argument("--also-pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed+i")
    parser.add_argument("--issue", default="", help="label for the record")
    parser.add_argument("--out", help="default: BENCH_<workload>.json")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    end_to_end = {metric["name"]: metric for metric in spec["end_to_end"]}
    plan = [(args.workload, args.pairs)] + [
        (name, args.also_pairs) for name in args.also.split(",") if name]
    known = {workload["name"] for workload in spec["workloads"]}
    for name, _ in plan:
        if name not in known:
            parser.error(f"unknown workload {name!r}; have {sorted(known)}")
    if args.metric not in end_to_end:
        parser.error(f"unknown end-to-end metric {args.metric!r}")
    parent_sha = subprocess.run(
        ["git", "rev-parse", "--verify", args.parent + "^{commit}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")

    record = {
        "schema": "perfbench-ab/1",
        "issue": args.issue,
        "parent_commit": parent_sha,
        "command": " ".join(spec["command"]) + " --workload W --seed N "
                   f"--seconds {spec['run_seconds']} --trace 0|1",
        "method": (
            "scripts/perfbench_ab.py: each pair runs the parent (git archive "
            "of parent_commit) and the change (the working tree) with the same "
            "seed back to back, alternating which side goes first; pair i of "
            f"a workload uses seed {args.seed}+i. Every run made is listed. "
            "traced: one --trace 1 pair on the claimed workload."),
        "claim": None, "untraced": {}, "traced": {},
    }

    def write():
        with open(out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")

    # A terminated session still stops its run and removes the archive.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parent_dir = tempfile.mkdtemp(prefix="perfbench_ab_parent_")
    try:
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT,
                                 stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive.stdout,
                       check=True)
        checkouts = {"parent": parent_dir, "change": ROOT}
        for workload, n_pairs in plan:
            section = record["untraced"][workload] = {
                "failed": dict.fromkeys(SIDES, 0),
                "attempted": dict.fromkeys(SIDES, 0),
                "summary": {}, "pairs": [],
            }
            for number in range(n_pairs):
                seed = args.seed + number
                first, results = run_pair(
                    checkouts, spec, workload, seed, number, trace=0)
                pair = {"seed": seed, "first": first}
                for side in SIDES:
                    pair[side] = values_of(results[side])
                    section["failed"][side] += results[side]["failed"]
                    section["attempted"][side] += results[side]["attempted"]
                section["pairs"].append(pair)
                # A run with a failed op reports no metrics: it stays
                # listed and counted as failed, out of the medians.
                complete = [p for p in section["pairs"]
                            if p["parent"] and p["change"]]
                if complete:
                    section["summary"] = {
                        name: summarise(complete, metric)
                        for name, metric in end_to_end.items()}
                if workload == args.workload and complete:
                    record["claim"] = dict(
                        {"workload": workload, "metric": args.metric},
                        **section["summary"][args.metric])
                write()
        _, results = run_pair(checkouts, spec, args.workload, args.seed, 0,
                              trace=1)
        record["traced"][args.workload] = [traced_entry(args.seed, results)]
        write()
    finally:
        shutil.rmtree(parent_dir, ignore_errors=True)

    claim = record["claim"]
    print(f"{out}: {claim['workload']} {claim['metric']} "
          f"{claim['parent']['median']} -> {claim['change']['median']} "
          f"(x{claim['change_over_parent_median']}), change won "
          f"{claim['change_wins']} of {claim['pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
