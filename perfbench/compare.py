"""Compare two perfbench result sets: ``compare.py A.json B.json``.

*A* is the base (the parent commit), *B* the change; both are files
written by ``run.py --out``.  One row per workload and end-to-end metric,
each ratio printed with its base, judged against the bound
``BENCHMARK.json`` fixes for that metric:

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    It is worse by more than the bound — or ops failed, or a value that
    must repeat bit for bit (simulated cost, stored bytes, the program's
    own counts) differs.
``unresolved``
    The run-to-run spread (interquartile range over the median, the
    wider of the two sides) exceeds the bound, so the runs cannot tell;
    unless every run of B reads better than every run of A.

Exits non-zero on any ``regressed`` row.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.metrics import COUNTS, EXACT, EXTRAS  # noqa: E402


def spread(values):
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def judge(base_runs, new_runs, better, bound):
    """``(status, worsening)`` for one metric on one workload."""
    base, new = statistics.median(base_runs), statistics.median(new_runs)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new - base) / base
    if max(spread(base_runs), spread(new_runs)) > bound:
        if sign > 0:
            all_better = max(new_runs) < min(base_runs)
        else:
            all_better = min(new_runs) > max(base_runs)
        return ("ok" if all_better else "unresolved"), worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def values_of(record, metric):
    return [run["metrics"][metric]["value"] for run in record["runs"]]


def compare(base, new, spec):
    """Rows ``(workload, metric, base, new, worsening, spread, bound,
    status)``; *spec* is the parsed ``BENCHMARK.json``."""
    same_inputs = base["seed"] == new["seed"]
    rows = []
    for entry in spec["workloads"]:
        name = entry["name"]
        a, b = base["workloads"][name], new["workloads"][name]
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a_runs, b_runs = values_of(a, key), values_of(b, key)
            wide = max(spread(a_runs), spread(b_runs))
            if key in EXACT and same_inputs:
                a_value, b_value = a_runs[0], b_runs[0]
                exact = len(set(a_runs + b_runs)) == 1
                rows.append((name, key, a_value, b_value, 0.0, wide, 0.0,
                             "ok" if exact else "regressed"))
                continue
            status, worsening = judge(a_runs, b_runs, metric["better"], bound)
            rows.append((name, key, statistics.median(a_runs),
                         statistics.median(b_runs), worsening, wide, bound,
                         status))
        failed = sum(run["failed"] for run in a["runs"] + b["runs"])
        rows.append((name, "failed_ops", 0.0, float(failed), 0.0, 0.0, 0.0,
                     "regressed" if failed else "ok"))
        if same_inputs and "traced" in a and "traced" in b:
            for key, _unit, _better in COUNTS + EXTRAS:
                a_value = a["traced"]["metrics"][key]["value"]
                b_value = b["traced"]["metrics"][key]["value"]
                if a_value != b_value:
                    rows.append((name, key, a_value, b_value, 0.0, 0.0, 0.0,
                                 "regressed"))
    return rows


def render(rows):
    lines = [f"{'workload':15s} {'metric':24s} {'base':>13s} {'new':>13s} "
             f"{'new/base':>9s} {'spread':>7s} {'bound':>6s} status"]
    for name, key, a, b, _worsening, wide, bound, status in rows:
        ratio = f"{b / a:9.4f}" if a else f"{'-':>9s}"
        lines.append(f"{name:15s} {key:24s} {a:13.4f} {b:13.4f} {ratio} "
                     f"{wide:7.3f} {bound:6.2f} {status}")
    return "\n".join(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    rows = compare(documents[0], documents[1], spec)
    print(render(rows))
    counts = {status: sum(row[-1] == status for row in rows)
              for status in ("ok", "unresolved", "regressed")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['regressed']} regressed "
          f"(base: {argv[0]}, new: {argv[1]})")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
