"""Self-tests of the benchmark (``python -m pytest perfbench/tests``).

Not collected by the repository's tier-1 run (``testpaths = ["tests"]``):
they test the ruler, not the program.
"""

import collections
import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import compare, gen, metrics, run, spans  # noqa: E402
from perfbench.calibrate import REFERENCE_S, Calibrator  # noqa: E402

run.scrub_environment()
from perfbench import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


# -- the generator ------------------------------------------------------

def rounds_digest(name, seed):
    workload = workloads.WORKLOADS[name](seed, smoke=True)
    if name != "serve_http":  # its rounds need no server
        workload.build()
    return gen.ops_digest([workload.round(0), workload.round(1)])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    assert rounds_digest(name, 3) == rounds_digest(name, 3)
    assert rounds_digest(name, 3) != rounds_digest(name, 4)


def test_zipf_counts_keep_total_and_rank_order():
    counts = gen.zipf_counts(12, 480)
    assert sum(counts) == 480 and min(counts) >= 1
    assert counts == sorted(counts, reverse=True)


def test_adhoc_texts_are_unique():
    workload = workloads.AdhocFrontend(5, smoke=True)
    workload.build()
    texts = [op["text"] for i in range(4) for op in workload.round(i)]
    assert len(texts) == len(set(texts)) == 200


def test_rows_digest_ignores_order_keeps_duplicates():
    assert gen.rows_digest([(1, "a"), (2, "b")]) == gen.rows_digest([[2, "b"], [1, "a"]])
    assert gen.rows_digest([(1,), (1,)]) != gen.rows_digest([(1,)])


# -- names and limits ---------------------------------------------------

def test_names_units_and_limits(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])


def test_spec_names_exactly_what_the_runner_emits(spec):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (name, " ".join(cls.why.split()))
        for name, cls in workloads.WORKLOADS.items()
    ]
    setup = spec["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]


# -- spans ---------------------------------------------------------------

def test_self_times_telescope_to_the_root():
    tracer = spans.Tracer()
    tracer.op = "1.0"
    with tracer.span("op"):
        with tracer.span("sql.parse"):
            time.sleep(0.002)
        with tracer.span("colstore.run"):
            with tracer.span("exec.lower"):
                time.sleep(0.001)
            time.sleep(0.001)
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert sum(own) == pytest.approx(root[spans.END] - root[spans.START], abs=1e-12)
    assert all(x >= 0 for x in own)
    events = spans.chrome_trace(tracer.spans)["traceEvents"]
    assert [e["name"] for e in events] == ["op", "sql.parse", "colstore.run", "exec.lower"]
    assert {e["args"]["op"] for e in events} == {"1.0"}


def test_shares_add_up_to_one():
    tracer = spans.Tracer()
    with tracer.span("data.generate"):
        pass
    with tracer.span("dictionary.encode"):
        time.sleep(0.001)
    tracer.op = "1.0"
    with tracer.span("op"):
        with tracer.span("colstore.run"):
            time.sleep(0.001)
        with tracer.span("relation.decode"):
            time.sleep(0.001)
    root = tracer.spans[2]
    took = root[spans.END] - root[spans.START]
    first_round = {"counts": collections.Counter(), "sim_seconds": 0.5, "ops": 1}
    out = metrics.per_layer(tracer.spans, 1.0, [took], first_round, {}, 10, 1000)
    assert set(out) == {name for name, _unit, _better in metrics.PER_LAYER}
    by_layer = sum(out[f"share.{layer}"] for layer in metrics.SHARE_LAYERS)
    by_stage = sum(out[f"share.{stage}"] for stage in metrics.OP_STAGES)
    assert by_layer == pytest.approx(by_stage)
    assert by_layer + out["share.unattributed"] == pytest.approx(1.0)
    assert out["engine.sim_ms_per_op"] == 500.0


class FixedKernel:
    """A calibrator whose kernel took *slow* seconds from time *after* on
    and ``REFERENCE_S`` before."""

    def __init__(self, after=float("inf"), slow=None):
        self.after, self.slow = after, slow

    def scaled(self, start, seconds):
        kernel = self.slow if start >= self.after else REFERENCE_S
        return seconds * REFERENCE_S / kernel


def timeline(rounds):
    """Lay rounds of op seconds end to end on one clock."""
    at, out = 0.0, []
    for ops in rounds:
        out.append([])
        for seconds in ops:
            out[-1].append((at, seconds))
            at += seconds
    return out


def test_end_to_end_reports_the_median_round_in_reference_seconds():
    fast = [[0.010, 0.030] for _ in range(5)]
    slow = [[0.014, 0.042] for _ in range(5)]
    quiet = metrics.end_to_end([1.0], timeline(fast), (240, 10), 2048, FixedKernel())
    assert quiet["op_p50_ms"] == pytest.approx(20.0)
    assert quiet["op_p90_ms"] == pytest.approx(28.0)
    assert quiet["throughput_ops_s"] == pytest.approx(50.0)
    assert quiet["stored_bytes_per_triple"] == 24.0 and quiet["peak_rss_mb"] == 2.0
    # The box slows down 1.4x after the first round, and the kernel with it.
    noisy = metrics.end_to_end([1.0], timeline(fast[:1] + slow), (240, 10), 2048,
                               FixedKernel(after=0.040, slow=1.4 * REFERENCE_S))
    for key in ("op_p50_ms", "op_p90_ms", "throughput_ops_s"):
        assert noisy[key] == pytest.approx(quiet[key])
    # The program got slower in most rounds and the kernel did not: every
    # metric shows it.
    slowed = metrics.end_to_end([1.0], timeline(fast[:1] + slow), (240, 10), 2048,
                                FixedKernel())
    assert slowed["op_p50_ms"] == pytest.approx(28.0)
    assert slowed["throughput_ops_s"] == pytest.approx(2 / 0.056)
    # One round in five stalls and the kernel does not see it: the median
    # round is untouched.
    stalled = metrics.end_to_end([1.0], timeline(fast[:4] + [[0.010, 0.300]]),
                                 (240, 10), 2048, FixedKernel())
    for key in ("op_p50_ms", "op_p90_ms", "throughput_ops_s"):
        assert stalled[key] == pytest.approx(quiet[key])
    # A cost that hits one op in ten of every round moves p90 and the
    # throughput, not p50.
    even = [[0.010] * 20 for _ in range(3)]
    tail = [[0.010] * 17 + [0.050] * 3 for _ in range(3)]
    a = metrics.end_to_end([1.0], timeline(even), (240, 10), 2048, FixedKernel())
    b = metrics.end_to_end([1.0], timeline(tail), (240, 10), 2048, FixedKernel())
    assert b["op_p50_ms"] == pytest.approx(a["op_p50_ms"])
    assert b["op_p90_ms"] > 4 * a["op_p90_ms"]
    assert b["throughput_ops_s"] < 0.7 * a["throughput_ops_s"]


def test_calibrator_scales_by_the_kernel_samples_next_to_the_op():
    calibrator = Calibrator()
    calibrator.seconds = [0.002] * 10 + [0.004] * 90
    calibrator.at = [i * 0.01 for i in range(100)]
    # The samples within WINDOW_S of the op, not the run's.
    assert calibrator.scaled(0.02, 0.01) == pytest.approx(0.01 * REFERENCE_S / 0.002)
    assert calibrator.scaled(0.50, 0.02) == pytest.approx(0.02 * REFERENCE_S / 0.004)
    calibrator.sample()
    calibrator.sample_if_due()  # not due: the last sample was just now
    assert len(calibrator.seconds) == len(calibrator.at) == 101


def test_every_round_of_a_workload_is_the_same_mix():
    """Rounds are what the run's medians are taken over, so they must be
    comparable: the same ops, or new texts of the same kinds in the same
    numbers."""
    def mix(op):
        return {key: value for key, value in op.items() if key != "text"}

    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, smoke=True)
        if name != "serve_http":
            workload.build()
        first, second = ([json.dumps(mix(op), sort_keys=True) for op in
                          workload.round(i)] for i in (1, 2))
        assert sorted(first) == sorted(second), name


# -- compare -------------------------------------------------------------

def result_set(spec, scale=1.0, jitter=0.0, seed=1, exact=1.0):
    def run_of(i):
        values = {}
        for metric in spec["end_to_end"]:
            value = 100.0 * (1.0 + jitter * (i - 1))
            if metric["name"] in metrics.EXACT:
                value = 100.0 * exact
            elif metric["better"] == "lower":
                value *= scale
            else:
                value /= scale
            values[metric["name"]] = {"value": value, "unit": metric["unit"]}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": values}

    return {"seed": seed, "workloads": {
        w["name"]: {"runs": [run_of(i) for i in range(3)]}
        for w in spec["workloads"]
    }}


def statuses(rows):
    return {row[-1] for row in rows}


def test_compare_same_commit_is_ok(spec):
    rows = compare.compare(result_set(spec), result_set(spec, jitter=0.01), spec)
    assert statuses(rows) == {"ok"}
    assert len(rows) == len(spec["workloads"]) * (len(spec["end_to_end"]) + 1)


def test_compare_flags_a_regression_and_exits_non_zero(spec, tmp_path):
    base, slow = result_set(spec), result_set(spec, scale=1.5)
    rows = compare.compare(base, slow, spec)
    assert "regressed" in statuses(rows)
    regressed = {row[1] for row in rows if row[-1] == "regressed"}
    assert "op_p50_ms" in regressed and "throughput_ops_s" in regressed
    paths = []
    for label, document in (("a", base), ("b", slow)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(document, handle)
    assert compare.main(paths) == 1
    assert compare.main([paths[0], paths[0]]) == 0


def test_compare_wide_spread_is_unresolved_not_unchanged(spec):
    rows = compare.compare(result_set(spec, jitter=0.4),
                           result_set(spec, jitter=0.4), spec)
    assert "unresolved" in statuses(rows) and "regressed" not in statuses(rows)


def test_compare_exact_metrics_must_match_bit_for_bit(spec):
    rows = compare.compare(result_set(spec), result_set(spec, exact=1.0000001), spec)
    assert {row[1] for row in rows if row[-1] == "regressed"} == set(metrics.EXACT)


# -- the runner, end to end ---------------------------------------------

def test_smoke_run_passes_the_oracle(spec, tmp_path):
    out = str(tmp_path / "smoke.json")
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--smoke", "--trace", "--out", out],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - started < 60
    with open(out) as handle:
        document = json.load(handle)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert sorted(document["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, record in document["workloads"].items():
        for result in record["runs"] + [record["traced"]]:
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] >= 1
        assert set(record["runs"][0]["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in record["runs"][0]["metrics"].values())
        assert set(record["traced"]["metrics"]) == per_layer
        # The trace the run wrote telescopes op by op.
        with open(os.path.join(ROOT, "perfbench", "out", f"trace_{name}.json")) as handle:
            events = json.load(handle)["traceEvents"]
        by_op = {}
        for event in events:
            by_op.setdefault(event["args"]["op"], []).append(event)
        for op, group in by_op.items():
            if op == "setup":
                continue
            assert sum(e["args"]["self_us"] for e in group) == pytest.approx(
                group[0]["dur"], abs=0.01)
    assert set(document["environment"]) >= {"git_sha", "nproc", "python", "numpy", "scrubbed"}


def test_setup_only_prints_the_seconds_one_set_up_took(capsys):
    assert run.main(["--workload", "row_exec", "--smoke", "--setup-only"]) == 0
    assert 0.0 < float(capsys.readouterr().out.strip().splitlines()[-1]) < 30.0


def test_wrong_rows_fail_the_run(monkeypatch, capsys):
    def corrupt(self):
        self.expected = dict.fromkeys(workloads.ALL_QUERY_NAMES, "not-a-digest")

    monkeypatch.setattr(workloads.RowExec, "verify", corrupt)
    code = run.main(["--workload", "row_exec", "--smoke", "--seed", "2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_a_raising_op_is_a_failed_op(monkeypatch, capsys):
    def explode(self, op):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.DeployWrite, "run", explode)
    monkeypatch.setattr(workloads.DeployWrite, "setup", lambda self, tracer=None: self.build())
    code = run.main(["--workload", "deploy_write", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ there is
    nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "col_exec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
