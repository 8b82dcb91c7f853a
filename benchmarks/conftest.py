"""Shared fixtures for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure of the paper on a
synthetic scale model of the Barton data set, measures the harness run with
pytest-benchmark, prints the regenerated table (visible with ``-s``), and
writes it to ``benchmarks/output/`` so the results can be diffed against
EXPERIMENTS.md.

Environment knobs (see ``docs/benchmarking.md``):

* ``REPRO_BENCH_TRIPLES`` — dataset size (default 60000),
* ``REPRO_BENCH_SEED`` — generator seed (default 42),
* ``REPRO_BENCH_JOBS`` — worker processes for experiment cells (default 1;
  the scheduled drivers read it directly, and parallel output is
  byte-identical to serial),
* ``REPRO_BENCH_REPEATS`` — wall-clock repeats per cell (default 1).  With
  ``N > 1`` every cell runs N times and ``wall_ms`` reports the minimum —
  min-of-N warmed measurements are what the perf regression gate compares,
  because a single sample on a busy machine is mostly noise.  Cells are
  pure functions, so repeats cannot change any simulated result.

The dataset is generated once per session, and every deploy of it reuses
the prepared store payloads (:func:`repro.bench.systems.deploy`).
"""

import json
import os
import pathlib

import pytest

from repro.bench import experiments
from repro.bench.findings import FINDINGS
from repro.bench.scheduler import default_repeats
from repro.data import generate_barton

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def bench_triples():
    return int(os.environ.get("REPRO_BENCH_TRIPLES", "60000"))


def bench_seed():
    return int(os.environ.get("REPRO_BENCH_SEED", "42"))


def bench_repeats():
    """Wall-clock repeats per cell (``REPRO_BENCH_REPEATS``, default 1);
    the scheduler reports min-of-N ``wall_ms`` when N > 1."""
    return default_repeats()


@pytest.fixture(scope="session")
def dataset():
    """The Barton-like scale model shared by every bench."""
    return generate_barton(n_triples=bench_triples(), seed=bench_seed())


@pytest.fixture(scope="session")
def publish():
    """Print a regenerated table and persist it under benchmarks/output/
    — human-readable ``.txt`` plus a machine-readable ``.json`` twin."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _publish(result):
        results = result if isinstance(result, list) else [result]
        for r in results:
            if isinstance(r, tuple):
                name, text = r
                document = {"name": name, "text": text}
            else:
                name, text = r.name, r.render()
                document = r.to_dict()
            document.setdefault("parameters", {})
            document["parameters"].update(
                {
                    "triples": bench_triples(),
                    "seed": bench_seed(),
                    "repeats": bench_repeats(),
                }
            )
            print()
            print(text)
            (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
            (OUTPUT_DIR / f"{name}.json").write_text(
                json.dumps(document, indent=2) + "\n"
            )
        return results

    return _publish


@pytest.fixture(scope="session")
def findings_hold(dataset):
    """Keep one experiment's timed result for the session and assert every
    entry of ``repro.bench.findings`` whose last read it is, so a finding
    that reads two experiments (hot against cold) uses the timed run of
    each.  An earlier experiment the session has not run (a file run
    alone) is run here, untimed."""
    measured = {}

    def _check(name, result):
        measured[name] = result
        due = [finding for finding in FINDINGS if finding.reads[-1] == name]
        for other in dict.fromkeys(r for f in due for r in f.reads):
            if other not in measured:
                measured[other] = getattr(experiments, f"experiment_{other}")(
                    dataset
                )
        broken = {f.name: f.broken(measured) for f in due}
        assert not any(broken.values()), {k: v for k, v in broken.items() if v}

    return _check
