"""The run-history ledger: every benchmark/replay run as a structured record.

The paper's argument rests on comparable timings, so the reproduction keeps
a persistent record of its own performance.  A :class:`RunRecord` captures
one run of a benchmark experiment (or one server replay): the git sha and
a config fingerprint that make it attributable, the **simulated** costs
that must never drift (byte-identity-gated by
:mod:`repro.observe.regression`), the wall-clock cost of the harness
itself, and the always-on counters threaded through the engines — buffer
pool hits/misses, artifact-cache hits/misses, lowering-cache stats,
scheduler cell counts.

Records are appended to a JSONL ledger under ``.repro/perf/``
(:class:`RunLedger`; override with ``REPRO_PERF_DIR``) and emitted as
repo-root ``BENCH_<name>.json`` snapshots (:func:`write_snapshot`) that CI
uploads and gates on.  ``repro perf record / compare / report`` are the CLI
entry points.
"""

import hashlib
import json
import os
import pathlib
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.observe import counters
from repro.observe.log import get_logger

log = get_logger("observe.history")

HISTORY_SCHEMA_VERSION = 1

#: Environment knob: where the ledger lives (default ``.repro/perf``).
PERF_DIR_ENV = "REPRO_PERF_DIR"


def default_perf_dir():
    env = os.environ.get(PERF_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path(".repro") / "perf"


def git_sha(cwd=None):
    """HEAD commit sha of the working tree, or ``None`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def config_fingerprint(parameters):
    """SHA-256 over the canonical JSON of the run parameters.

    Two runs with equal fingerprints measured the same configuration, so
    their simulated costs are comparable byte-for-byte; the regression
    engine refuses to gate across differing fingerprints.
    """
    canonical = json.dumps(
        {"schema": HISTORY_SCHEMA_VERSION, "parameters": parameters},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def collect_counters():
    """The always-on process-wide counters, one group per subsystem: the
    counter table plus the two derived ratios and the artifact cache's
    instance counters.  (Loading :mod:`repro.bench` for the cache read
    imports every module that declares a group, so the document has the
    same groups in every process.)"""
    from repro.bench.artifacts import cache_stats
    from repro.engine.buffer import hit_ratio

    document = counters.snapshot()
    buffer_pool = document["buffer_pool"]
    buffer_pool["hit_ratio"] = hit_ratio(buffer_pool)
    compression = document["compression"]
    compression["compression_ratio"] = (
        compression["logical_bytes"] / compression["compressed_bytes"]
        if compression["compressed_bytes"] else 1.0
    )
    document["artifact_cache"] = cache_stats()
    return document


def reset_counters():
    """Zero every process-wide counter group so a recorded run's counters
    cover exactly that run."""
    counters.reset()


def strip_meta(document):
    """Drop every ``meta`` key — the wall-clock/worker metadata that may
    differ between byte-identical runs (same rule the serial-vs-parallel
    comparison has always used)."""
    if isinstance(document, dict):
        return {
            key: strip_meta(value)
            for key, value in document.items()
            if key != "meta"
        }
    if isinstance(document, list):
        return [strip_meta(item) for item in document]
    return document


@dataclass
class RunRecord:
    """One ledger entry: a benchmark or replay run.

    ``simulated`` holds everything that must be byte-identical between
    runs of the same configuration; ``wall_ms`` and ``counters`` are
    measurement metadata the regression engine reports but never gates
    on.
    """

    name: str
    kind: str = "bench"          # "bench" | "replay"
    recorded_at: str = ""
    git_sha: object = None
    config_fingerprint: str = ""
    parameters: dict = field(default_factory=dict)
    simulated: object = None
    wall_ms: object = None
    counters: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    schema_version: int = HISTORY_SCHEMA_VERSION

    def to_dict(self):
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "kind": self.kind,
            "recorded_at": self.recorded_at,
            "git_sha": self.git_sha,
            "config_fingerprint": self.config_fingerprint,
            "parameters": dict(self.parameters),
            "simulated": self.simulated,
            "wall_ms": self.wall_ms,
            "counters": dict(self.counters),
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, document):
        known = {
            "name", "kind", "recorded_at", "git_sha", "config_fingerprint",
            "parameters", "simulated", "wall_ms", "counters", "notes",
            "schema_version",
        }
        fields = {k: v for k, v in document.items() if k in known}
        missing = sorted(
            k for k in ("name", "simulated") if k not in fields
        )
        if missing:
            raise ValueError(f"run record is missing {missing}")
        return cls(**fields)


def _now_iso():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def record_from_results(name, results, parameters=None, notes=()):
    """Build a :class:`RunRecord` from a list of
    :class:`~repro.bench.experiments.ExperimentResult`.

    The simulated section is the meta-stripped JSON of every result (the
    part serial/parallel byte-identity has always covered); ``wall_ms``
    sums the scheduler's per-cell wall clock where present.
    """
    parameters = dict(parameters or {})
    documents = [r.to_dict() for r in results]
    wall = 0.0
    has_wall = False
    for document in documents:
        meta = document.get("meta") or {}
        if "wall_ms" in meta:
            wall += meta["wall_ms"]
            has_wall = True
    return RunRecord(
        name=name,
        kind="bench",
        recorded_at=_now_iso(),
        git_sha=git_sha(),
        config_fingerprint=config_fingerprint(parameters),
        parameters=parameters,
        simulated=strip_meta(documents),
        wall_ms=round(wall, 3) if has_wall else None,
        counters=collect_counters(),
        notes=list(notes),
    )


class RunLedger:
    """Append-only JSONL history of :class:`RunRecord` entries."""

    def __init__(self, root=None):
        self.root = pathlib.Path(root) if root else default_perf_dir()

    @property
    def path(self):
        return self.root / "history.jsonl"

    def append(self, record):
        """Append one record; returns the ledger path."""
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return self.path

    def records(self, name=None, limit=None):
        """Ledger entries in append order, optionally filtered by run
        name and truncated to the most recent *limit*.  Corrupt lines are
        skipped with a warning, never crashed on."""
        if not self.path.exists():
            return []
        found = []
        with open(self.path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = RunRecord.from_dict(json.loads(line))
                except (ValueError, TypeError) as exc:
                    log.warning(
                        "skipping corrupt ledger line %s:%d (%s)",
                        self.path, lineno, exc,
                    )
                    continue
                if name is None or record.name == name:
                    found.append(record)
        if limit is not None:
            found = found[-limit:]
        return found

    def latest(self, name=None):
        """The most recent record (for *name*), or ``None``."""
        records = self.records(name=name, limit=1)
        return records[-1] if records else None


def snapshot_path(name, directory="."):
    return pathlib.Path(directory) / f"BENCH_{name}.json"


def write_snapshot(record, directory="."):
    """Emit the repo-root ``BENCH_<name>.json`` twin of a run record."""
    path = snapshot_path(record.name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_snapshot(path):
    """Read a ``BENCH_<name>.json`` snapshot back into a RunRecord."""
    with open(path, encoding="utf-8") as handle:
        return RunRecord.from_dict(json.load(handle))
