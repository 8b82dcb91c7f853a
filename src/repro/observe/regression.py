"""Per-metric regression policies over run records and bench JSON twins.

Different metrics deserve different gates.  The simulated costs are pure
functions of (code, configuration) — any drift is a real behaviour change,
so they are compared **byte-identically** on canonical JSON.  Wall-clock is
noisy hardware measurement: it is recorded and reported with its ratio but
never gated here (perfbench's ``BENCHMARK.json`` bounds are the wall-clock
contract; the benchmark harness reduces the noise at the source with
min-of-N repeats, ``REPRO_BENCH_REPEATS``).  The always-on counters are
**informational** too: they explain a wall-clock change (cache stopped
hitting, buffer pool thrashing).

:func:`compare_records` applies the policies to two
:class:`~repro.observe.history.RunRecord` snapshots;
:func:`compare_bench_documents` applies them to raw ``repro bench --json``
documents (which is what ``scripts/compare_bench_json.py`` delegates to).
Both return a :class:`PerfComparison` whose ``ok`` decides the process
exit code of ``repro perf compare``.
"""

import json
from dataclasses import dataclass, field

from repro.observe.history import strip_meta

#: Diff statuses, from worst to best.
FAIL, INFO, OK, SKIP = "fail", "info", "ok", "skip"


def canonical_json(document):
    """The byte-identity representation: sorted keys, fixed separators."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def first_difference(left, right, path="$"):
    """Human-readable path of the first structural difference, or ``None``.

    Walks both documents in parallel so a byte-identity failure can name
    the exact leaf that drifted instead of printing two JSON blobs.
    """
    if type(left) is not type(right):
        return f"{path}: type {type(left).__name__} != {type(right).__name__}"
    if isinstance(left, dict):
        left_keys, right_keys = sorted(left), sorted(right)
        if left_keys != right_keys:
            only_left = [k for k in left_keys if k not in right]
            only_right = [k for k in right_keys if k not in left]
            return (
                f"{path}: keys differ"
                f" (baseline-only {only_left}, current-only {only_right})"
            )
        for key in left_keys:
            found = first_difference(left[key], right[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(left, list):
        if len(left) != len(right):
            return f"{path}: length {len(left)} != {len(right)}"
        for i, (a, b) in enumerate(zip(left, right)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        return None
    if left != right:
        return f"{path}: {left!r} != {right!r}"
    return None


@dataclass
class MetricDiff:
    """One compared metric: its policy, verdict, and both values."""

    metric: str
    policy: str            # "byte-identity" | "info"
    status: str            # FAIL | INFO | OK | SKIP
    baseline: object = None
    current: object = None
    detail: str = ""

    def to_dict(self):
        return {
            "metric": self.metric,
            "policy": self.policy,
            "status": self.status,
            "baseline": self.baseline,
            "current": self.current,
            "detail": self.detail,
        }

    def render(self):
        verdict = self.status.upper()
        line = f"[{verdict:<4}] {self.metric} ({self.policy})"
        if self.detail:
            line += f": {self.detail}"
        return line


@dataclass
class PerfComparison:
    """The outcome of one baseline-vs-current comparison."""

    name: str
    diffs: list = field(default_factory=list)

    @property
    def ok(self):
        return all(diff.status != FAIL for diff in self.diffs)

    def failures(self):
        return [diff for diff in self.diffs if diff.status == FAIL]

    def to_dict(self):
        return {
            "name": self.name,
            "ok": self.ok,
            "diffs": [diff.to_dict() for diff in self.diffs],
        }

    def render(self):
        lines = [f"perf compare: {self.name}"]
        lines.extend("  " + diff.render() for diff in self.diffs)
        lines.append(
            "  => " + ("OK" if self.ok else
                       f"REGRESSION ({len(self.failures())} gate(s) tripped)")
        )
        return "\n".join(lines)


def _diff_simulated(baseline, current):
    """Byte-identity gate over the simulated sections."""
    left, right = canonical_json(baseline), canonical_json(current)
    if left == right:
        return MetricDiff(
            "simulated", "byte-identity", OK,
            detail=f"{len(left)} canonical bytes identical",
        )
    where = first_difference(baseline, current) or "documents differ"
    return MetricDiff(
        "simulated", "byte-identity", FAIL,
        detail=f"simulated costs drifted at {where}",
    )


def _diff_wall(baseline_ms, current_ms):
    """Informational row for wall-clock milliseconds."""
    if baseline_ms is None or current_ms is None:
        return MetricDiff(
            "wall_ms", "info", SKIP, baseline_ms, current_ms,
            "wall-clock missing on one side",
        )
    if baseline_ms <= 0:
        return MetricDiff(
            "wall_ms", "info", SKIP, baseline_ms, current_ms,
            "baseline wall-clock is zero",
        )
    return MetricDiff(
        "wall_ms", "info", INFO, baseline_ms, current_ms,
        f"{current_ms:.1f}ms vs {baseline_ms:.1f}ms "
        f"({current_ms / baseline_ms:.2f}x)",
    )


def _diff_counters(baseline, current):
    """Informational rows for the always-on counter groups."""
    diffs = []
    for group in sorted(set(baseline) | set(current)):
        left = baseline.get(group)
        right = current.get(group)
        if left == right:
            continue
        diffs.append(MetricDiff(
            f"counters.{group}", "info", INFO, left, right,
            first_difference(left, right) or "",
        ))
    return diffs


def compare_records(baseline, current):
    """Compare two :class:`~repro.observe.history.RunRecord` snapshots.

    Policies: simulated costs byte-identical (gated); wall-clock and
    counters informational.  A configuration-fingerprint mismatch is
    itself a failure: gating across different configurations compares
    apples to oranges.
    """
    comparison = PerfComparison(name=current.name)
    if baseline.config_fingerprint != current.config_fingerprint:
        comparison.diffs.append(MetricDiff(
            "config_fingerprint", "byte-identity", FAIL,
            baseline.config_fingerprint, current.config_fingerprint,
            "runs measured different configurations; re-record the baseline",
        ))
        comparison.diffs.append(MetricDiff(
            "simulated", "byte-identity", SKIP,
            detail="skipped: configurations differ",
        ))
        return comparison
    comparison.diffs.append(
        _diff_simulated(baseline.simulated, current.simulated)
    )
    comparison.diffs.append(_diff_wall(baseline.wall_ms, current.wall_ms))
    comparison.diffs.extend(_diff_counters(baseline.counters,
                                           current.counters))
    return comparison


def _document_wall_ms(documents):
    """Sum of per-result ``meta.wall_ms`` in a bench JSON list, or None."""
    total = 0.0
    found = False
    for document in documents:
        meta = document.get("meta") or {}
        if "wall_ms" in meta:
            total += meta["wall_ms"]
            found = True
    return round(total, 3) if found else None


def compare_bench_documents(baseline, current, name="bench"):
    """Compare two raw ``repro bench --json`` documents (lists of result
    dicts).  Simulated content is everything outside ``meta`` blocks —
    byte-identity applies after stripping them; wall-clock is the summed
    ``meta.wall_ms``, informational."""
    if not isinstance(baseline, list) or not isinstance(current, list):
        raise ValueError("bench documents must be JSON lists of results")
    comparison = PerfComparison(name=name)
    comparison.diffs.append(_diff_simulated(
        strip_meta(baseline), strip_meta(current)
    ))
    comparison.diffs.append(_diff_wall(
        _document_wall_ms(baseline), _document_wall_ms(current),
    ))
    return comparison
