"""Static analysis: plan linting and codebase invariant checking.

Three heads, one subsystem:

* **Plan linter** (:mod:`repro.analysis.plan_lint`) — walks
  :class:`~repro.plan.logical.LogicalPlan` trees before execution and
  reports shape problems the engines would otherwise burn time on:
  cartesian products, unsatisfiable predicate conjunctions, dead scan
  columns, dictionary-domain mismatches in join keys, duplicate output
  columns, and selections the planner should have pushed below a join.
  Exposed as ``repro analyze <query>`` and wired (mode-gated) into the SQL
  planner, the SPARQL executor, the benchmark query builders and the
  join-order optimizer.

* **Codebase invariant checker** (:mod:`repro.analysis.code_lint`) — an
  :mod:`ast`-based linter with repo-specific rules generic tools cannot
  express: no wall clock or unseeded randomness reachable from
  simulated-cost paths, no bare-``set`` iteration feeding benchmark or
  report output, join kernels must thread their sort-order hint, and no
  mutation of logical-plan nodes after construction.  Exposed as
  ``repro lint``, which fails on any violation.

* **Concurrency-safety analyzer** (:mod:`repro.analysis.concurrency`) —
  two heads over the process-wide state the query server shares between
  sessions: one static pass (every mutation of an annotated structure
  sits inside ``with <lock>:``, and every lock is a leaf — nothing else
  is acquired while it is held) and a runtime *race harness*
  (``REPRO_RACE_CHECK=1``) that records accessor threads on annotated
  structures and cross-checks that N-thread replay produces
  byte-identical simulated costs to serial.  ``repro lint`` runs the
  static pass with the code rules (``# unguarded-ok: <reason>`` is the
  inline, reviewed exception); ``repro analyze --concurrency`` adds the
  lock inventory and the runtime harness.

Rule catalog and workflow: ``docs/static-analysis.md``.
"""

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Diagnostic,
    max_severity,
    worst,
)
from repro.analysis.plan_lint import (
    PHYSICAL_RULES,
    PLAN_RULES,
    check_plan,
    lint_mode,
    lint_physical_plan,
    lint_plan,
    set_lint_mode,
)
from repro.analysis.code_lint import (
    CODE_RULES,
    Violation,
    lint_package,
    lint_paths,
    lint_source,
)
from repro.analysis.concurrency import (
    CONCURRENCY_RULES,
    check_package,
    check_paths,
    check_source,
    scan_paths,
)

__all__ = [
    "Diagnostic",
    "Violation",
    "SEVERITIES",
    "ERROR",
    "WARNING",
    "INFO",
    "max_severity",
    "worst",
    "PLAN_RULES",
    "PHYSICAL_RULES",
    "CODE_RULES",
    "lint_plan",
    "lint_physical_plan",
    "check_plan",
    "lint_mode",
    "set_lint_mode",
    "lint_source",
    "lint_paths",
    "lint_package",
    "CONCURRENCY_RULES",
    "check_source",
    "check_paths",
    "check_package",
    "scan_paths",
]
