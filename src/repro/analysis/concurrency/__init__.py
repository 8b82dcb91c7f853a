"""Head 3: concurrency-safety analysis.

Two heads, both zero-dependency:

* :mod:`repro.analysis.concurrency.guarded` — the **static checker**, one
  :mod:`ast` walk per module: every module-level mutable object must be
  mutated under the lock its ``# guarded-by: <LockName>`` annotation
  names, and every lock is a leaf — nothing else is acquired while it is
  held, lexically or through a resolvable call.
* :mod:`repro.observe.race` — the **runtime race harness** (re-exported
  here): ``REPRO_RACE_CHECK=1`` turns annotated structures into write
  barriers that record accessor thread ids and report mutations made
  without their guard lock held.  The harness lives under
  :mod:`repro.observe` so the engine substrate can import it without
  pulling in the analysis stack.

:mod:`repro.analysis.concurrency.determinism` drives the runtime phase of
``repro analyze --concurrency``: a serial-vs-threaded replay whose
per-query simulated costs must be byte-identical.
"""

from repro.analysis.concurrency.guarded import (
    CONCURRENCY_RULES,
    check_package,
    check_paths,
    check_source,
    scan_paths,
)
from repro.observe.race import (
    InstrumentedLock,
    enable_race_check,
    guard_lock,
    race_check_enabled,
    race_report,
    reset_race_state,
    shared_state,
)

__all__ = [
    "CONCURRENCY_RULES",
    "check_source",
    "check_paths",
    "check_package",
    "scan_paths",
    "InstrumentedLock",
    "guard_lock",
    "shared_state",
    "enable_race_check",
    "race_check_enabled",
    "race_report",
    "reset_race_state",
]
