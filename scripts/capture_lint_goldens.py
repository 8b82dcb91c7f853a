#!/usr/bin/env python
"""Capture the lint/lowering golden document.

Writes ``tests/data/lint_goldens.json``: per case the plan linter's full
diagnostic list, a digest of every ``PlanFacts`` answer, and the physical
operator-name tree under each engine configuration (see
``tests/test_frontend_goldens.py``, which owns the case list).  The
committed file was captured from the commit before the front end became
single-pass, and regenerated once since: when the ``parallel-*``
operators were deleted the worker count stopped being an engine
configuration (diagnostics and facts came out unchanged; the lowering
trees lost only those names).  Re-run only when a rule, guard or
operator changes on purpose (and say so in the commit that regenerates
the file).

The document also holds a digest of every named query's rendered plan
(at the default scope, ``"all"`` and three Figure 6 sweep points) and of
the vertical SQL the generator emits for each appendix and ad-hoc text.
Generator entries are keyed by their input text and never dropped: a
re-capture after an appendix query is reworded adds the new wording and
keeps the old one, whose output must not change either.

Usage::

    PYTHONPATH=src python scripts/capture_lint_goldens.py [output.json]
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from tests.test_frontend_goldens import GOLDENS, build_document  # noqa: E402


def main(argv):
    out = Path(argv[1]) if len(argv) > 1 else GOLDENS
    document = build_document()
    if out.exists():
        with open(out) as handle:
            captured = json.load(handle).get("generated_sql", {})
        document["generated_sql"] = {**captured, **document["generated_sql"]}
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} ({len(document['cases'])} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
