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
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} ({len(document['cases'])} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
