#!/usr/bin/env python
"""Compare two benchmark JSON documents under the regression policies.

Usage::

    python scripts/compare_bench_json.py serial.json parallel.json
    python scripts/compare_bench_json.py --json old.json new.json

The documents are the ``repro bench --json`` output (a list of experiment
results).  The comparison delegates to
:mod:`repro.observe.regression`: simulated timings, tables and figure
series must be **byte-identical** after stripping the ``meta`` blocks
(wall-clock per cell, worker count); the summed wall-clock is reported
informationally with its ratio.  ``--json`` emits the machine-readable
diff instead of text.

Exit status 0 means no gate tripped, 1 means a regression (printed),
2 means usage or input error.
"""

import argparse
import json
import os
import sys

# Runnable from a checkout without an installed package.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.observe.regression import compare_bench_documents  # noqa: E402


def build_parser():
    parser = argparse.ArgumentParser(
        description="Compare two 'repro bench --json' documents: simulated "
                    "results byte-identical, wall-clock informational.",
    )
    parser.add_argument("baseline", help="baseline bench JSON")
    parser.add_argument("current", help="current bench JSON")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the comparison as a JSON document on stdout",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        with open(args.current) as handle:
            current = json.load(handle)
        comparison = compare_bench_documents(
            baseline, current,
            name=f"{args.baseline} vs {args.current}",
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
    else:
        stream = sys.stdout if comparison.ok else sys.stderr
        print(comparison.render(), file=stream)
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    sys.exit(main())
