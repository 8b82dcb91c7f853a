#!/usr/bin/env bash
# perfbench smoke: every workload on tiny data (untraced + traced, oracle
# on) plus the benchmark's self-tests.  Under a minute.  CI hook: one step
# running `bash perfbench/smoke.sh` from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
python3 perfbench/run.py --smoke --trace
python3 -m pytest perfbench/tests -q -p no:cacheprovider
