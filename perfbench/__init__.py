"""perfbench — the wall-clock benchmark of this repository.

Self-contained: it measures the program from outside, by timing calls
into each module's public functions with ``time.perf_counter``.  See
``perfbench/README.md``; the contract it is run under is the root
``BENCHMARK.json``.
"""
