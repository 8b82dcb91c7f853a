"""Benchmark harness: the cold/hot protocol, metrics, and the experiment
drivers that regenerate every table and figure of the paper.

The conventions follow the paper's Section 2.3:

* **cold run** — the DBMS restarts and every cache is flushed before the
  query executes (here: the simulated buffer pool is cleared),
* **hot run** — the query ran once to load its data; measurements come from
  subsequent runs without clearing anything,
* **real time** — simulated wall clock on the server (CPU + synchronous
  I/O); **user time** — the CPU part alone,
* loading, clustering and index construction stay outside the measured
  window.

The protocol itself has one implementation,
:meth:`repro.exec.host.EngineHost.run` (``engine.run(plan, mode="cold")``);
:meth:`repro.bench.systems.Deployment.run` reaches it by query name.
"""

from repro.bench.metrics import geometric_mean, TimingCell, summarize
from repro.bench.reporting import format_table, format_series
from repro.bench.scheduler import Cell, map_cells, run_cells

__all__ = [
    "geometric_mean",
    "TimingCell",
    "summarize",
    "format_table",
    "format_series",
    "Cell",
    "map_cells",
    "run_cells",
]
