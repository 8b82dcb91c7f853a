"""repro.server — the concurrent query server and its workload tools.

The paper measures one query at a time on a cold or hot store; the
ROADMAP's north star is sustained concurrent traffic, where the shared
buffer pool and tail latency become the measured quantities.  This
package provides:

* :mod:`repro.server.scheduler` — a thread-pool **session scheduler**
  with admission control: a bounded queue in front of N worker threads,
  explicit overload rejection (HTTP 429), per-query deadlines with
  cooperative cancellation, and latency accounting (queue wait vs.
  execution) in :class:`~repro.observe.metrics.Histogram` fields.
* :mod:`repro.server.http` — ``repro serve``: a stdlib HTTP front-end
  exposing the session API (`POST /v1/query`, session endpoints, JSON
  stats, Prometheus ``/metrics``) over one shared
  :class:`~repro.api.Connection`.
* :mod:`repro.server.replay` — ``repro replay``: a workload generator
  sampling the Barton queries from a Zipf-skewed frequency distribution
  (real SPARQL workloads are frequency-skewed mixes of a few pattern
  shapes — Arias et al.), driving N concurrent clients and reporting
  p50/p95/p99 latency + throughput, recordable into the perf ledger.

Everything here is wall-clock territory (latencies, timeouts, throughput)
— the *simulated* costs of individual queries flow through untouched and
stay byte-identical to direct :meth:`repro.api.Session.query` execution
when replayed serially.
"""

from repro.server.http import QueryServer, serve
from repro.server.scheduler import SchedulerConfig, SessionScheduler
from repro.server.replay import (
    ReplayConfig,
    ReplayReport,
    WorkloadMix,
    record_from_replay,
    run_replay,
)

__all__ = [
    "QueryServer",
    "serve",
    "SchedulerConfig",
    "SessionScheduler",
    "ReplayConfig",
    "ReplayReport",
    "WorkloadMix",
    "record_from_replay",
    "run_replay",
]
