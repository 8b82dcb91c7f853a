"""Deploy the benchmark's system configurations.

The grid of Tables 6/7: two SQL engines (the DBX-like row store and the
MonetDB-like column store) each hosting the triple-store (clustered SPO or
PSO) and the vertically-partitioned scheme, plus the C-Store replica
(vertically-partitioned only).  All Tables 6/7 runs use machine B, as in
the paper (Section 4.3).
"""

import threading
from dataclasses import dataclass

from repro.colstore import ColumnStoreEngine
from repro.cstore import CSTORE_QUERIES, CStoreEngine
from repro.engine import (
    COLUMN_STORE_COSTS,
    CSTORE_COSTS,
    MACHINE_B,
    ROW_STORE_COSTS,
)
from repro.errors import BenchmarkError
from repro.lru import LruCache
from repro.queries import build_query
from repro.rowstore import RowStoreEngine
from repro.storage import (
    build_store_from_payload,
    prepare_triple_payload,
    prepare_vertical_payload,
)

#: Triple count of the real Barton dump — the denominator of the scale
#: model (see MachineProfile.scaled).
PAPER_TRIPLE_COUNT = 50_255_599


def data_scale(dataset):
    """The 1:N scale factor of a synthetic dataset vs the Barton dump."""
    return min(1.0, len(dataset.triples) / PAPER_TRIPLE_COUNT)

#: (system, scheme, clustering) rows of Tables 6/7, in paper order.
SYSTEM_GRID = (
    ("DBX", "triple", "SPO"),
    ("DBX", "triple", "PSO"),
    ("DBX", "vert", "SO"),
    ("MonetDB", "triple", "SPO"),
    ("MonetDB", "triple", "PSO"),
    ("MonetDB", "vert", "SO"),
    ("C-Store", "vert", "SO"),
)


@dataclass
class Deployment:
    """An engine loaded with one storage scheme."""

    system: str
    scheme: str
    clustering: str
    engine: object
    catalog: object  # None for the C-Store replica
    scale: float = 1.0

    def label(self):
        return f"{self.system}/{self.scheme}-{self.clustering}"

    def scaled_seconds(self, seconds):
        """Convert simulated seconds to paper-scale-comparable seconds."""
        return seconds / self.scale

    def run(self, query_name, mode=None, scope=None):
        """One measured run of a benchmark query under the engine's
        cold/hot protocol (:meth:`repro.exec.host.EngineHost.run`);
        returns ``(relation, timing)``."""
        if self.system == "C-Store":
            if scope is not None:
                raise BenchmarkError(
                    "the C-Store replica's hardwired plans cannot change "
                    "their property scope"
                )
            return self.engine.run(query_name, mode=mode)
        plan = build_query(self.catalog, query_name, scope=scope)
        return self.engine.run(plan, mode=mode)

    def supports(self, query_name):
        if self.system == "C-Store":
            return query_name in CSTORE_QUERIES
        return True


def deploy(dataset, system, scheme, clustering="PSO", machine=MACHINE_B,
           cache=True, compression=None, workers=None):
    """Create one deployment of the grid over *dataset*.

    The engine runs as a 1:N scale model: fixed latencies and per-query
    overheads shrink with the dataset so simulated times divided by the
    scale factor are directly comparable with the paper's seconds.

    The encoded, pre-sorted store payload (:mod:`repro.storage.payload`)
    of a physical design is prepared once per process and reused by every
    later deploy of the same dataset object (:func:`prepared_payload`); a
    reused payload deploys a store byte-identical to a fresh build.  Pass
    ``cache=False`` to prepare afresh.

    *compression* enables columnar compression on the MonetDB-like engine
    (``"physical"``, see
    :class:`~repro.storage.compress.CompressionConfig`).  The default
    ``None`` reads the ``REPRO_COMPRESS`` environment variable, so a whole
    benchmark run can be compressed without threading the option through
    every experiment.

    *workers* sets the MonetDB-like engine's intra-query degree of
    parallelism (morsel-driven; results and simulated costs are identical
    at any value).  The default ``None`` reads ``REPRO_WORKERS``.
    """
    if compression is None:
        import os

        compression = os.environ.get("REPRO_COMPRESS") or None
    interesting = dataset.interesting_properties
    scale = data_scale(dataset)
    scaled_machine = machine.scaled(scale)
    if system == "DBX":
        engine = RowStoreEngine(
            machine=scaled_machine, costs=ROW_STORE_COSTS.scaled(scale)
        )
    elif system == "MonetDB":
        engine = ColumnStoreEngine(
            machine=scaled_machine, costs=COLUMN_STORE_COSTS.scaled(scale),
            compression=compression, workers=workers,
        )
    elif system == "C-Store":
        # The replica's synchronous 64 KB requests cap its read rate at the
        # machine's effective small-request bandwidth (nearly identical on
        # A and B); encode that as the scaled profile's bandwidth so the
        # latency-bound behaviour survives the 1:N scale model.
        from repro.cstore.engine import MAX_REQUEST_BYTES

        cstore_machine = machine.with_read_bandwidth(
            machine.effective_bandwidth(MAX_REQUEST_BYTES)
        ).scaled(scale)
        engine = CStoreEngine(
            machine=cstore_machine, costs=CSTORE_COSTS.scaled(scale)
        )
        engine.load_vertical(dataset.triples, interesting)
        return Deployment(system, "vert", "SO", engine, None, scale)
    else:
        raise BenchmarkError(f"unknown system {system!r}")

    if scheme == "vert":
        store_scheme, clustering = "vertical", "SO"
    elif scheme == "triple":
        store_scheme = "triple"
    else:
        raise BenchmarkError(f"unknown scheme {scheme!r}")
    payload = prepared_payload(
        dataset, store_scheme, clustering.upper(),
        engine.kind == "row-store", cache=cache,
    )
    catalog = build_store_from_payload(engine, payload)
    return Deployment(system, scheme, clustering, engine, catalog, scale)


#: Prepared store payloads a process keeps: a sweep deploys the same few
#: physical designs of one dataset many times.
PAYLOAD_MEMO_SIZE = 8

_PAYLOADS_LOCK = threading.Lock()
#: (id of the triples, interesting properties, scheme, clustering, indexes)
#: -> (the triples, payload).  Holding the triples keeps their id from being
#: reused while the entry lives.
_PAYLOADS = LruCache(PAYLOAD_MEMO_SIZE)  # guarded-by: _PAYLOADS_LOCK


def prepared_payload(dataset, scheme, clustering, with_indexes, cache=True):
    """The prepared payload of one physical design of *dataset*, reused
    from the process's memo unless *cache* is ``False``.  Building a store
    from it never writes to it: the tables keep read-only views of its
    arrays, and a maintenance insert copies what it changes."""
    interesting = dataset.interesting_properties
    key = (id(dataset.triples), tuple(interesting), scheme, clustering,
           with_indexes)
    if cache:
        with _PAYLOADS_LOCK:
            entry = _PAYLOADS.get(key)
        if entry is not None:
            return entry[1]
    if scheme == "triple":
        payload = prepare_triple_payload(
            dataset.triples, interesting, clustering=clustering,
            with_indexes=with_indexes,
        )
    else:
        payload = prepare_vertical_payload(
            dataset.triples, interesting, with_indexes=with_indexes,
        )
    if not cache:
        return payload
    with _PAYLOADS_LOCK:
        return _PAYLOADS.put(key, (dataset.triples, payload))[1]


def deploy_grid(dataset, machine=MACHINE_B, grid=SYSTEM_GRID, cache=True):
    """Deploy every system configuration of Tables 6/7."""
    return [
        deploy(dataset, *config, machine=machine, cache=cache)
        for config in grid
    ]
