"""RDF storage schemes: triple-store, vertically-partitioned, property table.

* **Triple-store** (Section 4.1) — one ``triples(subj, prop, obj)`` table
  whose design choice is the clustering order: the VLDB 2007 paper used SPO
  (plus unclustered POS/OSP); this paper shows PSO is decisively better.
* **Vertically-partitioned** (Section 4.2) — one ``(subj, obj)`` table per
  property, clustered SO (plus an OS index on the row store).  Laid end to
  end the tables *are* the PSO triples table, and each is a view of it.
* **Property table** (extension) — a wide table of single-valued
  properties per subject plus a leftover PSO triples table.

A small ``properties`` table holds the 28 "interesting" properties that
filter q2/q3/q4/q6.  Every builder runs one preparation
(:mod:`repro.storage.payload`: encode once, sort once, store a set),
deploys it into any engine exposing ``create_table`` and returns a
:class:`~repro.storage.catalog.StoreCatalog` for :mod:`repro.queries`.
"""

from repro.storage.catalog import StoreCatalog, CLUSTERINGS
from repro.storage.compress import CompressionConfig, choose_codec
from repro.storage.payload import build_store_from_payload
from repro.storage.triple_store import (
    build_triple_store,
    prepare_triple_payload,
)
from repro.storage.vertical_store import (
    build_vertical_store,
    prepare_vertical_payload,
)
from repro.storage.property_table import build_property_table_store
from repro.storage.maintenance import insert_triples, MaintenanceReport

__all__ = [
    "StoreCatalog",
    "CLUSTERINGS",
    "CompressionConfig",
    "choose_codec",
    "build_store_from_payload",
    "build_triple_store",
    "build_vertical_store",
    "prepare_triple_payload",
    "prepare_vertical_payload",
    "build_property_table_store",
    "insert_triples",
    "MaintenanceReport",
]
