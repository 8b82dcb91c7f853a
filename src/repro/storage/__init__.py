"""RDF storage schemes: triple-store and vertically-partitioned.

The two physical organizations the paper compares (Sections 4.1, 4.2):

* **Triple-store** — one ``triples(subj, prop, obj)`` table.  The physical
  design choice is the clustering order: the original VLDB 2007 paper used
  SPO (plus unclustered POS/OSP); this paper shows PSO — the closest
  equivalent of the vertically-partitioned clustering — is decisively
  better.  A small ``properties`` table holds the 28 "interesting"
  properties used to filter q2/q3/q4/q6.
* **Vertically-partitioned** — one two-column ``(subj, obj)`` table per
  property, sorted/clustered on SO (plus an unclustered OS index on the row
  store).

Builders deploy a scheme into any engine exposing ``create_table`` and
return a :class:`~repro.storage.catalog.StoreCatalog` describing what was
created; the query builders in :mod:`repro.queries` consume the catalog.
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
