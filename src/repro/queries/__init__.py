"""The benchmark queries: q1-q7 from Abadi et al., q8 and the full-scale
``*`` variants added by this paper.

Queries are built as engine-neutral logical plans against a
:class:`~repro.storage.catalog.StoreCatalog`, so the same query definition
runs on the triple-store and the vertically-partitioned scheme, on any
engine.

Naming convention: ``"q1"`` .. ``"q8"`` are the 28-property-restricted
queries; ``"q2*"``, ``"q3*"``, ``"q4*"``, ``"q6*"`` are the full-scale
versions considering all properties (q8 always considers all properties —
its property is unbound).
"""

from repro.queries.definitions import (
    ALL_QUERY_NAMES,
    BASE_QUERY_NAMES,
    QUERIES,
    QueryDefinition,
    coverage_table,
)
from repro.queries.builder import build_query
from repro.queries.reference import reference_answer

__all__ = [
    "ALL_QUERY_NAMES",
    "BASE_QUERY_NAMES",
    "QUERIES",
    "QueryDefinition",
    "coverage_table",
    "build_query",
    "reference_answer",
]
