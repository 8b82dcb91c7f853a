"""The benchmark queries: q1-q7 from Abadi et al., q8 and the full-scale
``*`` variants added by this paper.

Each query is defined once, as the paper's appendix SQL
(:data:`repro.sql.appendix.APPENDIX_SQL`).  :func:`build_query` places it
on a :class:`~repro.storage.catalog.StoreCatalog`'s scheme — the one
rewrite of :mod:`repro.sql.generator`, for the triple, vertical and
property-table schemes alike — and plans it into an engine-neutral
logical plan that runs on any engine.  Only q8 off the triple store
(Section 4.2's two-phase plan) is built by hand
(:mod:`repro.queries.ptable_plans`).

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
