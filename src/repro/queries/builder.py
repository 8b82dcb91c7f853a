"""Build logical plans for the benchmark queries against a store catalog.

Each query is defined once, as the paper's appendix SQL
(:data:`repro.sql.appendix.APPENDIX_SQL`, parsed once per process), and
every scheme builds it the same way: parse, place on the scheme
(:func:`repro.sql.generator.place`, the paper's "Perl script"), plan.
Only q8 off the triple store is built by hand
(:mod:`repro.queries.ptable_plans`).  Every plan ends in a Project onto
the query's canonical output column names, so results are comparable
across schemes and engines.
"""

import functools

from repro.queries.definitions import QUERIES, parse_query_name
from repro.queries.ptable_plans import property_table_q8, vertical_q8
from repro.sql.appendix import APPENDIX_SQL
from repro.sql.generator import place
from repro.sql.parser import parse_sql
from repro.sql.planner import _Planner

#: q8 as Section 4.2's two-phase plan, per scheme that unions for it.
HAND_BUILT_Q8 = {"vertical": vertical_q8, "property_table": property_table_q8}


def build_query(catalog, name, scope=None):
    """Build the logical plan for benchmark query *name* over *catalog*.

    *scope* overrides the property scope ("interesting", "all", or an
    explicit property-name list) — used by the Figure 6 sweep, which varies
    the number of properties considered by q2/q3/q4/q6.  Only a vertical
    store takes a list; the other schemes restrict through the catalog's
    ``properties`` table, which :meth:`StoreCatalog.with_properties`
    replaces.
    """
    base, full_scale = parse_query_name(name)
    if scope is None:
        scope = "all" if full_scale else "interesting"
    if base == "q8" and catalog.scheme in HAND_BUILT_Q8:
        return HAND_BUILT_Q8[catalog.scheme](catalog)
    statement = _appendix_statement(
        f"{base}*" if scope == "all" and QUERIES[base].has_star_variant
        else base
    )
    properties = None if scope in ("interesting", "all") else scope
    return _Planner(catalog).plan(place(statement, catalog, properties))


@functools.lru_cache(maxsize=None)
def _appendix_statement(name):
    return parse_sql(APPENDIX_SQL[name])
