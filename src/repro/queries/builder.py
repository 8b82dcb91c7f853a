"""Build logical plans for the benchmark queries against a store catalog.

Each query is defined once, as the paper's appendix SQL
(:data:`repro.sql.appendix.APPENDIX_SQL`, parsed once per process).  A
triple store plans it as written; a vertical store first rewrites it at
the AST with the generator of :mod:`repro.sql.generator` (the paper's
"Perl script"), so an unbound property becomes a UNION over the in-scope
property tables.  Vertical q8 and the property-table extension are built
by hand (:mod:`repro.queries.ptable_plans`).  Every plan ends in a Project
onto the query's canonical output column names, so results are comparable
across schemes and engines.
"""

import dataclasses
import functools

from repro.errors import PlanError
from repro.queries.definitions import QUERIES, parse_query_name
from repro.queries.ptable_plans import PropertyTablePlans, vertical_q8
from repro.sql import ast
from repro.sql.appendix import APPENDIX_SQL
from repro.sql.generator import _Rewriter
from repro.sql.parser import parse_sql
from repro.sql.planner import _Planner


def build_query(catalog, name, scope=None, lint=None):
    """Build the logical plan for benchmark query *name* over *catalog*.

    *scope* overrides the property scope ("interesting", "all", or an
    explicit property-name list) — used by the Figure 6 sweep, which varies
    the number of properties considered by q2/q3/q4/q6.  A triple store
    takes only "interesting" or "all": its restriction is the catalog's
    ``properties`` table, which :meth:`StoreCatalog.with_properties`
    replaces.

    Every built plan runs through the static plan linter
    (:mod:`repro.analysis`); *lint* overrides the session lint mode for
    this call (``"off"`` / ``"warn"`` / ``"strict"``).
    """
    base, full_scale = parse_query_name(name)
    if scope is None:
        scope = "all" if full_scale else "interesting"
    if catalog.scheme == "property_table":
        plan = getattr(PropertyTablePlans(catalog), base)(scope)
    elif catalog.is_vertical() and base == "q8":
        plan = vertical_q8(catalog)
    elif catalog.is_triple_store() or catalog.is_vertical():
        statement = _appendix_statement(
            f"{base}*" if scope == "all" and QUERIES[base].has_star_variant
            else base
        )
        if catalog.is_vertical():
            statement = _Rewriter(
                catalog, catalog.properties_for(scope)
            ).rewrite(statement)
        elif scope not in ("interesting", "all"):
            raise PlanError(
                f"a triple store cannot take the property scope {scope!r}: "
                "it filters on its catalog's properties table; build one "
                "and pass catalog.with_properties(table, properties)"
            )
        elif catalog.properties_table != "properties":
            # The filter table of a with_properties catalog (Figure 6).
            statement = dataclasses.replace(statement, from_items=tuple(
                ast.FromTable(catalog.properties_table, item.alias)
                if isinstance(item, ast.FromTable)
                and item.table == "properties" else item
                for item in statement.from_items
            ))
        plan = _Planner(catalog).plan(statement)
    else:
        raise PlanError(f"unknown storage scheme {catalog.scheme!r}")

    from repro.analysis import plan_lint

    plan_lint.check_plan(plan, where=f"query:{name}", mode=lint)
    return plan


@functools.lru_cache(maxsize=None)
def _appendix_statement(name):
    return parse_sql(APPENDIX_SQL[name])
