"""Plan parsed SPARQL against a store catalog.

Lowers the basic graph pattern through :func:`repro.core.bgp.bgp_plan`,
applies FILTER comparisons as selections on the joined relation, and
handles DISTINCT / LIMIT on the projected bindings.
"""

from repro.core.bgp import bgp_plan
from repro.errors import PlanError
from repro.model.triple import is_variable
from repro.plan import Comparison, Distinct, Limit, Project, Select


def sparql_plan(catalog, query):
    """Logical plan + projected variable names for a parsed query."""
    all_variables = sorted(
        {
            term.name
            for pattern in query.patterns
            for term in pattern
            if is_variable(term)
        }
    )
    projection = query.variables if query.variables is not None else all_variables
    # Filters may constrain non-projected variables: plan with the union of
    # both sets, then narrow.
    needed = list(dict.fromkeys(projection + [f.variable for f in query.filters]))
    plan, names = bgp_plan(catalog, query.patterns, projection=needed)

    for f in query.filters:
        if f.variable not in names:
            raise PlanError(
                f"FILTER on unknown variable ?{f.variable}"
            )
        plan = Select(
            plan, [Comparison(f.variable, f.op, catalog.encode(f.value))]
        )

    if needed != projection:
        plan = Project(plan, [(name, name) for name in projection])
    if query.distinct:
        plan = Distinct(plan)
    if query.limit is not None:
        # Pushed into the plan so engine timing reflects the truncation.
        plan = Limit(plan, query.limit)

    from repro.analysis import plan_lint

    plan_lint.check_plan(plan, where="sparql")
    return plan, projection

