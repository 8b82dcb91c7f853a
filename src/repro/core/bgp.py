"""Basic graph pattern (BGP) to logical plan translation.

A BGP is a conjunction of triple patterns — the core of SPARQL and the
query model of the paper's Section 2.2.  This module writes a BGP as the
triple-schema SQL the appendix writes by hand: one ``triples AS T{i}``
per pattern, its constants as conditions, and ``anchor = other``
equalities for every variable that occurs more than once.  That statement
is placed on the deployed scheme (:func:`repro.sql.generator.place`) and
planned like any SQL, so the scheme mapping exists once.

Patterns sharing variables become equi-joins; the join classes realized are
the paper's A (subject-subject), B (object-object) and C (object-subject).
"""

from repro.errors import PlanError, SQLError
from repro.model.triple import is_variable
from repro.sql import ast
from repro.sql.generator import place
from repro.sql.planner import _Planner

COMPONENTS = ("subj", "prop", "obj")


def bgp_plan(catalog, patterns, projection=None):
    """Build a logical plan for a conjunction of triple *patterns*.

    Each pattern is an ``(s, p, o)`` triple of constants (strings) and
    :class:`~repro.model.triple.Variable` terms.  Returns ``(plan,
    variable_names)`` where the plan's output columns are the projected
    variables in order.
    """
    statement, projection = bgp_statement(patterns, projection)
    try:
        plan = _Planner(catalog).plan(place(statement, catalog))
    except SQLError as error:
        # The one SQL error a BGP's statement can meet: patterns that no
        # shared variable connects.
        raise PlanError(f"BGP is not connected: {error}") from None
    return plan, projection


def bgp_statement(patterns, projection=None):
    """``(triple-schema SELECT, projected variable names)`` for *patterns*.

    A fully bound BGP is an existence check: it projects one column,
    ``__exists__``, one row per match, and no variable.
    """
    patterns = [tuple(p) for p in patterns]
    if not patterns:
        raise PlanError("a BGP needs at least one pattern")
    constants, columns = [], {}
    for index, pattern in enumerate(patterns):
        for component, term in zip(COMPONENTS, pattern):
            column = ast.ColumnRef(f"T{index}", component)
            if is_variable(term):
                columns.setdefault(term.name, []).append(column)
            else:
                constants.append(
                    ast.Condition(column, "=", ast.StringLit(term))
                )
    if projection is None:
        projection = sorted(columns)
    missing = [v for v in projection if v not in columns]
    if missing:
        raise PlanError(f"projected variables not in BGP: {missing}")
    items = [ast.SelectItem(columns[name][0], name) for name in projection]
    if not items:
        items = [ast.SelectItem(ast.ColumnRef("T0", "subj"), "__exists__")]
    equalities = [
        ast.Condition(anchor, "=", other)
        for anchor, *others in columns.values()
        for other in others
    ]
    statement = ast.SelectStmt(
        items=tuple(items),
        from_items=tuple(
            ast.FromTable("triples", f"T{i}") for i in range(len(patterns))
        ),
        where=tuple(constants + equalities),
    )
    return statement, list(projection)
