"""Basic graph pattern (BGP) to logical plan translation.

A BGP is a conjunction of triple patterns — the core of SPARQL and the
query model of the paper's Section 2.2.  This module lowers a BGP onto
whichever storage scheme the catalog describes:

* triple-store: one aliased scan of the triples table per pattern,
* vertically-partitioned: a scan of the bound property's table, or a UNION
  over all property tables when the property is a variable (exactly the
  expansion the paper's Section 4.2 discusses).

Patterns sharing variables become equi-joins; the join classes realized are
the paper's A (subject-subject), B (object-object) and C (object-subject).
"""

from repro.errors import PlanError
from repro.model.triple import Variable, is_variable
from repro.plan import (
    ColumnComparison,
    Comparison,
    Extend,
    Join,
    Project,
    Scan,
    Select,
    Union,
)


def bgp_plan(catalog, patterns, projection=None):
    """Build a logical plan for a conjunction of triple *patterns*.

    Each pattern is an ``(s, p, o)`` triple of constants (strings) and
    :class:`~repro.model.triple.Variable` terms.  Returns ``(plan,
    variable_names)`` where the plan's output columns are the projected
    variables in order.
    """
    patterns = [tuple(p) for p in patterns]
    if not patterns:
        raise PlanError("a BGP needs at least one pattern")

    relations = []
    for index, pattern in enumerate(patterns):
        relations.append(_pattern_relation(catalog, index, pattern))

    variable_columns = _variable_columns(patterns)
    plan = _join_connected(relations, patterns, variable_columns)

    if projection is None:
        projection = sorted(variable_columns)
    missing = [v for v in projection if v not in variable_columns]
    if missing:
        raise PlanError(f"projected variables not in BGP: {missing}")
    if not projection:
        # Fully-bound BGP: an existence check.  Project any column; one
        # output row per match.
        mapping = [("__exists__", plan.output_columns()[0])]
        return Project(plan, mapping), []
    mapping = [(name, variable_columns[name][0]) for name in projection]
    return Project(plan, mapping), list(projection)


def _pattern_relation(catalog, index, pattern):
    """A relation exposing columns T{i}.subj / T{i}.prop / T{i}.obj for the
    pattern's variable components, filtered by its constants."""
    s, p, o = pattern
    alias = f"T{index}"
    if catalog.is_triple_store():
        node = Scan(catalog.triples_table, ["subj", "prop", "obj"], alias=alias)
        predicates = []
        for component, term in zip(("subj", "prop", "obj"), pattern):
            if not is_variable(term):
                predicates.append(
                    Comparison(f"{alias}.{component}", "=", catalog.encode(term))
                )
        return Select(node, predicates) if predicates else node

    # Vertically-partitioned: dispatch on whether the property is bound.
    if not is_variable(p):
        table = catalog.property_tables.get(p)
        if table is None:
            # Unknown property: empty relation, via an unsatisfiable select
            # on any existing table (there is always at least one).
            table = next(iter(catalog.property_tables.values()))
            node = Scan(table, ["subj", "obj"], alias=alias)
            return Select(node, [Comparison(f"{alias}.subj", "=", None)])
        node = Scan(table, ["subj", "obj"], alias=alias)
        predicates = _so_predicates(alias, _so_constants(catalog, s, o))
        return Select(node, predicates) if predicates else node

    # Property variable: union over every property table, tagged with the
    # property oid (the paper's "sizable SQL clause").  The pattern's
    # constants are the same in every branch: encode them once.
    constants = _so_constants(catalog, s, o)
    branches = []
    for i, prop in enumerate(catalog.properties_for("all")):
        branch_alias = f"{alias}_{i}"
        node = Scan(
            catalog.property_table(prop), ["subj", "obj"], alias=branch_alias
        )
        predicates = _so_predicates(branch_alias, constants)
        if predicates:
            node = Select(node, predicates)
        node = Extend(node, f"{branch_alias}.prop", catalog.encode(prop))
        branches.append(
            Project(
                node,
                [
                    (f"{alias}.subj", f"{branch_alias}.subj"),
                    (f"{alias}.prop", f"{branch_alias}.prop"),
                    (f"{alias}.obj", f"{branch_alias}.obj"),
                ],
            )
        )
    return Union(branches, distinct=False)


def _so_constants(catalog, s, o):
    """``(component, oid)`` for each constant among a pattern's subject
    and object."""
    return [
        (component, catalog.encode(term))
        for component, term in (("subj", s), ("obj", o))
        if not is_variable(term)
    ]


def _so_predicates(alias, constants):
    return [
        Comparison(f"{alias}.{component}", "=", oid)
        for component, oid in constants
    ]


def _variable_columns(patterns):
    """variable name -> list of qualified columns where it occurs."""
    columns = {}
    for index, pattern in enumerate(patterns):
        for component, term in zip(("subj", "prop", "obj"), pattern):
            if is_variable(term):
                columns.setdefault(term.name, []).append(
                    f"T{index}.{component}"
                )
    return columns


def _join_connected(relations, patterns, variable_columns):
    """Left-deep join tree over patterns connected by shared variables.

    Every variable co-occurrence becomes either a join condition (the first
    one connecting a new pattern) or a post-join column-column filter
    (cyclic BGPs, and variables occurring three or more times)."""
    n = len(relations)
    joined = {0}
    plan = relations[0]
    while len(joined) < n:
        progress = False
        for index in range(n):
            if index in joined:
                continue
            condition = _connecting_condition(index, joined, variable_columns)
            if condition is None:
                continue
            left_col, right_col = condition
            plan = Join(plan, relations[index], on=[(left_col, right_col)])
            joined.add(index)
            progress = True
        if not progress:
            raise PlanError(
                "BGP is not connected: cartesian products are not supported"
            )
    # Enforce every remaining same-variable equality (cycles, triple
    # occurrences) with post-join filters.
    residual = []
    for name, columns in variable_columns.items():
        anchor = columns[0]
        for other in columns[1:]:
            residual.append(ColumnComparison(anchor, "=", other))
    # Joins already enforce transitively-connected equalities, but applying
    # them again is harmless (always-true filters) and covers the cyclic
    # edges that joins missed.
    if residual:
        plan = Select(plan, residual)
    return plan


def _connecting_condition(index, joined, variable_columns):
    prefix = f"T{index}."
    for name, columns in variable_columns.items():
        mine = [c for c in columns if c.startswith(prefix)]
        theirs = [
            c
            for c in columns
            if any(c.startswith(f"T{j}.") for j in joined)
        ]
        if mine and theirs:
            return (theirs[0], mine[0])
    return None
