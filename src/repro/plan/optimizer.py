"""EXTENSION — greedy cost-based join-order optimization.

The benchmark plans are hand-ordered the way the paper's SQL implies, and
the calibrated Tables 6/7 run them as-is.  This optimizer exists as an
opt-in extension (``Session.query(..., optimize=True)`` or
:func:`optimize_joins` directly): it flattens each join tree, estimates
cardinalities with System-R-style statistics, and rebuilds a left-deep
join order greedily — start from the smallest relation, repeatedly join
the connected relation with the smallest estimated intermediate result.

Only join *order* changes; selections, projections, grouping and everything
above/below the join tree stay where they were, so the optimized plan is
result-equivalent by construction (asserted by differential tests).
"""

import numpy as np

from repro.plan import logical as L
from repro.plan.stats import Estimator, TableStats


def engine_stats_provider(engine):
    """A stats provider over an engine's stored tables (computed lazily)."""
    cache = {}

    def provider(table_name):
        if table_name not in cache:
            cache[table_name] = _table_stats(engine, table_name)
        return cache[table_name]

    return provider


def _table_stats(engine, table_name):
    table = engine.table(table_name)
    distinct = {
        column: int(len(np.unique(table.array(column))))
        for column in table.column_names()
    }
    return TableStats(n_rows=table.n_rows, distinct=distinct)


def optimize_joins(plan, stats_provider):
    """Rewrite every maximal join tree in *plan* into a greedy order.

    The rewrite must be result-equivalent *and* lint-equivalent: the
    output plan is asserted to carry no more warning-or-worse static
    diagnostics than the input (``repro.analysis``), so join reordering
    can never introduce a cartesian product or a domain-mismatched key.
    """
    from repro.analysis import plan_lint

    estimator = Estimator(stats_provider)
    optimized = _rewrite(plan, estimator)
    plan_lint.assert_no_regression(plan, optimized, where="optimize_joins")
    return optimized


def annotate_cardinalities(plan, stats_provider):
    """Estimated output cardinality for every node of *plan*.

    Returns ``{id(node): estimated_rows}`` — the estimates the greedy
    optimizer would work from.  The EXPLAIN ANALYZE profiler joins this
    against actual per-operator row counts, which is what makes the
    estimator testable against reality (``misestimate_ratio`` per node).
    """
    estimator = Estimator(stats_provider)
    estimates = {}

    def walk(node):
        estimates[id(node)] = float(estimator.cardinality(node))
        for child in node.children():
            walk(child)

    walk(plan)
    return estimates


def _rewrite(node, estimator):
    if isinstance(node, L.Join):
        relations, conditions = _flatten(node)
        relations = [_rewrite_children(r, estimator) for r in relations]
        return _greedy_join(relations, conditions, estimator)
    return _rewrite_children(node, estimator)


def _rewrite_children(node, estimator):
    children = node.children()
    if not children:
        return node
    new_children = [_rewrite(child, estimator) for child in children]
    if all(a is b for a, b in zip(children, new_children)):
        return node
    return _clone_with_children(node, new_children)


def _clone_with_children(node, children):
    if isinstance(node, L.Select):
        return L.Select(children[0], node.predicates)
    if isinstance(node, L.Project):
        return L.Project(children[0], node.mapping)
    if isinstance(node, L.GroupBy):
        return L.GroupBy(children[0], node.keys, node.count_column)
    if isinstance(node, L.Having):
        return L.Having(children[0], node.predicate)
    if isinstance(node, L.Union):
        return L.Union(children, distinct=node.distinct)
    if isinstance(node, L.Distinct):
        return L.Distinct(children[0])
    if isinstance(node, L.Extend):
        return L.Extend(children[0], node.column, node.value)
    if isinstance(node, L.Sort):
        return L.Sort(children[0], node.keys)
    if isinstance(node, L.Limit):
        return L.Limit(children[0], node.n)
    if isinstance(node, L.Join):
        return L.Join(children[0], children[1], on=node.on)
    return node


def _flatten(node):
    """Flatten a nested single-condition join tree into relations + edges."""
    if isinstance(node, L.Join):
        left_rels, left_conds = _flatten(node.left)
        right_rels, right_conds = _flatten(node.right)
        return (
            left_rels + right_rels,
            left_conds + right_conds + list(node.on),
        )
    return [node], []


def _greedy_join(relations, conditions, estimator):
    available = list(relations)
    remaining = list(conditions)

    def owner(column):
        for relation in available:
            if column in relation.output_columns():
                return relation
        return None

    # Start from the relation with the smallest estimated cardinality that
    # participates in some condition.
    def participates(relation):
        columns = set(relation.output_columns())
        return any(
            l in columns or r in columns for l, r in remaining
        ) or not remaining

    candidates = [r for r in available if participates(r)]
    current = min(candidates, key=estimator.cardinality)
    available.remove(current)
    joined_columns = set(current.output_columns())

    while available:
        best = None
        for l, r in remaining:
            if l in joined_columns and r not in joined_columns:
                other = owner(r)
                on = (l, r)
            elif r in joined_columns and l not in joined_columns:
                other = owner(l)
                on = (r, l)
            else:
                continue
            if other is None:
                continue
            candidate = L.Join(current, other, on=[on])
            cost = estimator.cardinality(candidate)
            if best is None or cost < best[0]:
                best = (cost, candidate, other, (l, r))
        if best is None:
            # No connecting condition (shouldn't happen for plans produced
            # by our planners); keep the original order for the rest.
            raise_unconnected(available)
        _, current, other, used = best
        available.remove(other)
        joined_columns |= set(other.output_columns())
        remaining.remove(used)

    # Any remaining conditions connect already-joined relations: filters.
    if remaining:
        from repro.plan.predicates import ColumnComparison

        current = L.Select(
            current,
            [ColumnComparison(l, "=", r) for l, r in remaining],
        )
    return current


def raise_unconnected(available):
    from repro.errors import PlanError

    raise PlanError(
        "optimizer: join graph is not connected; relations "
        f"{[repr(r) for r in available]}"
    )
