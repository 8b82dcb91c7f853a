"""Table statistics and cardinality estimation for the join optimizer.

Classic System-R-style estimation over the statistics the engines can
provide (row counts and per-column distinct counts):

* equality against a constant: selectivity ``1 / V(col)``,
* inequality: ``1 - 1/V(col)``; range predicates: ``1/3``,
* equi-join: ``|L| * |R| / max(V(L.key), V(R.key))``.
"""

from dataclasses import dataclass

from repro.plan import logical as L
from repro.plan.predicates import is_column_comparison

RANGE_SELECTIVITY = 1 / 3


@dataclass(frozen=True)
class TableStats:
    """Row count and per-column distinct counts of one stored table."""

    n_rows: int
    distinct: dict  # column name -> distinct count

    def distinct_of(self, column):
        return max(1, self.distinct.get(column, max(1, self.n_rows)))


class Estimator:
    """Estimates output cardinalities of logical plans.

    *stats_provider* maps a table name to :class:`TableStats`.
    """

    def __init__(self, stats_provider):
        self.stats_provider = stats_provider
        # Plans are sealed, so an estimate never changes: both recursions
        # are memoised by node identity (each entry keeps its node, so an
        # id is never reused while this estimator lives).  Without the
        # memo, cardinality <-> _distinct_of is exponential in join depth.
        self._memo = {}

    def cardinality(self, node):
        return self._memoised(self._cardinality, node)

    def _distinct_of(self, node, column):
        """Distinct-count estimate for *column* of *node*'s output."""
        return self._memoised(self._distinct, node, column)

    def _memoised(self, estimate, node, *args):
        key = (estimate.__name__, id(node), *args)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = (node, estimate(node, *args))
        return entry[1]

    def _cardinality(self, node):
        if isinstance(node, L.Scan):
            return max(1, self.stats_provider(node.table).n_rows)
        if isinstance(node, L.Select):
            base = self.cardinality(node.child)
            selectivity = 1.0
            for p in node.predicates:
                selectivity *= self._predicate_selectivity(node.child, p)
            return max(1.0, base * selectivity)
        if isinstance(node, L.Project) or isinstance(node, L.Extend):
            return self.cardinality(node.children()[0])
        if isinstance(node, L.Join):
            return self._join_cardinality(node)
        if isinstance(node, L.GroupBy):
            child = self.cardinality(node.child)
            if not node.keys:
                return 1.0
            groups = 1.0
            for key in node.keys:
                groups *= self._distinct_of(node.child, key)
            return max(1.0, min(child, groups))
        if isinstance(node, L.Having):
            return max(1.0, self.cardinality(node.child) / 2)
        if isinstance(node, L.Union):
            return sum(self.cardinality(child) for child in node.inputs)
        if isinstance(node, L.Distinct):
            return max(1.0, self.cardinality(node.child) / 2)
        if isinstance(node, L.Sort):
            return self.cardinality(node.child)
        if isinstance(node, L.Limit):
            return min(node.n, self.cardinality(node.child))
        return 1000.0  # unknown node kinds: a neutral guess

    # ------------------------------------------------------------------

    def _predicate_selectivity(self, child, predicate):
        if is_column_comparison(predicate):
            if predicate.op == "=":
                return 1.0 / max(
                    self._distinct_of(child, predicate.left),
                    1.0,
                )
            return 1.0 - 1.0 / max(
                self._distinct_of(child, predicate.left), 1.0
            )
        if predicate.op == "=":
            if predicate.value is None:
                return 0.0
            return 1.0 / self._distinct_of(child, predicate.column)
        if predicate.op == "!=":
            return 1.0 - 1.0 / self._distinct_of(child, predicate.column)
        return RANGE_SELECTIVITY

    def _join_cardinality(self, node):
        left = self.cardinality(node.left)
        right = self.cardinality(node.right)
        denominator = 1.0
        for lcol, rcol in node.on:
            denominator *= max(
                self._distinct_of(node.left, lcol),
                self._distinct_of(node.right, rcol),
            )
        return max(1.0, left * right / max(denominator, 1.0))

    def _distinct(self, node, column):
        if isinstance(node, L.Scan):
            base = node.base_column(column)
            stats = self.stats_provider(node.table)
            return float(
                min(stats.distinct_of(base), max(1, stats.n_rows))
            )
        if isinstance(node, L.Project):
            for out, inp in node.mapping:
                if out == column:
                    return self._distinct_of(node.child, inp)
            return 100.0
        if isinstance(node, L.Extend) and column == node.column:
            return 1.0
        children = node.children()
        if isinstance(node, L.Union):
            # Positional semantics: map the column through each branch's
            # name at the same index; approximate with the branch sum.
            try:
                index = node.output_columns().index(column)
            except ValueError:
                return 100.0
            total = 0.0
            for child in children:
                child_column = child.output_columns()[index]
                total += self._distinct_of(child, child_column)
            return max(1.0, total)
        for child in children:
            if column in child.output_columns():
                distinct = self._distinct_of(child, column)
                # Filters below can only reduce distinct counts; cap by the
                # node's own cardinality.
                return max(1.0, min(distinct, self.cardinality(node)))
        return 100.0
