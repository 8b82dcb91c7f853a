"""Logical plan nodes.

Plans are immutable trees — and this module *enforces* it: every node is
sealed when its constructor returns, so later attribute assignment raises
:class:`PlanError` (the optimizer, the profiler and the engines share node
objects freely, which is only sound because nothing can mutate them; see
also the ``plan-mutation`` rule of ``repro lint``).  Column naming
discipline: a :class:`Scan` with alias ``A`` over a table with columns
``subj, prop, obj`` emits columns ``A.subj, A.prop, A.obj``; joins
concatenate the (disjoint) column sets of their inputs; :class:`Project`
renames/narrows.  Every node can report its output column names, which
lets plans be validated once at construction time instead of failing deep
inside an engine.
"""

import functools

from repro.errors import PlanError
from repro.plan.predicates import ColumnComparison, Comparison


class LogicalPlan:
    """Base class; subclasses are the algebra operators.

    Instances freeze when construction completes: ``__init_subclass__``
    wraps each subclass ``__init__`` to seal the node, and ``__setattr__``
    rejects writes to sealed nodes.  Rewrites build new nodes (see
    ``repro.plan.optimizer._clone_with_children``).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is None or getattr(init, "_seals_plan_node", False):
            return

        @functools.wraps(init)
        def sealing_init(self, *args, **kw):
            init(self, *args, **kw)
            # Only the outermost constructor seals, so a subclass __init__
            # chaining through super().__init__() still works.
            if type(self).__init__ is sealing_init:
                object.__setattr__(self, "_sealed", True)

        sealing_init._seals_plan_node = True
        cls.__init__ = sealing_init

    def __setattr__(self, name, value):
        if getattr(self, "_sealed", False):
            raise PlanError(
                f"{type(self).__name__} is immutable after construction; "
                f"cannot set {name!r} — build a new node instead"
            )
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if getattr(self, "_sealed", False):
            raise PlanError(
                f"{type(self).__name__} is immutable after construction; "
                f"cannot delete {name!r}"
            )
        object.__delattr__(self, name)

    def output_columns(self):
        raise NotImplementedError

    def children(self):
        return ()

    def _require_columns(self, needed, where):
        available = set(self.output_columns())
        missing = [c for c in needed if c not in available]
        if missing:
            raise PlanError(
                f"{where}: unknown column(s) {missing}; available: "
                f"{sorted(available)}"
            )


class Scan(LogicalPlan):
    """Scan a stored table, optionally under an alias."""

    def __init__(self, table, columns, alias=None):
        if not columns:
            raise PlanError("Scan needs at least one column")
        self.table = table
        self.base_columns = list(columns)
        self.alias = alias

    def children(self):
        return ()

    def qualified(self, column):
        return f"{self.alias}.{column}" if self.alias else column

    def output_columns(self):
        return [self.qualified(c) for c in self.base_columns]

    def __repr__(self):
        alias = f" AS {self.alias}" if self.alias else ""
        return f"Scan({self.table}{alias})"


class Select(LogicalPlan):
    """Filter rows by a conjunction of comparisons.

    Predicates are :class:`Comparison` (column vs constant) or
    :class:`ColumnComparison` (column vs column within the relation).
    """

    def __init__(self, child, predicates):
        predicates = list(predicates)
        if not predicates:
            raise PlanError("Select needs at least one predicate")
        needed = []
        for p in predicates:
            if isinstance(p, Comparison):
                needed.append(p.column)
            elif isinstance(p, ColumnComparison):
                needed.extend(p.columns())
            else:
                raise PlanError(f"not a predicate: {p!r}")
        self.child = child
        self.predicates = predicates
        self.child._require_columns(needed, "Select")

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def __repr__(self):
        return f"Select({self.predicates})"


class Project(LogicalPlan):
    """Narrow and/or rename columns.

    *mapping* is a list of ``(output_name, input_name)`` pairs.
    """

    def __init__(self, child, mapping):
        mapping = list(mapping)
        if not mapping:
            raise PlanError("Project needs at least one output column")
        out_names = [o for o, _ in mapping]
        if len(set(out_names)) != len(out_names):
            raise PlanError(f"duplicate output columns: {out_names}")
        self.child = child
        self.mapping = mapping
        self.child._require_columns([i for _, i in mapping], "Project")

    def children(self):
        return (self.child,)

    def output_columns(self):
        return [o for o, _ in self.mapping]

    def __repr__(self):
        return f"Project({self.mapping})"


class Join(LogicalPlan):
    """Inner equi-join on one or more column pairs."""

    def __init__(self, left, right, on):
        on = list(on)
        if not on:
            raise PlanError("Join needs at least one column pair")
        self.left = left
        self.right = right
        self.on = on
        left._require_columns([l for l, _ in on], "Join(left)")
        right._require_columns([r for _, r in on], "Join(right)")
        overlap = set(left.output_columns()) & set(right.output_columns())
        if overlap:
            raise PlanError(
                "Join inputs must emit disjoint column names "
                f"(plan invariant): {left!r} and {right!r} both emit "
                f"{sorted(overlap)}; use scan aliases or Project renames"
            )

    def children(self):
        return (self.left, self.right)

    def output_columns(self):
        return self.left.output_columns() + self.right.output_columns()

    def __repr__(self):
        return f"Join(on={self.on})"


class GroupBy(LogicalPlan):
    """Group on key columns; compute ``count(*)`` and optional aggregates.

    The benchmark's only aggregate is ``count(*)``; *count_column* names its
    output.  With no keys the node computes global aggregates (one row).

    *aggregates* extends the output with ``("min"|"max", input_column,
    output_name)`` entries.  With the order-preserving dictionary encoding
    the storage builders produce, integer min/max realizes lexicographic
    string min/max.
    """

    AGGREGATE_FUNCTIONS = ("min", "max")

    def __init__(self, child, keys, count_column="count", aggregates=()):
        self.child = child
        self.keys = list(keys)
        self.count_column = count_column
        self.aggregates = [tuple(a) for a in aggregates]
        needed = list(self.keys)
        out_names = set(self.keys) | {count_column}
        for func, input_column, output_name in self.aggregates:
            if func not in self.AGGREGATE_FUNCTIONS:
                raise PlanError(f"unsupported aggregate {func!r}")
            if output_name in out_names:
                raise PlanError(
                    f"duplicate aggregate output {output_name!r}"
                )
            out_names.add(output_name)
            needed.append(input_column)
        child._require_columns(needed, "GroupBy")
        if count_column in self.keys:
            raise PlanError("count column collides with a group key")

    def children(self):
        return (self.child,)

    def output_columns(self):
        return (
            self.keys
            + [self.count_column]
            + [name for _, _, name in self.aggregates]
        )

    def __repr__(self):
        return f"GroupBy(keys={self.keys}, aggregates={self.aggregates})"


class Having(LogicalPlan):
    """Filter groups produced by a GroupBy (predicate on any output col)."""

    def __init__(self, child, predicate):
        if not isinstance(child, GroupBy):
            raise PlanError("Having must sit directly on a GroupBy")
        if not isinstance(predicate, Comparison):
            raise PlanError(f"not a predicate: {predicate!r}")
        self.child = child
        self.predicate = predicate
        child._require_columns([predicate.column], "Having")

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def __repr__(self):
        return f"Having({self.predicate})"


class Union(LogicalPlan):
    """Concatenate inputs; SQL UNION (distinct=True) or UNION ALL."""

    def __init__(self, inputs, distinct=True):
        inputs = list(inputs)
        if not inputs:
            raise PlanError("Union needs at least one input")
        arity = len(inputs[0].output_columns())
        for node in inputs[1:]:
            if len(node.output_columns()) != arity:
                raise PlanError("Union inputs must have the same arity")
        self.inputs = inputs
        self.distinct = distinct

    def children(self):
        return tuple(self.inputs)

    def output_columns(self):
        return self.inputs[0].output_columns()

    def __repr__(self):
        kind = "UNION" if self.distinct else "UNION ALL"
        return f"Union({kind}, {len(self.inputs)} inputs)"


class Extend(LogicalPlan):
    """Append a constant integer column.

    The vertically-partitioned plans need this: a property table carries its
    property implicitly (in its name), so reconstructing a triples-shaped
    relation tags each table's rows with the property oid —
    ``SELECT subj, <oid> AS prop, obj FROM vp_table``.
    """

    def __init__(self, child, column, value):
        if column in child.output_columns():
            raise PlanError(f"Extend: column {column!r} already exists")
        self.child = child
        self.column = column
        self.value = None if value is None else int(value)

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns() + [self.column]

    def __repr__(self):
        return f"Extend({self.column!r} = {self.value!r})"


class Distinct(LogicalPlan):
    """Remove duplicate rows."""

    def __init__(self, child):
        self.child = child

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def __repr__(self):
        return "Distinct()"


class Sort(LogicalPlan):
    """Order rows by key columns.

    *keys* is a list of ``(column, direction)`` pairs with direction
    ``"asc"`` or ``"desc"``.
    """

    def __init__(self, child, keys):
        keys = [(c, d) for c, d in keys]
        if not keys:
            raise PlanError("Sort needs at least one key")
        for _, direction in keys:
            if direction not in ("asc", "desc"):
                raise PlanError(
                    f"sort direction must be 'asc' or 'desc', not {direction!r}"
                )
        self.child = child
        self.keys = keys
        child._require_columns([c for c, _ in keys], "Sort")

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def __repr__(self):
        return f"Sort({self.keys})"


class Limit(LogicalPlan):
    """Keep the first *n* rows."""

    def __init__(self, child, n):
        n = int(n)
        if n < 0:
            raise PlanError("Limit must be non-negative")
        self.child = child
        self.n = n

    def children(self):
        return (self.child,)

    def output_columns(self):
        return self.child.output_columns()

    def __repr__(self):
        return f"Limit({self.n})"


def walk(plan):
    """Yield every node of the plan tree, pre-order."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def _once_per_plan(collect):
    """Memoise *collect(plan)* on the node it is asked of.

    Sound because a sealed tree can never change, and worth it because an
    engine asks on every run and a cached plan is run many times.  Only
    the node asked — a plan's root — is written to: the plan caches keep
    hundreds of 700-node ad-hoc plans alive, and a memo on every node
    showed as a tenth more resident memory.
    """
    name = f"_{collect.__name__}"

    @functools.wraps(collect)
    def memoised(plan):
        try:
            return getattr(plan, name)
        except AttributeError:
            value = collect(plan)
            if getattr(plan, "_sealed", False):
                object.__setattr__(plan, name, value)
            return value

    return memoised


@_once_per_plan
def count_operators(plan):
    """Number of operators in the plan.

    This is the size measure behind the paper's observation that full-scale
    vertically-partitioned queries "contain more than two hundred unions and
    joins" and "seriously challenge the optimizer" — engines charge a fixed
    per-operator cost proportional to this count.
    """
    return sum(1 for _ in walk(plan))


@_once_per_plan
def count_columns(plan):
    """Names of the ``count(*)`` columns produced anywhere in the plan
    (they hold plain integers, not dictionary oids)."""
    return frozenset(
        node.count_column for node in walk(plan) if isinstance(node, GroupBy)
    )
