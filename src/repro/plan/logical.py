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
inside an engine.  A node computes its column list and its depth once, as
it is built: a plan deeper than :data:`MAX_PLAN_DEPTH` is refused there,
with a :class:`PlanError`, because the engines lower and run a plan a
few stack frames per level.
"""

import functools

from repro.errors import PlanError
from repro.plan.predicates import ColumnComparison, Comparison

#: The deepest plan (root to leaf, in nodes) a constructor accepts.  Both
#: engines lower, lint and run a plan recursively, a few stack frames per
#: level, and this is as deep as they go within Python's default recursion
#: limit with room to spare (a 400-pattern SPARQL chain is ~403 deep).
MAX_PLAN_DEPTH = 440


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
                depth = 1 + max(
                    (child._depth for child in _shape_children(self)),
                    default=0,
                )
                if depth > MAX_PLAN_DEPTH:
                    raise PlanError(
                        f"plan is {depth} operators deep; plans may be at "
                        f"most {MAX_PLAN_DEPTH} deep"
                    )
                object.__setattr__(self, "_depth", depth)
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
        """The node's output column names (a fresh list: each node keeps
        the one it computed when it was built in ``_columns``)."""
        return list(self._columns)

    def children(self):
        return ()

    def _require_columns(self, needed, where):
        available = set(self._columns)
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
        self._columns = [self.qualified(c) for c in self.base_columns]

    def children(self):
        return ()

    def qualified(self, column):
        return f"{self.alias}.{column}" if self.alias else column

    def base_column(self, qualified):
        """The stored column behind *qualified*: :meth:`qualified`
        undone (a name without this scan's alias passes through)."""
        if self.alias and qualified.startswith(self.alias + "."):
            return qualified[len(self.alias) + 1 :]
        return qualified

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
        self._columns = child._columns

    def children(self):
        return (self.child,)

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
        self._columns = out_names

    def children(self):
        return (self.child,)

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
        overlap = set(left._columns).intersection(right._columns)
        if overlap:
            raise PlanError(
                "Join inputs must emit disjoint column names "
                f"(plan invariant): {left!r} and {right!r} both emit "
                f"{sorted(overlap)}; use scan aliases or Project renames"
            )
        self._columns = left._columns + right._columns

    def children(self):
        return (self.left, self.right)

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
        self._columns = (
            self.keys
            + [count_column]
            + [name for _, _, name in self.aggregates]
        )

    def children(self):
        return (self.child,)

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
        self._columns = child._columns

    def children(self):
        return (self.child,)

    def __repr__(self):
        return f"Having({self.predicate})"


class Union(LogicalPlan):
    """Concatenate inputs; SQL UNION (distinct=True) or UNION ALL.

    A union of same-shaped branches — the vertically-partitioned plans'
    one branch per property table, 222 of them for an unbound property —
    is built from one *template* branch and per-branch *bindings*
    ``(table, alias, value)`` instead of a list of inputs.  The template
    is a ``Project`` / ``Extend`` / ``Select`` chain over one ``Scan``
    with at most one ``Extend``; branch *i* is the template with its scan
    reading ``table`` under ``alias`` (every column the template's alias
    qualifies is requalified by the new one) and its ``Extend``
    appending ``value``.  ``bindings[0]`` is the template's own, so
    branch 0 *is* the template.

    The front end (planner, linter, lowering, the column store's union
    kernel) reads the template once and the bindings as arrays.
    :attr:`inputs` is the expansion: built on first use, kept on the
    sealed node, and what every consumer that walks each branch — the
    row engine, EXPLAIN, the estimator — sees, so a template union
    behaves exactly as ``Union(list(u.inputs))``.
    """

    def __init__(self, inputs=(), distinct=True, *, template=None,
                 bindings=()):
        if template is None:
            inputs = list(inputs)
            if not inputs:
                raise PlanError("Union needs at least one input")
            arity = len(inputs[0]._columns)
            for node in inputs[1:]:
                if len(node._columns) != arity:
                    raise PlanError("Union inputs must have the same arity")
            self._inputs = inputs
            self._columns = inputs[0]._columns
            bindings = ()
        else:
            if inputs:
                raise PlanError("a template Union takes no inputs")
            bindings = tuple(
                (table, alias, None if value is None else int(value))
                for table, alias, value in bindings
            )
            _check_template(template, bindings)
            self._columns = template._columns
        self.template = template
        self.bindings = bindings
        self.distinct = distinct

    @property
    def inputs(self):
        """The branches (a template union's expansion, built once)."""
        try:
            return self._inputs
        except AttributeError:
            pass
        template = self.template
        alias = self.bindings[0][1]
        expansion = [template] + [
            _bind_template(template, alias, binding)
            for binding in self.bindings[1:]
        ]
        # A sealed node is written once, by whichever thread gets here
        # first; every caller then shares that one expansion.
        return vars(self).setdefault("_inputs", expansion)

    @property
    def n_inputs(self):
        """The branch count, without expanding a template."""
        return len(self.bindings) if self.template is not None else len(
            self._inputs
        )

    def children(self):
        return tuple(self.inputs)

    def __repr__(self):
        kind = "UNION" if self.distinct else "UNION ALL"
        return f"Union({kind}, {self.n_inputs} inputs)"


def template_chain(template):
    """A union template's nodes, top-down, ending at its one Scan
    (:class:`PlanError` for any other shape)."""
    chain = [template]
    while type(chain[-1]) is not Scan:
        if type(chain[-1]) not in (Project, Extend, Select):
            raise PlanError(
                "a Union template is a Project/Extend/Select chain over one "
                f"Scan, not {type(chain[-1]).__name__}"
            )
        chain.append(chain[-1].child)
    return chain


def _check_template(template, bindings):
    if not bindings:
        raise PlanError("a template Union needs at least one binding")
    chain = template_chain(template)
    extends = [node for node in chain if type(node) is Extend]
    if len(extends) > 1:
        raise PlanError("a Union template has at most one Extend")
    scan = chain[-1]
    own = (scan.table, scan.alias, extends[0].value if extends else None)
    if bindings[0] != own:
        raise PlanError(
            f"a Union template's first binding is its own {own}, "
            f"not {bindings[0]}"
        )
    if scan.alias is None and any(a is not None for _, a, _ in bindings):
        raise PlanError("an unaliased Union template binds no alias")
    if not extends and any(v is not None for _, _, v in bindings):
        raise PlanError("a Union template without an Extend binds no value")
    # Requalifying must not rename a column onto one the template already
    # names under another binding's alias.
    prefix = f"{scan.alias}."
    others = {
        column.split(".", 1)[0]
        for node in chain for column in node._columns
        if "." in column and not column.startswith(prefix)
    }
    clash = others.intersection(a for _, a, _ in bindings)
    if clash:
        raise PlanError(
            f"Union template columns already use binding aliases "
            f"{sorted(clash)}"
        )


def _bind_template(template, alias, binding):
    """Branch *binding* of a union whose template scans under *alias*."""
    table, new_alias, value = binding
    old = f"{alias}."

    def rename(column):
        if column.startswith(old):
            return f"{new_alias}.{column[len(old):]}"
        return column

    chain = template_chain(template)
    scan = chain[-1]
    node = Scan(table, scan.base_columns, alias=new_alias)
    for above in reversed(chain[:-1]):
        if type(above) is Select:
            node = Select(node, [
                ColumnComparison(rename(p.left), p.op, rename(p.right))
                if type(p) is ColumnComparison
                else Comparison(rename(p.column), p.op, p.value)
                for p in above.predicates
            ])
        elif type(above) is Extend:
            node = Extend(node, rename(above.column), value)
        else:
            node = Project(node, [
                (rename(out), rename(source))
                for out, source in above.mapping
            ])
    return node


class Extend(LogicalPlan):
    """Append a constant integer column.

    The vertically-partitioned plans need this: a property table carries its
    property implicitly (in its name), so reconstructing a triples-shaped
    relation tags each table's rows with the property oid —
    ``SELECT subj, <oid> AS prop, obj FROM vp_table``.
    """

    def __init__(self, child, column, value):
        if column in child._columns:
            raise PlanError(f"Extend: column {column!r} already exists")
        self.child = child
        self.column = column
        self.value = None if value is None else int(value)
        self._columns = child._columns + [column]

    def children(self):
        return (self.child,)

    def __repr__(self):
        return f"Extend({self.column!r} = {self.value!r})"


class Distinct(LogicalPlan):
    """Remove duplicate rows."""

    def __init__(self, child):
        self.child = child
        self._columns = child._columns

    def children(self):
        return (self.child,)

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
        self._columns = child._columns

    def children(self):
        return (self.child,)

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
        self._columns = child._columns

    def children(self):
        return (self.child,)

    def __repr__(self):
        return f"Limit({self.n})"


def walk(plan):
    """Yield every node of the plan tree, pre-order."""
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def _shape_children(node):
    """*node*'s children, a template union's being its one template."""
    if type(node) is Union and node.template is not None:
        return (node.template,)
    return node.children()


def walk_shapes(plan):
    """Yield ``(node, times)`` for every node of the plan, pre-order, a
    template union's branch once: its nodes come from the template, and
    *times* is how many branches each stands for (1 elsewhere)."""
    stack = [(plan, 1)]
    while stack:
        node, times = stack.pop()
        yield node, times
        if type(node) is Union and node.template is not None:
            stack.append((node.template, times * len(node.bindings)))
        else:
            stack.extend((child, times) for child in reversed(node.children()))


def _once_per_plan(collect):
    """Memoise *collect(plan)* on the node it is asked of.

    Sound because a sealed tree can never change, and worth it because an
    engine asks on every run and a cached plan is run many times.  Only
    the node asked — a plan's root — is written to: the plan caches keep
    hundreds of ad-hoc plans alive, and a memo on every node showed as a
    tenth more resident memory.
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
    """Number of operators in the plan (a template union's expansion
    counted, without building it).

    This is the size measure behind the paper's observation that full-scale
    vertically-partitioned queries "contain more than two hundred unions and
    joins" and "seriously challenge the optimizer" — engines charge a fixed
    per-operator cost proportional to this count.
    """
    return sum(times for _, times in walk_shapes(plan))


@_once_per_plan
def count_columns(plan):
    """Names of the ``count(*)`` columns produced anywhere in the plan
    (they hold plain integers, not dictionary oids)."""
    return frozenset(
        node.count_column for node, _ in walk_shapes(plan)
        if isinstance(node, GroupBy)
    )
