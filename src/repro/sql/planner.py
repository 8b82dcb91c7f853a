"""Lower SQL ASTs to engine-neutral logical plans.

The planner binds a statement against a
:class:`~repro.storage.catalog.StoreCatalog`: table names resolve through
the catalog's schema, string literals resolve through the dictionary (the
appendix notes "the actual queries use integer predicates, since all
strings are encoded on a dictionary structure").

Supported shape (everything the appendix needs): conjunctive WHERE clauses
of column-vs-literal selections and column-vs-column equi-joins that connect
the FROM items into one join tree, GROUP BY + count(*), HAVING on count(*),
UNION [ALL], subqueries in FROM, literals in the SELECT list.

FROM items join in WHERE-conjunct order, starting from the first.  A FROM
subquery ``X`` binds ``X.col`` in its own (branch) Projects and keeps only
the columns the statement references; a UNION branch over one unaliased
table scans it as ``X{i}`` — the ``Project(Extend(Scan))`` branch the
union kernel runs.
"""

from repro.errors import SQLError
from repro.plan import (
    ColumnComparison,
    Comparison,
    Distinct,
    Extend,
    GroupBy,
    Having,
    Join,
    Limit,
    Project,
    Scan,
    Select,
    Sort,
    Union,
)
from repro.sql import ast
from repro.sql.parser import parse_sql


def plan_sql(sql_or_ast, catalog, lint=None):
    """Plan SQL text (or a parsed AST) against *catalog*.

    The resulting plan runs through the static plan linter
    (:mod:`repro.analysis`): *lint* overrides the session lint mode for
    this call (``"off"``, ``"warn"`` — log warnings, the default — or
    ``"strict"`` — raise :class:`~repro.errors.PlanError` on warnings).
    """
    from repro.analysis import plan_lint

    if isinstance(sql_or_ast, str):
        statement = parse_sql(sql_or_ast)
    else:
        statement = sql_or_ast
    plan = _Planner(catalog).plan(statement)
    plan_lint.check_plan(plan, where="sql", mode=lint)
    return plan


def default_schema(catalog):
    """Table -> column-name list, derived from the deployed scheme."""
    schema = {}
    if catalog.triples_table:
        schema[catalog.triples_table] = ["subj", "prop", "obj"]
    for table in catalog.property_tables.values():
        schema[table] = ["subj", "obj"]
    if catalog.properties_table:
        schema[catalog.properties_table] = ["prop"]
    return schema


class _Planner:
    def __init__(self, catalog):
        self.catalog = catalog
        self.schema = default_schema(catalog)

    def plan(self, statement, columns=None, alias=None):
        """Plan *statement*; for a FROM subquery bound as *alias*,
        *columns* names each select item's output (None drops it)."""
        if isinstance(statement, ast.UnionStmt):
            inputs = [
                self.plan(s, columns, alias and f"{alias}{i}")
                for i, s in enumerate(statement.selects)
            ]
            return Union(inputs, distinct=not statement.all)
        if isinstance(statement, ast.SelectStmt):
            return self._plan_select(statement, columns, alias)
        raise SQLError(f"cannot plan {type(statement).__name__}")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _plan_select(self, stmt, columns=None, alias=None):
        references = _references(stmt)
        from_items, owner = stmt.from_items, None
        only = from_items[0] if len(from_items) == 1 else None
        if (alias and isinstance(only, ast.FromTable) and not only.alias
                and only.table not in references):
            from_items, owner = (ast.FromTable(only.table, alias),), alias
        bindings = self._plan_from_items(from_items, references)

        selections, joins, cross_filters = self._classify_conditions(
            stmt.where, bindings
        )
        for binding, predicates in selections.items():
            bindings[binding] = Select(bindings[binding], predicates)

        current = self._join_tree(bindings, joins, stmt)
        if cross_filters:
            current = Select(current, cross_filters)

        names = _output_names(stmt) if columns is None else columns
        if len(names) != len(stmt.items):
            raise SQLError("UNION inputs must have the same arity")
        current, literal_columns = self._extend_literals(
            current, stmt, names, owner
        )

        aggregate_outputs = {}
        if stmt.group_by or self._has_aggregate(stmt.items):
            current = self._group(
                current, stmt, bindings, literal_columns, aggregate_outputs
            )
            resolve = lambda col: self._resolve_grouped(col, stmt, bindings)
        else:
            if stmt.having is not None:
                raise SQLError("HAVING requires GROUP BY")
            resolve = lambda col: self._resolve_column(col, bindings)

        mapping = []
        for item, name in zip(stmt.items, names):
            if name is None:
                continue
            if isinstance(item.expr, ast.CountStar):
                mapping.append((name, "count"))
            elif isinstance(item.expr, ast.AggregateCall):
                mapping.append((name, aggregate_outputs[item.expr]))
            elif isinstance(item.expr, ast.ColumnRef):
                mapping.append((name, resolve(item.expr)))
            elif isinstance(item.expr, ast.StringLit):
                mapping.append((name, literal_columns[item.expr.value]))
            else:
                raise SQLError(f"unsupported select item {item.sql()}")
        plan = Project(current, mapping)
        if stmt.distinct:
            plan = Distinct(plan)
        if stmt.order_by:
            plan = Sort(
                plan,
                [
                    (self._resolve_order_column(o.column, mapping), o.direction)
                    for o in stmt.order_by
                ],
            )
        if stmt.limit is not None:
            plan = Limit(plan, stmt.limit)
        return plan

    def _resolve_order_column(self, col, mapping):
        """ORDER BY refers to output columns: by alias/output name, or by
        the source column an output was projected from."""
        output_names = [o for o, _ in mapping]
        if col.qualifier is None and col.name in output_names:
            return col.name
        for out_name, in_name in mapping:
            if col.qualifier is not None:
                if in_name == f"{col.qualifier}.{col.name}":
                    return out_name
            elif in_name.split(".")[-1] == col.name:
                return out_name
        raise SQLError(
            f"ORDER BY column {col.sql()} is not in the select list"
        )

    # ------------------------------------------------------------------
    # FROM
    # ------------------------------------------------------------------

    def _plan_from_items(self, from_items, references):
        bindings = {}
        for item in from_items:
            name = item.binding()
            if name in bindings:
                raise SQLError(f"duplicate FROM binding {name!r}")
            if isinstance(item, ast.FromTable):
                columns = self.schema.get(item.table)
                if columns is None:
                    raise SQLError(f"unknown table {item.table!r}")
                bindings[name] = Scan(item.table, columns, alias=name)
            else:
                bindings[name] = self._plan_subquery(
                    item.query, name, references
                )
        return bindings

    def _plan_subquery(self, query, name, references):
        """FROM subquery *name*, narrowed to the *references* unless a
        DISTINCT compares every column.  ORDER BY resolves output names,
        so such a subquery is re-aliased by a Project on top instead."""
        parts = list(_parts(query))
        if any(getattr(part, "order_by", ()) for part in parts):
            sub = self.plan(query)
            mapping = [(f"{name}.{out}", out) for out in sub.output_columns()]
            return Project(sub, mapping)
        names = _output_names(query)
        wanted = references.get(name, set()) | references.get(None, set())
        if not wanted.intersection(names) or any(
            not part.all if isinstance(part, ast.UnionStmt) else part.distinct
            for part in parts
        ):
            wanted = names
        columns = [f"{name}.{n}" if n in wanted else None for n in names]
        return self.plan(query, columns, name)

    # ------------------------------------------------------------------
    # WHERE
    # ------------------------------------------------------------------

    def _classify_conditions(self, where, bindings):
        selections = {}
        joins = []
        cross_filters = []
        for cond in where:
            left_col = isinstance(cond.left, ast.ColumnRef)
            right_col = isinstance(cond.right, ast.ColumnRef)
            if left_col and right_col:
                left = self._resolve_column(cond.left, bindings)
                right = self._resolve_column(cond.right, bindings)
                if cond.op == "=" and left.split(".", 1)[0] != right.split(
                    ".", 1
                )[0]:
                    joins.append((left, right))
                else:
                    # Non-equi column conditions, and conditions within one
                    # relation, are filters rather than join edges.
                    cross_filters.append(
                        ColumnComparison(left, cond.op, right)
                    )
            elif left_col or right_col:
                column = cond.left if left_col else cond.right
                literal = cond.right if left_col else cond.left
                op = cond.op if left_col else _flip(cond.op)
                resolved = self._resolve_column(column, bindings)
                owner = resolved.split(".", 1)[0]
                selections.setdefault(owner, []).append(
                    Comparison(resolved, op, self._literal_value(literal))
                )
            else:
                raise SQLError(
                    f"condition needs at least one column: {cond.sql()}"
                )
        return selections, joins, cross_filters

    def _literal_value(self, literal):
        if isinstance(literal, ast.NumberLit):
            return literal.value
        if isinstance(literal, ast.StringLit):
            return self.catalog.encode(literal.value)
        raise SQLError(f"unsupported literal {literal!r}")

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _join_tree(self, bindings, joins, stmt):
        order = list(bindings)
        joined = {order[0]}
        current = bindings[order[0]]
        remaining = list(joins)
        while len(joined) < len(order):
            progress = False
            for pair in list(remaining):
                left, right = pair
                l_owner = left.split(".", 1)[0]
                r_owner = right.split(".", 1)[0]
                if l_owner in joined and r_owner not in joined:
                    current = Join(
                        current, bindings[r_owner], on=[(left, right)]
                    )
                    joined.add(r_owner)
                elif r_owner in joined and l_owner not in joined:
                    current = Join(
                        current, bindings[l_owner], on=[(right, left)]
                    )
                    joined.add(l_owner)
                else:
                    continue
                remaining.remove(pair)
                progress = True
            if not progress:
                missing = sorted(set(order) - joined)
                raise SQLError(
                    "FROM items not connected by join conditions "
                    f"(cross products unsupported): {missing}"
                )
        # Conditions between already-joined relations (cyclic join graphs)
        # become post-join column-column filters.
        if remaining:
            current = Select(
                current,
                [
                    ColumnComparison(left, "=", right)
                    for left, right in remaining
                ],
            )
        return current

    # ------------------------------------------------------------------
    # literals, grouping, resolution
    # ------------------------------------------------------------------

    def _extend_literals(self, current, stmt, names, owner):
        """Extend the kept (or possibly grouped) string literals, named
        ``{owner}.{alias}`` in a rebound UNION branch."""
        literal_columns = {}
        for i, (item, name) in enumerate(zip(stmt.items, names)):
            if not isinstance(item.expr, ast.StringLit):
                continue
            value = item.expr.value
            if value in literal_columns or (name is None and not stmt.group_by):
                continue
            column = f"__lit{i}"
            if owner is not None and item.alias:
                qualified = f"{owner}.{item.alias}"
                if qualified not in current.output_columns():
                    column = qualified
            current = Extend(current, column, self.catalog.encode(value))
            literal_columns[value] = column
        return current, literal_columns

    def _has_aggregate(self, items):
        return any(
            isinstance(i.expr, (ast.CountStar, ast.AggregateCall))
            for i in items
        )

    def _group(self, current, stmt, bindings, literal_columns,
               aggregate_outputs):
        keys = []
        for col in stmt.group_by:
            keys.append(
                self._resolve_group_key(col, stmt, bindings, literal_columns)
            )
        aggregates = []
        for i, item in enumerate(stmt.items):
            expr = item.expr
            if isinstance(expr, ast.AggregateCall):
                if expr in aggregate_outputs:
                    continue
                output = f"__agg{i}"
                aggregates.append(
                    (
                        expr.func,
                        self._resolve_column(expr.column, bindings),
                        output,
                    )
                )
                aggregate_outputs[expr] = output
        grouped = GroupBy(
            current, keys=keys, count_column="count", aggregates=aggregates
        )
        if stmt.having is not None:
            grouped = Having(grouped, self._having_predicate(stmt.having))
        return grouped

    def _resolve_group_key(self, col, stmt, bindings, literal_columns):
        # A group key may name a select alias bound to a literal.
        for item in stmt.items:
            if (
                item.alias == col.name
                and col.qualifier is None
                and isinstance(item.expr, ast.StringLit)
            ):
                return literal_columns[item.expr.value]
        return self._resolve_column(col, bindings)

    def _having_predicate(self, cond):
        if isinstance(cond.left, ast.CountStar) and isinstance(
            cond.right, ast.NumberLit
        ):
            return Comparison("count", cond.op, cond.right.value)
        if isinstance(cond.right, ast.CountStar) and isinstance(
            cond.left, ast.NumberLit
        ):
            return Comparison("count", _flip(cond.op), cond.left.value)
        raise SQLError(
            f"only HAVING count(*) <op> <number> is supported: {cond.sql()}"
        )

    def _resolve_grouped(self, col, stmt, bindings):
        """Resolve a select column after grouping: it must be a group key."""
        resolved = self._resolve_column(col, bindings)
        keys = {
            self._resolve_column(g, bindings) for g in stmt.group_by
        }
        if resolved not in keys:
            raise SQLError(
                f"column {col.sql()} is neither grouped nor aggregated"
            )
        return resolved

    def _resolve_column(self, col, bindings):
        if col.qualifier:
            name = f"{col.qualifier}.{col.name}"
            owner = bindings.get(col.qualifier)
            if owner is None or name not in owner.output_columns():
                raise SQLError(f"unknown column {col.sql()}")
            return name
        matches = [
            f"{binding}.{col.name}"
            for binding, node in bindings.items()
            if f"{binding}.{col.name}" in node.output_columns()
        ]
        if not matches:
            raise SQLError(f"unknown column {col.sql()}")
        if len(matches) > 1:
            raise SQLError(f"ambiguous column {col.sql()}: {matches}")
        return matches[0]


def _references(stmt):
    """Column names *stmt* refers to, by qualifier (None: unqualified)."""
    columns = list(stmt.group_by) + [o.column for o in stmt.order_by]
    for item in stmt.items:
        expr = item.expr
        columns.append(
            expr.column if isinstance(expr, ast.AggregateCall) else expr
        )
    for cond in stmt.where:
        columns += (cond.left, cond.right)
    references = {}
    for col in columns:
        if isinstance(col, ast.ColumnRef):
            references.setdefault(col.qualifier, set()).add(col.name)
    return references


def _parts(statement):
    """A query's UNIONs and SELECTs, pre-order."""
    yield statement
    if isinstance(statement, ast.UnionStmt):
        for select in statement.selects:
            yield from _parts(select)


def _output_names(statement):
    """Output column names (a UNION's are its first SELECT's).  SQL
    permits duplicates (``B.obj, C.obj``); relations do not, so a repeat
    gets a numeric suffix."""
    first = next(p for p in _parts(statement) if isinstance(p, ast.SelectStmt))
    names = []
    for item in first.items:
        name = item.output_name()
        if name in names:
            suffix = 2
            while f"{name}_{suffix}" in names:
                suffix += 1
            name = f"{name}_{suffix}"
        names.append(name)
    return names


def _flip(op):
    return {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}[
        op
    ]
