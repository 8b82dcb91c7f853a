"""Place triple-schema SQL on the deployed storage scheme.

The paper (appendix): "The SQL code for the vertically-partitioned
implementation is produced by a Perl script.  The input of the Perl script
is the SQL code of triple-store and a list of properties to be iterated
over in the FROM clause."

This module is that script, operating on ASTs instead of strings, and it
is the one place that knows how a triple pattern maps onto a scheme.
Every front end writes triple-schema statements — the appendix queries,
ad-hoc SQL, and SPARQL / BGPs (:mod:`repro.core.bgp`) — and
:func:`place` rewrites each ``triples`` FROM item for the catalog:

* **triple store** — as written; ``properties`` names the catalog's
  filter table (a ``with_properties`` catalog's, in the Figure 6 sweep).
* **vertically partitioned** — a bound property (``X.prop = '<p>'``)
  becomes a scan of that property's two-column table; an unbound one
  becomes a UNION ALL subquery reassembling a triples-shaped relation
  from every property table in the list — the "sizable SQL clause" whose
  operator count the scalability experiments measure.  The ``properties``
  filter table and its join are dropped: the restriction is realized "by
  including only those properties in the from clause" (Section 4.2).
* **property table** (extension) — a bound property becomes a 2-branch
  UNION ALL of its wide-table column (``col != NULL``) and the leftover
  table (``prop = '<p>'``); an unbound one unions every clustered column,
  in sorted order, with the whole leftover table.  The ``properties``
  join is kept.

One placement rule serves all three: a bound property's constant
conditions move into its branches (on the vertical scheme its one table
is the one branch), and an unbound property's stay above the union.
"""

import dataclasses

from repro.errors import PlanError, SQLError
from repro.sql import ast
from repro.sql.parser import parse_sql
from repro.storage.property_table import NULL_OID


def generate_vertical_sql(sql_text, catalog, properties=None):
    """Rewrite triple-store SQL text into vertically-partitioned SQL text.

    *catalog* must be a vertical-scheme catalog (it supplies the property ->
    table mapping); *properties* is the list to iterate for unbound
    properties (default: the catalog's ``properties`` set where the
    statement joins ``properties``, every property elsewhere).  A bound
    property the store does not hold has no table to name, so the text
    is refused; planning places it as an empty relation.
    """
    rewriter = _Rewriter(catalog, properties)
    text = rewriter.rewrite(parse_sql(sql_text)).sql()
    if rewriter.absent:
        raise SQLError(
            f"no vertically-partitioned table for {rewriter.absent[0]!r}"
        )
    return text


def place(statement, catalog, properties=None):
    """*statement*, written over ``triples`` and ``properties``, rewritten
    over *catalog*'s deployed tables.

    *properties* (vertical scheme only) replaces the property list every
    unbound property iterates.  Parts that name neither table come back
    as the same objects, so vertical-schema text passes through.
    """
    if properties is not None and not catalog.is_vertical():
        raise PlanError(
            f"a {catalog.scheme} store cannot take the property scope "
            f"{properties!r}: it filters on its catalog's properties "
            "table; build one and pass "
            "catalog.with_properties(table, properties)"
        )
    if catalog.scheme not in ("triple", "vertical", "property_table"):
        raise PlanError(f"unknown storage scheme {catalog.scheme!r}")
    return _Rewriter(catalog, properties).rewrite(statement)


_TRIPLE_SCHEMA = ("triples", "properties")


class _Rewriter:
    def __init__(self, catalog, properties):
        self.catalog = catalog
        self.properties = properties
        #: Bound properties the store holds no triples of.
        self.absent = []

    def rewrite(self, statement):
        if type(statement) is ast.SelectStmt:
            return self._rewrite_select(statement)
        if type(statement) is ast.UnionStmt:
            selects = tuple(map(self.rewrite, statement.selects))
            if _same(selects, statement.selects):
                return statement
            return ast.UnionStmt(selects, all=statement.all)
        raise SQLError(f"cannot rewrite {type(statement).__name__}")

    def _rewrite_select(self, stmt):
        for item in stmt.from_items:
            if type(item) is ast.FromSubquery or item.table in _TRIPLE_SCHEMA:
                break
        else:
            return stmt  # over the deployed tables already
        catalog = self.catalog
        vertical = catalog.is_vertical()
        names_triples = any(
            getattr(item, "table", None) == "triples"
            for item in stmt.from_items
        )
        restricted = _restricted_bindings(stmt) if vertical else set()
        from_items = []
        where = list(stmt.where)
        for item in stmt.from_items:
            if type(item) is ast.FromSubquery:
                query = self.rewrite(item.query)
                from_items.append(item if query is item.query else
                                  ast.FromSubquery(query, item.alias))
            elif item.table == "properties" and vertical and names_triples:
                # The property restriction now lives in the FROM clause.
                where = _drop_binding_conditions(where, item.binding())
            elif item.table == "properties":
                from_items.append(ast.FromTable(
                    catalog.properties_table, item.binding()
                ) if catalog.properties_table != item.table else item)
            elif item.table != "triples" or catalog.is_triple_store():
                from_items.append(item)
            else:
                binding = item.binding()
                bound, where = _extract_prop_binding(where, binding)
                if bound is None:
                    from_items.append(ast.FromSubquery(
                        self._unbound(binding in restricted), binding))
                elif vertical:
                    from_items.append(
                        self._vertical_bound(bound, binding, where))
                else:
                    constants, where = _constant_conditions(where, binding)
                    from_items.append(ast.FromSubquery(
                        _property_table_bound(catalog, bound, constants),
                        binding,
                    ))
        if _same(from_items, stmt.from_items):
            return stmt
        return dataclasses.replace(
            stmt, from_items=tuple(from_items), where=tuple(where)
        )

    def _vertical_bound(self, prop, binding, where):
        """*prop*'s table, or — for a property the store does not hold —
        any table with ``subj = NULL``: an empty relation, as the triples
        table's ``prop = '<p>'`` would be."""
        table = self.catalog.property_tables.get(prop)
        if table is None:
            self.absent.append(prop)
            table = next(iter(self.catalog.property_tables.values()))
            where.append(ast.Condition(
                ast.ColumnRef(binding, "subj"), "=", ast.NullLit()
            ))
        return ast.FromTable(table, binding)

    def _unbound(self, restricted):
        """The triples-shaped union for an unbound property.  On the
        vertical scheme it is the same for every query over one catalog
        and property list, so the last one built is kept on the catalog
        (ASTs are immutable, and a :class:`~repro.sql.ast.UnionStmt`
        renders its SQL once)."""
        catalog = self.catalog
        if not catalog.is_vertical():
            return _property_table_unbound(catalog)
        properties = self.properties
        if properties is None:
            properties = catalog.properties_for(
                "interesting" if restricted else "all"
            )
        try:
            tables = tuple(catalog.property_tables[p] for p in properties)
        except KeyError as missing:
            raise SQLError(
                f"no vertically-partitioned table for {missing.args[0]!r}"
            ) from None
        inputs = (tuple(properties), tables)
        kept = catalog.derived.get("sql.union_subquery")
        if kept is not None and kept[0] == inputs:
            return kept[1]
        subquery = _union(
            _branch(ast.StringLit(prop), table, "obj")
            for prop, table in zip(properties, tables)
        )
        catalog.derived["sql.union_subquery"] = (inputs, subquery)
        return subquery


def _same(new, old):
    return len(new) == len(old) and all(a is b for a, b in zip(new, old))


def _branch(prop, table, obj, where=()):
    """``SELECT subj, <prop> AS prop, <obj> AS obj FROM table WHERE …`` —
    *prop* is a string literal, a column, or None for a branch without
    one."""
    items = [ast.SelectItem(ast.ColumnRef(None, "subj"))]
    if prop is not None:
        items.append(ast.SelectItem(
            prop, "prop" if isinstance(prop, ast.StringLit) else None))
    items.append(ast.SelectItem(
        ast.ColumnRef(None, obj), "obj" if obj != "obj" else None))
    return ast.SelectStmt(
        items=tuple(items), from_items=(ast.FromTable(table),),
        where=tuple(where),
    )


def _union(branches):
    branches = tuple(branches)
    if len(branches) == 1:
        return branches[0]
    return ast.UnionStmt(branches, all=True)


def _property_table_bound(catalog, prop, constants):
    """The wide column and the leftover rows of *prop*, each filtered by
    the pattern's *constants* (conditions on its subject and object)."""
    branches = []
    column = catalog.clustered_property_columns.get(prop)
    if column is not None:
        branches.append(_branch(
            None, catalog.property_table_name, column,
            [_not_null(column)] + _localise(constants, column),
        ))
    branches.append(_branch(
        None, catalog.triples_table, "obj",
        [ast.Condition(ast.ColumnRef(None, "prop"), "=", ast.StringLit(prop))]
        + _localise(constants, "obj"),
    ))
    return _union(branches)


def _property_table_unbound(catalog):
    branches = [
        _branch(ast.StringLit(prop), catalog.property_table_name, column,
                [_not_null(column)])
        for prop, column in sorted(catalog.clustered_property_columns.items())
    ]
    branches.append(_branch(
        ast.ColumnRef(None, "prop"), catalog.triples_table, "obj"
    ))
    return _union(branches)


def _not_null(column):
    return ast.Condition(
        ast.ColumnRef(None, column), "!=", ast.NumberLit(NULL_OID)
    )


def _localise(conditions, obj):
    """*conditions* on one binding, over a branch's unqualified columns:
    ``subj`` stays, ``obj`` becomes *obj*."""
    def local(side):
        if isinstance(side, ast.ColumnRef):
            return ast.ColumnRef(None, obj if side.name == "obj" else side.name)
        return side
    return [
        ast.Condition(local(c.left), c.op, local(c.right)) for c in conditions
    ]


def _extract_prop_binding(where, binding):
    """Find and remove ``binding.prop = '<constant>'``; return the
    constant (or None) and the remaining conditions."""
    bound = None
    remaining = []
    for cond in where:
        match = _prop_equality(cond, binding)
        if match is not None and bound is None:
            bound = match
        else:
            remaining.append(cond)
    if bound is not None:
        _forbid_prop_references(remaining, binding)
    return bound, remaining


def _prop_equality(cond, binding):
    if cond.op != "=":
        return None
    left, right = cond.left, cond.right
    if isinstance(right, ast.ColumnRef) and isinstance(left, ast.StringLit):
        left, right = right, left
    if (
        isinstance(left, ast.ColumnRef)
        and left.qualifier == binding
        and left.name == "prop"
        and isinstance(right, ast.StringLit)
    ):
        return right.value
    return None


def _forbid_prop_references(conditions, binding):
    for cond in conditions:
        for side in (cond.left, cond.right):
            if (
                isinstance(side, ast.ColumnRef)
                and side.qualifier == binding
                and side.name == "prop"
            ):
                raise SQLError(
                    f"{binding}.prop is bound to one property table and "
                    f"cannot also appear in {cond.sql()}"
                )


def _constant_conditions(where, binding):
    """Split off the conditions between *binding*'s columns and a literal."""
    mine, rest = [], []
    for cond in where:
        sides = (cond.left, cond.right)
        ours = any(
            isinstance(side, ast.ColumnRef) and side.qualifier == binding
            for side in sides
        )
        literal = any(
            not isinstance(side, ast.ColumnRef) for side in sides
        )
        (mine if ours and literal else rest).append(cond)
    return mine, rest


def _drop_binding_conditions(where, binding):
    return [
        cond
        for cond in where
        if not any(
            isinstance(side, ast.ColumnRef) and side.qualifier == binding
            for side in (cond.left, cond.right)
        )
    ]


def _restricted_bindings(stmt):
    """Bindings whose ``prop`` a condition equates with a ``properties``
    binding's: their union iterates the catalog's properties set."""
    filters = {
        item.binding() for item in stmt.from_items
        if isinstance(item, ast.FromTable) and item.table == "properties"
    }
    restricted = set()
    for cond in stmt.where:
        left, right = cond.left, cond.right
        if cond.op != "=" or not (
            isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef)
            and left.name == right.name == "prop"
        ):
            continue
        if left.qualifier in filters:
            restricted.add(right.qualifier)
        if right.qualifier in filters:
            restricted.add(left.qualifier)
    return restricted
