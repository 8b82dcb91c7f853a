"""Generate vertically-partitioned SQL from triple-store SQL.

The paper (appendix): "The SQL code for the vertically-partitioned
implementation is produced by a Perl script.  The input of the Perl script
is the SQL code of triple-store and a list of properties to be iterated
over in the FROM clause."

This module is that script, operating on ASTs instead of strings.  For each
``triples`` FROM item:

* if the WHERE clause binds its ``prop`` to a constant, the item becomes a
  scan of that property's two-column table (and the binding condition is
  dropped),
* otherwise the item becomes a UNION ALL subquery reassembling a
  triples-shaped relation from every property table in the given list —
  the "sizable SQL clause" whose operator count the scalability experiments
  measure.

When the property list is a restriction (the Longwell 28), the
``properties`` filter table and its join are dropped — the restriction is
realized "by including only those properties in the from clause"
(Section 4.2).
"""

from repro.errors import SQLError, StorageError
from repro.sql import ast
from repro.sql.parser import parse_sql


def generate_vertical_sql(sql_text, catalog, properties=None):
    """Rewrite triple-store SQL text into vertically-partitioned SQL text.

    *catalog* must be a vertical-scheme catalog (it supplies the property ->
    table mapping); *properties* is the list to iterate for unbound
    properties (default: every property in the catalog).
    """
    statement = parse_sql(sql_text)
    if properties is None:
        properties = catalog.properties_for("all")
    return _Rewriter(catalog, list(properties)).rewrite(statement).sql()


class _Rewriter:
    """The AST rewrite (also applied, without rendering, by
    :func:`repro.queries.build_query` to the appendix statements)."""

    def __init__(self, catalog, properties):
        self.catalog = catalog
        self.properties = properties

    def rewrite(self, statement):
        if isinstance(statement, ast.UnionStmt):
            return ast.UnionStmt(
                tuple(self.rewrite(s) for s in statement.selects),
                all=statement.all,
            )
        if isinstance(statement, ast.SelectStmt):
            return self._rewrite_select(statement)
        raise SQLError(f"cannot rewrite {type(statement).__name__}")

    def _rewrite_select(self, stmt):
        from_items = []
        where = list(stmt.where)
        for item in stmt.from_items:
            if isinstance(item, ast.FromSubquery):
                from_items.append(
                    ast.FromSubquery(self.rewrite(item.query), item.alias)
                )
                continue
            if item.table == "properties":
                # The property restriction now lives in the FROM clause.
                where = self._drop_binding_conditions(where, item.binding())
                continue
            if item.table != "triples":
                from_items.append(item)
                continue
            binding = item.binding()
            bound_property, where = self._extract_prop_binding(
                where, binding
            )
            if bound_property is not None:
                from_items.append(
                    ast.FromTable(
                        self._property_table(bound_property), binding
                    )
                )
            else:
                from_items.append(
                    ast.FromSubquery(self._union_subquery(), binding)
                )
        return ast.SelectStmt(
            items=stmt.items,
            from_items=tuple(from_items),
            where=tuple(where),
            group_by=stmt.group_by,
            having=stmt.having,
            distinct=stmt.distinct,
        )

    def _property_table(self, property_name):
        try:
            return self.catalog.property_table(property_name)
        except StorageError:
            raise SQLError(
                f"no vertically-partitioned table for {property_name!r}"
            ) from None

    def _extract_prop_binding(self, where, binding):
        """Find and remove ``binding.prop = '<constant>'``; return the
        constant (or None) and the remaining conditions."""
        bound = None
        remaining = []
        for cond in where:
            match = self._prop_equality(cond, binding)
            if match is not None and bound is None:
                bound = match
            else:
                remaining.append(cond)
        if bound is not None:
            self._forbid_prop_references(remaining, binding)
        return bound, remaining

    def _prop_equality(self, cond, binding):
        if cond.op != "=":
            return None
        left, right = cond.left, cond.right
        if isinstance(right, ast.ColumnRef) and isinstance(
            left, ast.StringLit
        ):
            left, right = right, left
        if (
            isinstance(left, ast.ColumnRef)
            and left.qualifier == binding
            and left.name == "prop"
            and isinstance(right, ast.StringLit)
        ):
            return right.value
        return None

    def _forbid_prop_references(self, conditions, binding):
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

    def _drop_binding_conditions(self, where, binding):
        return [
            cond
            for cond in where
            if not any(
                isinstance(side, ast.ColumnRef) and side.qualifier == binding
                for side in (cond.left, cond.right)
            )
        ]

    def _union_subquery(self):
        """``(SELECT subj, '<p>' AS prop, obj FROM vp_p) UNION ALL ...``

        The same for every query over one catalog and property list, so
        the last one built is kept on the catalog (ASTs are immutable, and
        a :class:`~repro.sql.ast.UnionStmt` renders its SQL once).
        """
        tables = tuple(self._property_table(p) for p in self.properties)
        inputs = (tuple(self.properties), tables)
        kept = self.catalog.derived.get("sql.union_subquery")
        if kept is not None and kept[0] == inputs:
            return kept[1]
        branches = [
            ast.SelectStmt(
                items=(
                    ast.SelectItem(ast.ColumnRef(None, "subj")),
                    ast.SelectItem(ast.StringLit(prop), "prop"),
                    ast.SelectItem(ast.ColumnRef(None, "obj")),
                ),
                from_items=(ast.FromTable(table),),
            )
            for prop, table in zip(self.properties, tables)
        ]
        if len(branches) == 1:
            subquery = branches[0]
        else:
            subquery = ast.UnionStmt(tuple(branches), all=True)
        self.catalog.derived["sql.union_subquery"] = (inputs, subquery)
        return subquery
