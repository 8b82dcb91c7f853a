"""Recursive-descent parser for the benchmark SQL subset.

The parser walks the scan's flat kind and value lists
(:func:`repro.sql.lexer.scan`) with an index.  The rules compare kinds
inline (:meth:`_Parser.expect` serves the rarer clauses) — a generated
union repeats the union chain, the select list and the FROM list once
per property — and a token's line and column are worked out only for an
error.
"""

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.lexer import position, scan


_COMPARISON_OPERATORS = {"EQ": "=", "NE": "!=", "GT": ">", "LT": "<",
                         "GE": ">=", "LE": "<="}


def parse_sql(text):
    """Parse SQL text into a :class:`SelectStmt` or :class:`UnionStmt`."""
    parser = _Parser(text)
    stmt = parser.parse_query()
    if parser.kinds[parser.pos] == "SEMI":
        parser.pos += 1
    parser.expect("EOF")
    return stmt


class _Parser:
    # The kind list ends with an EOF that is never consumed (no rule
    # steps past a kind it has not compared), so ``kinds[pos]`` — and
    # ``kinds[pos + 1]`` after any kind but EOF — always exists.

    def __init__(self, text):
        self.text = text
        self.kinds, self.values = scan(text)
        self.pos = 0
        # AST nodes are immutable, so one parse builds each column
        # reference, and each unaliased select item over one, once: a
        # union's branches repeat them.
        self.columns = {}
        self.column_items = {}

    def error(self, message, index):
        return SQLError(message, *position(self.text, index))

    def expected(self, kind, index):
        return self.error(
            f"expected {kind}, found {self.kinds[index]} "
            f"({self.values[index]!r})",
            index,
        )

    def expect(self, kind):
        """The value of the token at ``pos``, which must be a *kind*;
        moves past it (but never past EOF)."""
        index = self.pos
        if self.kinds[index] != kind:
            raise self.expected(kind, index)
        if kind != "EOF":
            self.pos = index + 1
        return self.values[index]

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------

    def parse_query(self):
        """query := term (UNION [ALL] term)*"""
        first = self.parse_term()
        kinds = self.kinds
        if kinds[self.pos] != "UNION":
            return first
        selects = [first]
        union_all = kinds[self.pos + 1] == "ALL"
        mixed = None  # the first UNION that differs from the first
        while kinds[self.pos] == "UNION":
            index = self.pos + 1
            if kinds[index] == "ALL":
                self.pos = index + 1
                if not union_all and mixed is None:
                    mixed = index - 1
            else:
                self.pos = index
                if union_all and mixed is None:
                    mixed = index - 1
            selects.append(self.parse_term())
        if mixed is not None:
            raise self.error(
                "mixing UNION and UNION ALL is not supported", mixed
            )
        return ast.UnionStmt(tuple(selects), all=union_all)

    def parse_term(self):
        """term := '(' query ')' | select_stmt"""
        if self.kinds[self.pos] != "LPAREN":
            return self.parse_select()
        self.pos += 1
        query = self.parse_query()
        index = self.pos
        if self.kinds[index] != "RPAREN":
            raise self.expected("RPAREN", index)
        self.pos = index + 1
        return query

    def parse_select(self):
        kinds = self.kinds
        index = self.pos
        if kinds[index] != "SELECT":
            raise self.expected("SELECT", index)
        distinct = kinds[index + 1] == "DISTINCT"
        self.pos = index + 1 + distinct
        items = [self.parse_select_item()]
        while kinds[self.pos] == "COMMA":
            self.pos += 1
            items.append(self.parse_select_item())
        index = self.pos
        if kinds[index] != "FROM":
            raise self.expected("FROM", index)
        self.pos = index + 1
        from_items = [self.parse_from_item()]
        while kinds[self.pos] == "COMMA":
            self.pos += 1
            from_items.append(self.parse_from_item())
        where = ()
        if kinds[self.pos] == "WHERE":
            self.pos += 1
            conditions = [self.parse_condition()]
            while kinds[self.pos] == "AND":
                self.pos += 1
                conditions.append(self.parse_condition())
            where = tuple(conditions)
        group_by = ()
        if kinds[self.pos] == "GROUP":
            self.pos += 1
            self.expect("BY")
            columns = [self.parse_column()]
            while kinds[self.pos] == "COMMA":
                self.pos += 1
                columns.append(self.parse_column())
            group_by = tuple(columns)
        having = None
        if kinds[self.pos] == "HAVING":
            self.pos += 1
            having = self.parse_condition()
        order_by = ()
        if kinds[self.pos] == "ORDER":
            self.pos += 1
            self.expect("BY")
            order_items = [self.parse_order_item()]
            while kinds[self.pos] == "COMMA":
                self.pos += 1
                order_items.append(self.parse_order_item())
            order_by = tuple(order_items)
        limit = None
        if kinds[self.pos] == "LIMIT":
            self.pos += 1
            limit = self.expect("NUMBER")
        return ast.SelectStmt(tuple(items), tuple(from_items), where,
                              group_by, having, distinct, order_by, limit)

    def parse_order_item(self):
        kinds = self.kinds
        if kinds[self.pos] == "COUNT":
            # ORDER BY count(*) — refer to the aggregate output column.
            self.pos += 1
            if kinds[self.pos] == "LPAREN":
                self.pos += 1
                self.expect("STAR")
                self.expect("RPAREN")
            column = ast.ColumnRef(None, "count")
        else:
            column = self.parse_column()
        direction = "asc"
        if kinds[self.pos] == "DESC":
            self.pos += 1
            direction = "desc"
        elif kinds[self.pos] == "ASC":
            self.pos += 1
        return ast.OrderItem(column, direction)

    def parse_select_item(self):
        expr = self.parse_expr()
        kinds = self.kinds
        index = self.pos
        kind = kinds[index]
        if kind == "AS":
            index += 1
            if kinds[index] != "IDENT":
                raise self.expected("IDENT", index)
        elif kind != "IDENT":
            if type(expr) is not ast.ColumnRef:
                return ast.SelectItem(expr)
            item = self.column_items.get(id(expr))
            if item is None:
                item = self.column_items[id(expr)] = ast.SelectItem(expr)
            return item
        self.pos = index + 1
        return ast.SelectItem(expr, self.values[index])

    def parse_expr(self):
        index = self.pos
        kind = self.kinds[index]
        if kind == "IDENT":
            return self.parse_column()
        if kind == "STRING":
            self.pos = index + 1
            return ast.StringLit(self.values[index])
        if kind == "NUMBER":
            self.pos = index + 1
            return ast.NumberLit(self.values[index])
        if kind == "COUNT":
            self.pos = index + 1
            self.expect("LPAREN")
            self.expect("STAR")
            self.expect("RPAREN")
            return ast.CountStar()
        if kind in ("MIN", "MAX"):
            self.pos = index + 1
            self.expect("LPAREN")
            column = self.parse_column()
            self.expect("RPAREN")
            return ast.AggregateCall(kind.lower(), column)
        raise self.expected("IDENT", index)

    def parse_column(self):
        kinds, values = self.kinds, self.values
        index = self.pos
        if kinds[index] != "IDENT":
            raise self.expected("IDENT", index)
        if kinds[index + 1] != "DOT":
            self.pos = index + 1
            key = values[index]
        elif kinds[index + 2] != "IDENT":
            raise self.expected("IDENT", index + 2)
        else:
            self.pos = index + 3
            key = values[index], values[index + 2]
        column = self.columns.get(key)
        if column is None:
            column = self.columns[key] = (
                ast.ColumnRef(*key) if type(key) is tuple
                else ast.ColumnRef(None, key)
            )
        return column

    def parse_from_item(self):
        kinds, values = self.kinds, self.values
        index = self.pos
        kind = kinds[index]
        if kind == "LPAREN":
            self.pos = index + 1
            query = self.parse_query()
            self.expect("RPAREN")
            if kinds[self.pos] == "AS":
                self.pos += 1
            return ast.FromSubquery(query, self.expect("IDENT"))
        if kind != "IDENT":
            raise self.expected("IDENT", index)
        kind = kinds[index + 1]
        if kind == "IDENT":
            self.pos = index + 2
            return ast.FromTable(values[index], values[index + 1])
        if kind != "AS":
            self.pos = index + 1
            return ast.FromTable(values[index])
        self.pos = index + 2
        return ast.FromTable(values[index], self.expect("IDENT"))

    def parse_condition(self):
        left = self.parse_expr()
        index = self.pos
        kind = self.kinds[index]
        op = _COMPARISON_OPERATORS.get(kind)
        if op is None:
            raise self.error(
                f"expected comparison operator, found {kind}", index
            )
        self.pos = index + 1
        return ast.Condition(left, op, self.parse_expr())
