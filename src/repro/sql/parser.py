"""Recursive-descent parser for the benchmark SQL subset."""

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.lexer import tokenize


_COMPARISON_OPERATORS = {"EQ": "=", "NE": "!=", "GT": ">", "LT": "<",
                         "GE": ">=", "LE": "<="}


def parse_sql(text):
    """Parse SQL text into a :class:`SelectStmt` or :class:`UnionStmt`."""
    parser = _Parser(tokenize(text))
    stmt = parser.parse_query()
    parser.accept("SEMI")
    parser.expect("EOF")
    return stmt


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------

    # The token list ends with an EOF token that is never consumed, so
    # ``tokens[pos]`` always exists: no bounds check per token.

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def accept(self, kind):
        token = self.tokens[self.pos]
        if token.kind != kind:
            return None
        if kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind):
        token = self.tokens[self.pos]
        if token.kind != kind:
            raise SQLError(
                f"expected {kind}, found {token.kind} ({token.value!r})",
                token.line,
                token.column,
            )
        if kind != "EOF":
            self.pos += 1
        return token

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------

    def parse_query(self):
        """query := term (UNION [ALL] term)*"""
        first = self.parse_term()
        selects = [first]
        all_flags = []
        while self.accept("UNION"):
            all_flags.append(self.accept("ALL") is not None)
            selects.append(self.parse_term())
        if len(selects) == 1:
            return first
        if len(set(all_flags)) > 1:
            raise SQLError("mixing UNION and UNION ALL is not supported")
        return ast.UnionStmt(tuple(selects), all=all_flags[0])

    def parse_term(self):
        """term := '(' query ')' | select_stmt"""
        if self.peek().kind == "LPAREN":
            self.expect("LPAREN")
            query = self.parse_query()
            self.expect("RPAREN")
            return query
        return self.parse_select()

    def parse_select(self):
        self.expect("SELECT")
        distinct = self.accept("DISTINCT") is not None
        items = [self.parse_select_item()]
        while self.accept("COMMA"):
            items.append(self.parse_select_item())
        self.expect("FROM")
        from_items = [self.parse_from_item()]
        while self.accept("COMMA"):
            from_items.append(self.parse_from_item())
        where = ()
        if self.accept("WHERE"):
            conditions = [self.parse_condition()]
            while self.accept("AND"):
                conditions.append(self.parse_condition())
            where = tuple(conditions)
        group_by = ()
        if self.accept("GROUP"):
            self.expect("BY")
            columns = [self.parse_column()]
            while self.accept("COMMA"):
                columns.append(self.parse_column())
            group_by = tuple(columns)
        having = None
        if self.accept("HAVING"):
            having = self.parse_condition()
        order_by = ()
        if self.accept("ORDER"):
            self.expect("BY")
            order_items = [self.parse_order_item()]
            while self.accept("COMMA"):
                order_items.append(self.parse_order_item())
            order_by = tuple(order_items)
        limit = None
        if self.accept("LIMIT"):
            limit = self.expect("NUMBER").value
        return ast.SelectStmt(
            items=tuple(items),
            from_items=tuple(from_items),
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
        )

    def parse_order_item(self):
        if self.peek().kind == "COUNT":
            # ORDER BY count(*) — refer to the aggregate output column.
            self.advance()
            if self.accept("LPAREN"):
                self.expect("STAR")
                self.expect("RPAREN")
            column = ast.ColumnRef(None, "count")
        else:
            column = self.parse_column()
        direction = "asc"
        if self.accept("DESC"):
            direction = "desc"
        elif self.accept("ASC"):
            direction = "asc"
        return ast.OrderItem(column, direction)

    def parse_select_item(self):
        expr = self.parse_expr()
        alias = None
        if self.accept("AS"):
            alias = self.expect("IDENT").value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def parse_expr(self):
        token = self.peek()
        if token.kind == "COUNT":
            self.advance()
            self.expect("LPAREN")
            self.expect("STAR")
            self.expect("RPAREN")
            return ast.CountStar()
        if token.kind in ("MIN", "MAX"):
            self.advance()
            self.expect("LPAREN")
            column = self.parse_column()
            self.expect("RPAREN")
            return ast.AggregateCall(token.kind.lower(), column)
        if token.kind == "STRING":
            self.advance()
            return ast.StringLit(token.value)
        if token.kind == "NUMBER":
            self.advance()
            return ast.NumberLit(token.value)
        return self.parse_column()

    def parse_column(self):
        name = self.expect("IDENT").value
        if self.accept("DOT"):
            return ast.ColumnRef(name, self.expect("IDENT").value)
        return ast.ColumnRef(None, name)

    def parse_from_item(self):
        if self.peek().kind == "LPAREN":
            self.expect("LPAREN")
            query = self.parse_query()
            self.expect("RPAREN")
            self.accept("AS")
            alias = self.expect("IDENT").value
            return ast.FromSubquery(query, alias)
        table = self.expect("IDENT").value
        alias = None
        if self.accept("AS"):
            alias = self.expect("IDENT").value
        elif self.peek().kind == "IDENT":
            alias = self.advance().value
        return ast.FromTable(table, alias)

    def parse_condition(self):
        left = self.parse_expr()
        token = self.peek()
        if token.kind not in _COMPARISON_OPERATORS:
            raise SQLError(
                f"expected comparison operator, found {token.kind}",
                token.line,
                token.column,
            )
        self.advance()
        right = self.parse_expr()
        return ast.Condition(left, _COMPARISON_OPERATORS[token.kind], right)
