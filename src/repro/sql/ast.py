"""Abstract syntax tree for the SQL subset, with a back-to-SQL serializer.

The serializer matters: the vertically-partitioned SQL *generator* works by
parsing the triple-store SQL, transforming the AST, and emitting SQL text
again — the same round trip the paper's Perl script performed on strings.
"""

from dataclasses import dataclass
from typing import Optional


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnRef:
    qualifier: Optional[str]
    name: str

    def sql(self):
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name


@dataclass(frozen=True)
class StringLit:
    value: str

    def sql(self):
        return "'" + self.value.replace("'", "''") + "'"


@dataclass(frozen=True)
class NumberLit:
    value: int

    def sql(self):
        return str(self.value)


@dataclass(frozen=True)
class NullLit:
    """``NULL``: equal to nothing, as a constant absent from the
    dictionary is."""

    def sql(self):
        return "NULL"


@dataclass(frozen=True)
class CountStar:
    def sql(self):
        return "count(*)"


@dataclass(frozen=True)
class AggregateCall:
    """``min(col)`` / ``max(col)``."""

    func: str  # "min" | "max"
    column: ColumnRef

    def sql(self):
        return f"{self.func}({self.column.sql()})"


@dataclass(frozen=True)
class SelectItem:
    expr: object
    alias: Optional[str] = None

    def sql(self):
        if self.alias:
            return f"{self.expr.sql()} AS {self.alias}"
        return self.expr.sql()

    def output_name(self):
        if self.alias:
            return self.alias
        if isinstance(self.expr, CountStar):
            return "count"
        if isinstance(self.expr, AggregateCall):
            return f"{self.expr.func}_{self.expr.column.name}"
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        raise ValueError(f"select item needs an alias: {self.expr.sql()}")


@dataclass(frozen=True)
class Condition:
    left: object
    op: str  # '=', '!=', '<', '<=', '>', '>='
    right: object

    def sql(self):
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


# ---------------------------------------------------------------------------
# FROM items and statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FromTable:
    table: str
    alias: Optional[str] = None

    def sql(self):
        if self.alias:
            return f"{self.table} AS {self.alias}"
        return self.table

    def binding(self):
        return self.alias or self.table


@dataclass(frozen=True)
class FromSubquery:
    query: object  # SelectStmt or UnionStmt
    alias: str

    def sql(self):
        return f"(\n{_indent(self.query.sql())}\n) AS {self.alias}"

    def binding(self):
        return self.alias


@dataclass(frozen=True)
class OrderItem:
    column: ColumnRef
    direction: str = "asc"  # "asc" | "desc"

    def sql(self):
        if self.direction == "desc":
            return f"{self.column.sql()} DESC"
        return self.column.sql()


@dataclass(frozen=True)
class SelectStmt:
    items: tuple
    from_items: tuple
    where: tuple = ()          # conjunction of Conditions
    group_by: tuple = ()       # ColumnRefs
    having: Optional[Condition] = None
    distinct: bool = False
    order_by: tuple = ()       # OrderItems
    limit: Optional[int] = None

    def sql(self):
        parts = ["SELECT "]
        if self.distinct:
            parts.append("DISTINCT ")
        parts.append(", ".join(i.sql() for i in self.items))
        parts.append("\nFROM ")
        parts.append(",\n     ".join(f.sql() for f in self.from_items))
        if self.where:
            parts.append("\nWHERE ")
            parts.append("\n  AND ".join(c.sql() for c in self.where))
        if self.group_by:
            parts.append("\nGROUP BY ")
            parts.append(", ".join(c.sql() for c in self.group_by))
        if self.having is not None:
            parts.append(f"\nHAVING {self.having.sql()}")
        if self.order_by:
            parts.append("\nORDER BY ")
            parts.append(", ".join(o.sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"\nLIMIT {self.limit}")
        return "".join(parts)


@dataclass(frozen=True)
class UnionStmt:
    selects: tuple  # SelectStmt / UnionStmt operands
    all: bool = False

    def sql(self):
        # Rendered once per (frozen) statement: the generator puts one
        # 222-branch union into every query it rewrites.
        try:
            return self.__dict__["_sql"]
        except KeyError:
            keyword = "UNION ALL" if self.all else "UNION"
            text = f"\n{keyword}\n".join(
                f"({s.sql()})" for s in self.selects
            )
            object.__setattr__(self, "_sql", text)
            return text


def _indent(text, prefix="  "):
    """*text* with *prefix* at the start of every line that does not start
    inside a string literal.  Quotes pair up (``''`` is two), so the
    even-numbered pieces between them are the text outside literals."""
    pieces = text.split("'")
    pieces[::2] = [
        piece.replace("\n", "\n" + prefix) for piece in pieces[::2]
    ]
    return prefix + "'".join(pieces)
