"""Scalar comparison predicates used in selections and HAVING clauses."""

import operator
from functools import partial

from repro.errors import PlanError

EQ = "="
NE = "!="
LT = "<"
LE = "<="
GT = ">"
GE = ">="

_OPERATORS = {EQ, NE, LT, LE, GT, GE}

_PYTHON_OPS = {
    EQ: operator.eq,
    NE: operator.ne,
    LT: operator.lt,
    LE: operator.le,
    GT: operator.gt,
    GE: operator.ge,
}

#: ``a <op> b`` is ``_MIRRORED[op](b, a)``: a constant bound first by
#: ``partial`` is the right operand.
_MIRRORED = {
    EQ: operator.eq,
    NE: operator.ne,
    LT: operator.gt,
    LE: operator.ge,
    GT: operator.lt,
    GE: operator.le,
}


class Comparison:
    """``column <op> value`` where *value* is an integer constant.

    Constants are dictionary oids for data columns, or plain integers for
    aggregate outputs (``HAVING count(*) > 1``).  A ``value`` of ``None``
    marks a constant that did not resolve in the dictionary: the predicate
    is unsatisfiable for ``=`` and always true for ``!=``.
    """

    __slots__ = ("column", "op", "value", "test")

    def __init__(self, column, op, value):
        if op not in _OPERATORS:
            raise PlanError(f"unsupported comparison operator: {op!r}")
        if value is not None:
            value = int(value)
        self.column = column
        self.op = op
        self.value = value
        #: :meth:`evaluate` as one C-level call, for per-tuple loops: the
        #: operator with the constant bound, or — for an unresolved
        #: constant — an identity test against ``None`` that is true for
        #: ``!=`` and false otherwise.
        self.test = (
            partial(_MIRRORED[op], value) if value is not None
            else partial(operator.is_not if op == NE else operator.is_, None)
        )

    def __repr__(self):
        return f"Comparison({self.column!r} {self.op} {self.value!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and (self.column, self.op, self.value)
            == (other.column, other.op, other.value)
        )

    def __hash__(self):
        return hash((self.column, self.op, self.value))

    def is_equality(self):
        return self.op == EQ

    def evaluate(self, scalar):
        """Apply the predicate to a single integer value."""
        return self.test(scalar)

    def mask(self, array):
        """Apply the predicate to a numpy array, returning a boolean mask."""
        import numpy as np

        if self.value is None:
            fill = self.op == NE
            return np.full(len(array), fill, dtype=bool)
        return _PYTHON_OPS[self.op](array, self.value)


class ColumnComparison:
    """``left_column <op> right_column`` — compares two columns of the same
    relation.

    Needed for cyclic graph patterns (a pattern sharing more than one
    variable with already-joined patterns) and for redundant SQL join
    conditions between already-joined relations.
    """

    __slots__ = ("left", "op", "right", "test")

    def __init__(self, left, op, right):
        if op not in _OPERATORS:
            raise PlanError(f"unsupported comparison operator: {op!r}")
        self.left = left
        self.op = op
        self.right = right
        #: :meth:`evaluate` as one C-level call (the operator itself).
        self.test = _PYTHON_OPS[op]

    def __repr__(self):
        return f"ColumnComparison({self.left!r} {self.op} {self.right!r})"

    def __eq__(self, other):
        return (
            isinstance(other, ColumnComparison)
            and (self.left, self.op, self.right)
            == (other.left, other.op, other.right)
        )

    def __hash__(self):
        return hash((self.left, self.op, self.right))

    def columns(self):
        return (self.left, self.right)

    def evaluate(self, left_value, right_value):
        return self.test(left_value, right_value)

    def mask(self, left_array, right_array):
        return _PYTHON_OPS[self.op](left_array, right_array)


def is_column_comparison(predicate):
    return isinstance(predicate, ColumnComparison)
