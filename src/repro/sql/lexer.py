"""SQL lexer for the benchmark subset: one regular-expression scan.

:func:`scan` is what the parser reads: the token kinds and values as two
flat lists ending with ``EOF``.  One compiled pattern finds every token
(and every ``--`` comment, which the scan drops), skipping blanks
itself, so no Python code runs per character and no object is built per
token.  A token's line and column are worked out only when something
asks (:func:`positions`, from the same pattern): a raised
:class:`~repro.errors.SQLError`, or :func:`tokenize`, the positioned
token list.

A string literal runs from ``'`` to the next lone ``'``; inside it SQL's
doubled quote ``''`` stands for one ``'``.
"""

import re
from itertools import compress, count
from operator import not_

from repro.errors import SQLError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "GROUP", "BY", "HAVING",
    "UNION", "ALL", "AS", "COUNT", "ORDER", "ASC", "DESC", "LIMIT",
    "MIN", "MAX",
}

SYMBOLS = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "*": "STAR",
    ".": "DOT",
    "=": "EQ",
    "!=": "NE",
    "<>": "NE",
    ">": "GT",
    "<": "LT",
    ">=": "GE",
    "<=": "LE",
    ";": "SEMI",
}

#: Blanks, then one token (group 1): a word with an ASCII start, a
#: symbol (two characters before one), a literal, a run of decimal
#: digits (``\d`` is ``str.isdecimal``: what ``int`` reads), a word with
#: any other start (``\w`` is ``str.isalnum`` or ``_``; the start must
#: be a letter, checked in :func:`scan`), a ``--`` comment (dropped by
#: :func:`scan`: tried only where nothing else fits, it costs the common
#: token nothing), any other character (an error), or the empty end of
#: the text.  The token alternative always matches, so the skipped blanks
#: are never backtracked into.
_TOKEN = re.compile(r"""
    [ \t\r\n]*
    ( [A-Za-z_]\w*
    | != | <> | >= | <= | [(),*.=<>;]
    | '[^']*(?:''[^']*)*'
    | \d+
    | \w+
    | --[^\n]*
    | .
    | \Z )
""", re.VERBOSE | re.DOTALL)

#: Kind by token text, for the tokens whose text is their value.
_KINDS = dict(SYMBOLS, **{keyword: keyword for keyword in KEYWORDS})


def scan(text):
    """``(kinds, values)``: *text*'s tokens as two lists ending with EOF.

    A keyword's kind and value are its upper-case spelling, an
    identifier's kind is ``IDENT``, a literal's value its text between
    the quotes, a number's value an ``int``, EOF's value None.
    """
    values = _TOKEN.findall(text)
    del values[values.index(""):]  # the first empty token is the end
    if "--" in text:
        values = [token for token in values if token[:2] != "--"]
    # Symbols and upper-case keywords are looked up in one C loop; the
    # rest (identifiers, literals, numbers, errors) are classified here.
    kinds = list(map(_KINDS.get, values))
    for index in compress(count(), map(not_, kinds)):
        token = values[index]
        first = token[0]
        if first.isalpha() or first == "_":
            upper = token.upper()
            if upper in KEYWORDS:
                kinds[index] = values[index] = upper
            else:
                kinds[index] = "IDENT"
        elif first == "'":
            if len(token) == 1:
                raise SQLError("unterminated string literal",
                               *position(text, index))
            kinds[index] = "STRING"
            values[index] = token[1:-1].replace("''", "'")
        elif first.isdecimal():
            kinds[index] = "NUMBER"
            values[index] = int(token)
        else:
            raise SQLError(f"unexpected character {first!r}",
                           *position(text, index))
    kinds.append("EOF")
    values.append(None)
    return kinds, values


def positions(text, stop=None):
    """``(line, column)`` of *text*'s tokens, EOF's last — or of tokens
    0 to *stop*.  Columns count characters from 1; a tab is one.  EOF
    sits where a comment that ends the text starts, and one column past
    the end when a one-character symbol ends it (the positions errors at
    the end have always reported)."""
    found = []
    line, line_start, previous, token = 1, 0, 0, ""
    for match in _TOKEN.finditer(text):
        offset = match.start(1)
        end = offset == match.end(1)
        if end and previous + len(token) == offset:
            if token[:2] == "--":
                offset = previous
            elif len(token) == 1 and token in SYMBOLS:
                offset += 1
        newlines = text.count("\n", previous, offset)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", previous, offset) + 1
        previous, token = offset, match.group(1)
        if token[:2] == "--":
            continue
        found.append((line, offset - line_start + 1))
        if end or len(found) - 1 == stop:
            break
    return found


def position(text, index):
    """``(line, column)`` of token *index* of *text* (EOF included)."""
    return positions(text, index)[index]


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r})"


def tokenize(text):
    """Tokenize SQL text, returning a list of positioned :class:`Token`
    objects ending with an EOF token."""
    kinds, values = scan(text)
    return [
        Token(kind, value, line, column)
        for kind, value, (line, column) in zip(kinds, values, positions(text))
    ]
