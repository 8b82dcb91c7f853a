"""SQL lexer for the benchmark subset."""

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
    """Tokenize SQL text, returning a list ending with an EOF token."""
    tokens = []
    line, column = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = length if end < 0 else end
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise SQLError("unterminated string literal", line, column)
            tokens.append(Token("STRING", text[i + 1 : end], line, column))
            newlines = text.count("\n", i, end)
            if newlines:
                line += newlines
                column = end - text.rfind("\n", i, end) + 1
            else:
                column += end - i + 1
            i = end + 1
            continue
        # Not isdigit(): that also accepts superscripts and the like, which
        # int() rejects.
        if ch.isdecimal():
            end = i
            while end < length and text[end].isdecimal():
                end += 1
            tokens.append(Token("NUMBER", int(text[i:end]), line, column))
            column += end - i
            i = end
            continue
        if ch.isalpha() or ch == "_":
            end = i
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[i:end]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(upper, upper, line, column))
            else:
                tokens.append(Token("IDENT", word, line, column))
            column += end - i
            i = end
            continue
        two = text[i : i + 2]
        if two in SYMBOLS:
            tokens.append(Token(SYMBOLS[two], two, line, column))
            i += 2
            column += 2
            continue
        if ch in SYMBOLS:
            tokens.append(Token(SYMBOLS[ch], ch, line, column))
            i += 1
            column += 1
            continue
        raise SQLError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("EOF", None, line, column))
    return tokens
