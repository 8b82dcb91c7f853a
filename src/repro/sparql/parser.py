"""Parser for the SPARQL basic-graph-pattern fragment."""

import re
from dataclasses import dataclass, field

from repro.errors import ParseError
from repro.model.triple import Variable


@dataclass(frozen=True)
class Filter:
    """``FILTER(?var <op> constant)`` — op is '=' or '!='."""

    variable: str
    op: str
    value: str


@dataclass
class SparqlQuery:
    """A parsed SELECT query over one basic graph pattern."""

    variables: list            # projected variable names; None = SELECT *
    patterns: list = field(default_factory=list)
    filters: list = field(default_factory=list)
    distinct: bool = False
    limit: int = None


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^>]*>)
  | (?P<literal>"(?:[^"\\]|\\.)*")
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<keyword>(?i:SELECT|DISTINCT|WHERE|FILTER|LIMIT)\b)
  | (?P<number>\d+)
  | (?P<punct>[{}().!=*])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "DISTINCT", "WHERE", "FILTER", "LIMIT"}


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(
                f"unexpected character {text[pos]!r} in SPARQL", line=line
            )
        line += text[pos : match.end()].count("\n")
        kind = match.lastgroup
        value = match.group()
        pos = match.end()
        if kind in ("ws", "comment"):
            continue
        if kind == "keyword":
            tokens.append((value.upper(), value.upper()))
        else:
            tokens.append((kind, value))
    tokens.append(("eof", None))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        if token[0] != "eof":
            self.pos += 1
        return token

    def expect(self, kind, what=None):
        token = self.peek()
        if token[0] != kind and token[1] != kind:
            raise ParseError(
                f"expected {what or kind}, found {token[1]!r} in SPARQL"
            )
        return self.advance()

    def accept(self, kind):
        if self.peek()[0] == kind or self.peek()[1] == kind:
            return self.advance()
        return None

    # ------------------------------------------------------------------

    def parse(self):
        self.expect("SELECT")
        distinct = self.accept("DISTINCT") is not None
        variables = self.parse_projection()
        self.expect("WHERE")
        self._expect_punct("{")
        patterns, filters = self.parse_group()
        self._expect_punct("}")
        limit = None
        if self.accept("LIMIT"):
            limit = int(self.expect("number")[1])
        if self.peek()[0] != "eof":
            raise ParseError(
                f"trailing input in SPARQL: {self.peek()[1]!r}"
            )
        return SparqlQuery(
            variables=variables,
            patterns=patterns,
            filters=filters,
            distinct=distinct,
            limit=limit,
        )

    def _expect_punct(self, char):
        token = self.peek()
        if token[0] == "punct" and token[1] == char:
            return self.advance()
        raise ParseError(f"expected {char!r}, found {token[1]!r} in SPARQL")

    def _accept_punct(self, char):
        token = self.peek()
        if token[0] == "punct" and token[1] == char:
            return self.advance()
        return None

    def parse_projection(self):
        if self._accept_punct("*"):
            return None
        names = []
        while self.peek()[0] == "var":
            names.append(self.advance()[1][1:])
        if not names:
            raise ParseError("SELECT needs variables or '*'")
        return names

    def parse_group(self):
        patterns = []
        filters = []
        while True:
            token = self.peek()
            if token[0] == "punct" and token[1] == "}":
                break
            if token[0] == "eof":
                raise ParseError("unterminated '{' group in SPARQL")
            if token[0] == "FILTER":
                filters.append(self.parse_filter())
                self._accept_punct(".")
                continue
            patterns.append(self.parse_pattern())
            # SPARQL 1.1: a FILTER may follow a pattern without a '.'.
            if not self._accept_punct(".") and self.peek()[0] != "FILTER":
                break
        return patterns, filters

    def parse_pattern(self):
        terms = [self.parse_term() for _ in range(3)]
        return tuple(terms)

    def parse_term(self):
        kind, value = self.peek()
        if kind == "var":
            self.advance()
            return Variable(value[1:])
        if kind in ("iri", "literal"):
            self.advance()
            return value
        raise ParseError(
            f"expected a variable, IRI or literal; found {value!r}"
        )

    def parse_filter(self):
        self.expect("FILTER")
        self._expect_punct("(")
        variable = self.expect("var", what="a variable")[1][1:]
        op = self.parse_operator()
        kind, value = self.peek()
        if kind not in ("iri", "literal"):
            raise ParseError(
                f"FILTER compares against an IRI or literal, found {value!r}"
            )
        self.advance()
        self._expect_punct(")")
        return Filter(variable, op, value)

    def parse_operator(self):
        if self._accept_punct("!"):
            self._expect_punct("=")
            return "!="
        if self._accept_punct("="):
            return "="
        raise ParseError(
            f"expected '=' or '!=' in FILTER, found {self.peek()[1]!r}"
        )


def parse_sparql(text):
    """Parse SPARQL text into a :class:`SparqlQuery`."""
    return _Parser(_tokenize(text)).parse()
