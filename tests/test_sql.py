"""Tests for the SQL front-end: lexer, parser, planner, serializer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SQLError
from repro.sql import parse_sql
from repro.sql.ast import (
    AggregateCall,
    ColumnRef,
    Condition,
    CountStar,
    FromSubquery,
    FromTable,
    NumberLit,
    OrderItem,
    SelectItem,
    SelectStmt,
    StringLit,
    UnionStmt,
)
from repro.sql.lexer import KEYWORDS, tokenize


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("SELECT a.b, count(*) FROM t")]
        assert kinds == [
            "SELECT", "IDENT", "DOT", "IDENT", "COMMA", "COUNT", "LPAREN",
            "STAR", "RPAREN", "FROM", "IDENT", "EOF",
        ]

    def test_string_literal(self):
        tokens = tokenize("'<type>'")
        assert tokens[0].kind == "STRING"
        assert tokens[0].value == "<type>"

    def test_string_with_inner_double_quotes(self):
        tokens = tokenize("'\"end\"'")
        assert tokens[0].value == '"end"'

    def test_numbers_and_comparisons(self):
        kinds = [t.kind for t in tokenize("x != 10 y <> 2 z >= 3")]
        assert "NE" in kinds and "GE" in kinds
        values = [t.value for t in tokenize("count(*) > 1") if t.kind == "NUMBER"]
        assert values == [1]

    def test_comments_skipped(self):
        tokens = tokenize("-- Query 1\nSELECT x FROM t")
        assert tokens[0].kind == "SELECT"

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].kind == "SELECT"

    def test_unterminated_string(self):
        with pytest.raises(SQLError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(SQLError):
            tokenize("SELECT @")

    def test_line_numbers(self):
        tokens = tokenize("SELECT x\nFROM t")
        assert tokens[2].line == 2  # FROM

    def test_non_ascii_digit_is_a_positioned_sql_error(self):
        # str.isdigit() accepts a superscript two; int() does not.
        with pytest.raises(SQLError) as err:
            tokenize("SELECT x,\n  ²")
        assert (err.value.line, err.value.column) == (2, 3)
        # Decimal digits of other scripts are numbers to int() too.
        assert tokenize("٣9")[0].value == 39

    def test_newline_inside_string_advances_the_line(self):
        tokens = tokenize("SELECT 'a\nb' FROM t")
        literal, keyword = tokens[1], tokens[2]
        assert (literal.value, literal.line, literal.column) == ("a\nb", 1, 8)
        assert (keyword.kind, keyword.line, keyword.column) == ("FROM", 2, 4)
        with pytest.raises(SQLError) as err:
            tokenize("SELECT 'a\nb' FROM ?")
        assert (err.value.line, err.value.column) == (2, 9)

    def test_positions_survive_blanks_comments_and_crlf(self):
        tokens = tokenize("SELECT\t x -- note\r\n  , y")
        assert [(t.kind, t.line, t.column) for t in tokens] == [
            ("SELECT", 1, 1), ("IDENT", 1, 9), ("COMMA", 2, 3),
            ("IDENT", 2, 5), ("EOF", 2, 6),
        ]

    def test_comment_at_end_of_input_leaves_eof_where_it_starts(self):
        tokens = tokenize("SELECT x -- trailing")
        assert [(t.kind, t.line, t.column) for t in tokens] == [
            ("SELECT", 1, 1), ("IDENT", 1, 8), ("EOF", 1, 10),
        ]
        with pytest.raises(SQLError) as err:
            parse_sql("SELECT x FROM t WHERE\n  -- nothing follows")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_eof_after_a_final_one_character_symbol(self):
        # EOF straight after a one-character symbol that ends the text
        # is one column further on; after blanks or a two-character
        # symbol it is where the text ends.
        assert tokenize("t,")[-1].column == 4
        assert tokenize("t, ")[-1].column == 4
        assert tokenize("a <>")[-1].column == 5
        with pytest.raises(SQLError) as err:
            parse_sql("SELECT x FROM (")
        assert (err.value.line, err.value.column) == (1, 17)

    def test_tabs_and_crlf_count_one_column_each(self):
        tokens = tokenize("\tSELECT\r\n\t\tx\r\n")
        assert [(t.kind, t.line, t.column) for t in tokens] == [
            ("SELECT", 1, 2), ("IDENT", 2, 3), ("EOF", 3, 1),
        ]

    def test_superscript_two_is_no_digit_but_arabic_indic_three_is(self):
        with pytest.raises(SQLError) as err:
            tokenize("x ²")
        assert "'²'" in str(err.value)
        assert (err.value.line, err.value.column) == (1, 3)
        tokens = tokenize("x ٣ é²")
        assert [(t.kind, t.value, t.column) for t in tokens[:3]] == [
            ("IDENT", "x", 1), ("NUMBER", 3, 3), ("IDENT", "é²", 5),
        ]

    def test_doubled_quote_is_one_quote(self):
        tokens = tokenize("SELECT 'p''q', '''', '' FROM t")
        assert [(t.kind, t.value, t.column) for t in tokens[1:6]] == [
            ("STRING", "p'q", 8), ("COMMA", ",", 14),
            ("STRING", "'", 16), ("COMMA", ",", 20), ("STRING", "", 22),
        ]
        assert tokens[6].column == 25  # FROM
        assert tokenize("'a'''")[0].value == "a'"
        with pytest.raises(SQLError) as err:
            tokenize("SELECT 'a''")  # 'a' then an unmatched quote
        assert "unterminated" in str(err.value)
        assert (err.value.line, err.value.column) == (1, 11)

    def test_quoted_literal_round_trips(self):
        stmt = parse_sql("SELECT s FROM t WHERE t.obj = '<o''2>'")
        assert stmt.where[0].right == StringLit("<o'2>")
        assert "'<o''2>'" in stmt.sql()
        assert parse_sql(stmt.sql()) == stmt


class TestParser:
    def test_minimal_select(self):
        stmt = parse_sql("SELECT A.obj FROM triples AS A")
        assert isinstance(stmt, SelectStmt)
        assert stmt.items[0].expr == ColumnRef("A", "obj")
        assert stmt.from_items[0] == FromTable("triples", "A")

    def test_alias_without_as(self):
        stmt = parse_sql("SELECT P.prop FROM properties P")
        assert stmt.from_items[0] == FromTable("properties", "P")

    def test_count_star_and_group_by(self):
        stmt = parse_sql(
            "SELECT A.obj, count(*) FROM triples AS A GROUP BY A.obj"
        )
        assert isinstance(stmt.items[1].expr, CountStar)
        assert stmt.group_by == (ColumnRef("A", "obj"),)

    def test_where_conjunction(self):
        stmt = parse_sql(
            "SELECT A.subj FROM triples AS A "
            "WHERE A.prop = '<type>' AND A.obj != '<Text>'"
        )
        assert stmt.where == (
            Condition(ColumnRef("A", "prop"), "=", StringLit("<type>")),
            Condition(ColumnRef("A", "obj"), "!=", StringLit("<Text>")),
        )

    def test_having(self):
        stmt = parse_sql(
            "SELECT A.obj, count(*) FROM triples AS A "
            "GROUP BY A.obj HAVING count(*) > 1"
        )
        assert stmt.having == Condition(CountStar(), ">", NumberLit(1))

    def test_union(self):
        stmt = parse_sql(
            "(SELECT A.subj FROM t AS A) UNION (SELECT B.subj FROM t AS B)"
        )
        assert isinstance(stmt, UnionStmt)
        assert not stmt.all
        assert len(stmt.selects) == 2

    def test_union_all(self):
        stmt = parse_sql(
            "(SELECT subj FROM a) UNION ALL (SELECT subj FROM b)"
        )
        assert stmt.all

    def test_mixed_union_rejected(self):
        with pytest.raises(SQLError):
            parse_sql(
                "(SELECT s FROM a) UNION (SELECT s FROM b) "
                "UNION ALL (SELECT s FROM c)"
            )

    def test_mixed_union_error_names_the_offending_union(self):
        with pytest.raises(SQLError) as err:
            parse_sql(
                "(SELECT s FROM a) UNION ALL (SELECT s FROM b)\n"
                "  UNION (SELECT s FROM c) UNION ALL (SELECT s FROM d)"
            )
        assert "mixing UNION and UNION ALL" in str(err.value)
        assert (err.value.line, err.value.column) == (2, 3)

    def test_subquery_in_from(self):
        stmt = parse_sql(
            "SELECT u.subj FROM (SELECT B.subj FROM t AS B) AS u"
        )
        assert isinstance(stmt.from_items[0], FromSubquery)
        assert stmt.from_items[0].alias == "u"

    def test_literal_select_item_with_alias(self):
        stmt = parse_sql("SELECT subj, '<p>' AS prop FROM vp_1")
        assert stmt.items[1].expr == StringLit("<p>")
        assert stmt.items[1].alias == "prop"

    def test_distinct(self):
        assert parse_sql("SELECT DISTINCT s FROM t").distinct

    def test_trailing_semicolon(self):
        parse_sql("SELECT s FROM t;")

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT FROM t",
            "SELECT s",
            "SELECT s FROM t WHERE",
            "SELECT s FROM t WHERE a = ",
            "SELECT s FROM t GROUP s",
            "SELECT s FROM (SELECT x FROM y)",  # subquery needs alias
            "SELECT count(*) FROM t HAVING count(*) ~ 1",
            "SELECT s FROM t extra garbage",
        ],
    )
    def test_malformed_sql_rejected(self, bad):
        with pytest.raises(SQLError):
            parse_sql(bad)

    def test_round_trip_through_serializer(self):
        text = (
            "SELECT B.prop, count(*) FROM triples AS A, triples AS B "
            "WHERE A.subj = B.subj AND A.prop = '<type>' GROUP BY B.prop"
        )
        stmt = parse_sql(text)
        again = parse_sql(stmt.sql())
        assert again == stmt

    def test_union_round_trip(self):
        text = (
            "(SELECT subj, '<a>' AS prop, obj FROM vp_1) "
            "UNION ALL (SELECT subj, '<b>' AS prop, obj FROM vp_2)"
        )
        stmt = parse_sql(text)
        assert parse_sql(stmt.sql()) == stmt

    def test_nested_union_subquery_round_trip(self):
        from repro.sql.appendix import APPENDIX_SQL

        for name, text in APPENDIX_SQL.items():
            stmt = parse_sql(text)
            assert parse_sql(stmt.sql()) == stmt, name


# ----------------------------------------------------------------------
# random texts
# ----------------------------------------------------------------------

_LETTERS = st.characters(categories=("Lu", "Ll", "Lo"))
_DIGITS = st.characters(categories=("Nd",))

#: Identifiers in any script: a letter or ``_``, then letters, decimal
#: digits of any script and ``_``; never a keyword.
identifiers = st.builds(
    lambda first, rest: first + rest,
    _LETTERS | st.just("_"),
    st.text(_LETTERS | _DIGITS | st.just("_"), max_size=6),
).filter(lambda word: word.upper() not in KEYWORDS)

#: Literal contents: quotes, line breaks, letters and digits of any
#: script, anything else.
literal_texts = st.text(
    st.sampled_from("'\"\n\r\t -,();") | _LETTERS | _DIGITS
    | st.characters(),
    max_size=12,
)

columns = st.builds(ColumnRef, st.none() | identifiers, identifiers)
expressions = st.one_of(
    columns,
    st.builds(StringLit, literal_texts),
    st.builds(NumberLit, st.integers(0, 10 ** 12)),
    st.just(CountStar()),
    st.builds(AggregateCall, st.sampled_from(["min", "max"]), columns),
)
conditions = st.builds(
    Condition, expressions,
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), expressions,
)
order_items = st.builds(
    OrderItem, columns | st.just(ColumnRef(None, "count")),
    st.sampled_from(["asc", "desc"]),
)
select_items = st.builds(SelectItem, expressions, st.none() | identifiers)


@st.composite
def statements(draw, depth=2):
    """A SELECT, or a UNION [ALL] of 2-3 statements; statements nest
    (as UNION operands and FROM subqueries) *depth* levels deep."""
    if depth and draw(st.booleans()):
        operands = draw(st.lists(statements(depth - 1), min_size=2,
                                 max_size=3))
        return UnionStmt(tuple(operands), all=draw(st.booleans()))
    from_items = []
    for _ in range(draw(st.integers(1, 2))):
        if depth and draw(st.booleans()):
            from_items.append(FromSubquery(
                draw(statements(depth - 1)), draw(identifiers)
            ))
        else:
            from_items.append(FromTable(
                draw(identifiers), draw(st.none() | identifiers)
            ))
    return SelectStmt(
        items=tuple(draw(st.lists(select_items, min_size=1, max_size=3))),
        from_items=tuple(from_items),
        where=tuple(draw(st.lists(conditions, max_size=3))),
        group_by=tuple(draw(st.lists(columns, max_size=2))),
        having=draw(st.none() | conditions),
        distinct=draw(st.booleans()),
        order_by=tuple(draw(st.lists(order_items, max_size=2))),
        limit=draw(st.none() | st.integers(0, 10 ** 6)),
    )


#: ``(source text, kind, value)`` of one token.
tokens = st.one_of(
    st.sampled_from(sorted(KEYWORDS)).flatmap(
        lambda word: st.sampled_from(
            [word, word.lower(), word.title()]
        ).map(lambda spelled: (spelled, word, word))
    ),
    identifiers.map(lambda word: (word, "IDENT", word)),
    st.text(_DIGITS, min_size=1, max_size=4).map(
        lambda digits: (digits, "NUMBER", int(digits))
    ),
    literal_texts.map(
        lambda value: (StringLit(value).sql(), "STRING", value)
    ),
    st.sampled_from([
        ("(", "LPAREN"), (")", "RPAREN"), (",", "COMMA"), ("*", "STAR"),
        (".", "DOT"), ("=", "EQ"), ("!=", "NE"), ("<>", "NE"),
        (">", "GT"), ("<", "LT"), (">=", "GE"), ("<=", "LE"),
        (";", "SEMI"),
    ]).map(lambda symbol: (symbol[0], symbol[1], symbol[0])),
)
separators = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", " -- note\n"])


def _line_column(text, offset):
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


class TestRandomTexts:
    @settings(max_examples=200, deadline=None)
    @given(statement=statements())
    def test_parse_of_rendered_statement_is_the_statement(self, statement):
        assert parse_sql(statement.sql()) == statement

    @settings(max_examples=200, deadline=None)
    @given(
        lead=separators | st.just(""),
        pieces=st.lists(st.tuples(tokens, separators), max_size=12),
        tail=separators | st.just(""),
    )
    def test_every_token_is_positioned_where_its_text_starts(
        self, lead, pieces, tail
    ):
        text, expected = lead, []
        for index, ((source, kind, value), separator) in enumerate(pieces):
            expected.append((kind, value, *_line_column(text, len(text))))
            text += source
            text += separator if index < len(pieces) - 1 else tail
        end = len(text)
        if pieces and not tail and pieces[-1][0][1] not in (
            "IDENT", "NUMBER", "STRING"
        ) and len(pieces[-1][0][0]) == 1:
            end += 1  # EOF after a final one-character symbol
        expected.append(("EOF", None, *_line_column(text, end)))
        assert [
            (t.kind, t.value, t.line, t.column) for t in tokenize(text)
        ] == expected
