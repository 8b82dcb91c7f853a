"""Tests for the SQL front-end: lexer, parser, planner, serializer."""

import pytest

from repro.errors import SQLError
from repro.sql import parse_sql
from repro.sql.ast import (
    ColumnRef,
    Condition,
    CountStar,
    FromSubquery,
    FromTable,
    NumberLit,
    SelectStmt,
    StringLit,
    UnionStmt,
)
from repro.sql.lexer import tokenize


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
