"""Fuzz tests: the parser fails *predictably* on malformed input.

Whatever garbage arrives, the contract is: either a parsed query or one
of the library's own error types (``SqlSyntaxError`` /
``UnsupportedQueryError``) — never an IndexError, RecursionError, or
other internal leak.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.ast import UnsupportedQueryError
from repro.sql.parser import (
    MAX_PAREN_DEPTH,
    SqlSyntaxError,
    fingerprint_sql,
    parse_query,
    parse_template,
    parse_where,
)

EXPECTED = (SqlSyntaxError, UnsupportedQueryError)


class TestParserFuzz:
    @given(st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_leaks_internal_errors(self, text):
        try:
            parse_query(text)
        except EXPECTED:
            pass

    @given(st.text(alphabet="AB ()<>=!AND OR and or 0123456789.", max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_sql_like_soup(self, soup):
        try:
            parse_where(soup)
        except EXPECTED:
            pass

    @given(st.lists(st.sampled_from(
        ["A", "B", ">", "<", "=", "<>", "AND", "OR", "(", ")", "5", "-3",
         "2.5"]), min_size=1, max_size=25).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_token_shuffles(self, text):
        try:
            parse_where(text)
        except EXPECTED:
            pass

    def test_deeply_nested_parentheses(self):
        depth = 200
        sql = "(" * depth + "A > 1" + ")" * depth
        expr = parse_where(sql)
        assert expr.to_sql() == "A > 1"

    @pytest.mark.parametrize("prefix", ["", "SELECT count(*) FROM t WHERE "])
    def test_nesting_bound(self, prefix):
        def nested(depth: int) -> str:
            return prefix + "(" * depth + "A > 1" + ")" * depth

        def parse(sql: str):
            if not prefix:
                return parse_where(sql)
            key, literals = fingerprint_sql(sql)
            assert parse_template(key, len(literals)).where.value == 0.0
            return parse_query(sql).where

        assert parse(nested(MAX_PAREN_DEPTH)).to_sql() == "A > 1"
        with pytest.raises(SqlSyntaxError, match="nest deeper"):
            parse(nested(MAX_PAREN_DEPTH + 1))
        # Far past the bound: a syntax error, not a RecursionError.
        with pytest.raises(SqlSyntaxError, match="nest deeper"):
            parse(nested(5_000))

    def test_very_long_conjunction(self):
        sql = " AND ".join(f"A <> {i}" for i in range(2_000))
        expr = parse_where(sql)
        assert len(list(expr.children)) == 2_000

    @pytest.mark.parametrize("bad", [
        "", "SELECT", "SELECT count(*)", "SELECT count(*) FROM",
        "SELECT count(*) FROM t WHERE", "SELECT count(*) FROM t WHERE A >",
        "SELECT count(*) FROM t WHERE A > 1 AND",
        "SELECT count(*) FROM t GROUP", "SELECT count(*) FROM t GROUP BY",
        "SELECT sum(*) FROM t",
    ])
    def test_truncated_statements(self, bad):
        with pytest.raises(EXPECTED):
            parse_query(bad)
