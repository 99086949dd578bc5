"""The one-pass ``fingerprint_sql`` against the two-pass reference.

``reference_fingerprint_sql`` is the masking the serving layer used
before ``fingerprint_sql`` became a single ``re.split`` scan: a
constant-replacement ``sub`` plus a ``findall`` when the text holds no
quote, and a per-match callback ``sub`` otherwise.  It stays here as the
oracle: on generated text — negative and decimal literals, digits inside
identifiers, quoted strings holding digits, odd whitespace, malformed
statements — both must return the same key and the same literals.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.sql.parser import fingerprint_sql

_LITERAL_RE = re.compile(r"'[^']*'|(?<![\w.])-?\d+(?:\.\d+)?")
_NUMBER_RE = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?")


def reference_fingerprint_sql(sql: str) -> tuple[str, tuple[float, ...]]:
    """Two-pass literal masking (the reference for ``fingerprint_sql``)."""
    if "'" not in sql:
        return (_NUMBER_RE.sub("?", sql),
                tuple(map(float, _NUMBER_RE.findall(sql))))
    values: list[float] = []

    def _mask(match: "re.Match[str]") -> str:
        text = match.group(0)
        if text.startswith("'"):
            return text
        values.append(float(text))
        return "?"

    return _LITERAL_RE.sub(_mask, sql), tuple(values)


def outcome(fingerprint, sql: str):
    """The result, or the exception type, so failures compare too."""
    try:
        return fingerprint(sql)
    except ValueError as exc:
        return type(exc)


def assert_same(sql: str) -> None:
    assert outcome(fingerprint_sql, sql) \
        == outcome(reference_fingerprint_sql, sql), repr(sql)


NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0", "007", "1.", ".5", "-.5", "1.2.3", "--4",
                     "3-2", "1e5", "-2.50", "0.0"]),
)
IDENTIFIERS = st.sampled_from(
    ["A", "A1", "a_3", "t1.col", "t1.c2", "x.y2.z3", "_9", "attr_10",
     "forest", "Elevation"])
STRINGS = st.one_of(
    st.text(alphabet="ab 0123456789.-%", max_size=8).map(
        lambda body: f"'{body}'"),
    st.just("'"),  # an unterminated quote
)
WORDS = st.sampled_from(
    ["SELECT", "count(*)", "FROM", "WHERE", "AND", "OR", "LIKE", "GROUP",
     "BY", "(", ")", ",", ";", "*", "=", "<>", "!=", "<", "<=", ">", ">="])
SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\r\n", " \t "])

TOKEN_SOUP = st.lists(
    st.tuples(st.one_of(NUMBERS, IDENTIFIERS, STRINGS, WORDS), SPACES),
    max_size=40,
).map(lambda pairs: "".join(token + space for token, space in pairs))


@st.composite
def statements(draw):
    """Well-formed statements with numeric and string predicates."""
    predicates = draw(st.lists(
        st.one_of(
            st.tuples(IDENTIFIERS, st.sampled_from(
                ["=", "<>", "<", "<=", ">", ">="]), NUMBERS),
            st.tuples(IDENTIFIERS, st.sampled_from(["=", "<>", "LIKE"]),
                      STRINGS.filter(lambda s: len(s) > 1)),
        ),
        min_size=1, max_size=8))
    space = draw(SPACES.filter(bool))
    joiner = draw(st.sampled_from(["AND", "OR"]))
    where = f"{space}{joiner}{space}".join(
        f"{attribute}{space}{op}{space}{value}"
        for attribute, op, value in predicates)
    return f"SELECT count(*) FROM forest WHERE {where}"


class TestFingerprintOracle:
    @seed(20230411)
    @given(statements())
    @settings(max_examples=400, deadline=None)
    def test_statements(self, sql):
        assert_same(sql)

    @seed(20230412)
    @given(TOKEN_SOUP)
    @settings(max_examples=400, deadline=None)
    def test_token_soup(self, sql):
        assert_same(sql)

    @seed(20230413)
    @given(st.text(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, sql):
        assert_same(sql)

    @pytest.mark.parametrize("sql", [
        "",
        "5",
        "-5",
        "'5'",
        "'abc'5",
        "'unterminated 5",
        "x'5'6'7",
        "t1.col = 3.25.5",
        "A1 >= -2.5 AND t1.c2 < 10",
        "SELECT count(*) FROM forest WHERE A = '1 2' AND B > 3",
        "SELECT count(*) FROM forest WHERE A\t>\n-0.5;",
    ])
    def test_fixed_cases(self, sql):
        assert_same(sql)
