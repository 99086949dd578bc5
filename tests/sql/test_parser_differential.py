"""The parser against its oracle, on generated SQL.

:mod:`repro.sql.parser` parses a statement's fingerprint key, numeric
literals masked as ``?``, in one tokenizer-and-descent pass;
:mod:`tests.sql.reference_parser` reads the raw text token by token.
For every input, valid or not, both ``parse_query`` (and
``parse_where``) must return equal queries or raise the same exception
type.  For every valid statement the template the serving layer caches,
``parse_template(key, n)``, must equal ``make_template`` of the oracle's
parse, and re-binding it with the statement's literals must give that
parse back: slot order is walk order.

Valid statements cover conjunctive and Definition 3.3 mixed WHERE
clauses, joins, string and ``LIKE`` predicates, ``GROUP BY``, qualified
names, negative and decimal literals, ``!=``, keywords in mixed case, a
trailing ``;`` and odd whitespace.  Malformed input covers the fuzz
alphabets and token shuffles of ``test_parser_fuzz``, arbitrary text,
and valid statements cut short, or with a raw ``?``, a stray quote, or
digits glued to a word spliced in.
"""

from __future__ import annotations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.sql import parser
from repro.sql.parser import (
    bind_template,
    fingerprint_sql,
    make_template,
    parse_template,
)
from tests.sql import reference_parser as oracle

OPS = ["=", "<>", "!=", "<", "<=", ">", ">="]
COLUMNS = ["A", "A1", "b_2", "Elevation", "x9"]
TABLES = ["t", "u"]

#: Whitespace between words: at least one character.
GAP = st.sampled_from([" ", "  ", "\t", "\n", " \r\n\t "])
#: Whitespace around operators and punctuation: possibly none.
TIGHT = st.sampled_from(["", " ", "\t", "\n "])

NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-999, 999), st.integers(0, 999)).map(
        lambda parts: f"{parts[0]}.{parts[1]:03d}"),
    st.sampled_from(["-0", "007", "-0.25", "0.0", "-2.50"]),
)
#: String literal bodies: digits, '?', '%' and '-' inside quotes are
#: never literals or syntax errors.
BODIES = st.text(alphabet="ab z09?-.%", max_size=6).map(
    lambda body: body.replace("%", ""))


def cased(word: str):
    """``word`` in a random letter case."""
    return st.lists(st.booleans(), min_size=len(word),
                    max_size=len(word)).map(
        lambda flips: "".join(c.upper() if up else c.lower()
                              for c, up in zip(word, flips)))


@st.composite
def attributes(draw, tables=TABLES[:1], columns=COLUMNS):
    column = draw(st.sampled_from(columns))
    if draw(st.booleans()):
        return f"{draw(st.sampled_from(tables))}.{column}"
    return column


@st.composite
def comparisons(draw, attribute: str):
    kind = draw(st.integers(0, 9))
    if kind < 7:
        return (f"{attribute}{draw(TIGHT)}{draw(st.sampled_from(OPS))}"
                f"{draw(TIGHT)}{draw(NUMBERS)}")
    if kind < 8:
        op = draw(st.sampled_from(["=", "<>", "!="]))
        return f"{attribute}{draw(TIGHT)}{op}{draw(TIGHT)}'{draw(BODIES)}'"
    wildcard = draw(st.sampled_from(["%", ""]))
    return (f"{attribute}{draw(GAP)}{draw(cased('like'))}{draw(GAP)}"
            f"'{draw(BODIES)}{wildcard}'")


@st.composite
def compounds(draw, tables=TABLES[:1], columns=COLUMNS):
    """A Definition 3.3 compound predicate: AND/OR over one attribute."""
    attribute = draw(attributes(tables, columns))
    disjuncts = []
    for _ in range(draw(st.integers(1, 3))):
        terms = [draw(comparisons(attribute))
                 for _ in range(draw(st.integers(1, 3)))]
        joiner = f"{draw(GAP)}{draw(cased('and'))}{draw(GAP)}"
        disjuncts.append(joiner.join(terms))
    if len(disjuncts) == 1 and draw(st.booleans()):
        return disjuncts[0]
    joiner = f"{draw(GAP)}{draw(cased('or'))}{draw(GAP)}"
    return f"({draw(TIGHT)}{joiner.join(disjuncts)}{draw(TIGHT)})"


@st.composite
def where_clauses(draw, tables=TABLES[:1], joins=(), columns=COLUMNS):
    terms = [draw(compounds(tables, columns))
             for _ in range(draw(st.integers(1, 4)))]
    terms += list(joins)
    terms = draw(st.permutations(terms))
    joiner = f"{draw(GAP)}{draw(cased('and'))}{draw(GAP)}"
    clause = joiner.join(terms)
    for _ in range(draw(st.integers(0, 2))):
        clause = f"({draw(TIGHT)}{clause}{draw(TIGHT)})"
    return clause


@st.composite
def statements(draw, tables=TABLES, columns=COLUMNS):
    """A valid ``SELECT count(*)`` statement, spelled the many ways the
    grammar allows, over ``tables`` (a join takes the first two) and
    ``columns``."""
    two = len(tables) > 1 and draw(st.booleans())
    tables = tables[:2] if two else tables[:1]
    joins = ([f"{tables[0]}.id = {tables[1]}.{tables[0]}_id"]
             if two and draw(st.booleans()) else [])
    words = [draw(cased("select")), draw(GAP), draw(cased("count")),
             draw(TIGHT), "(", draw(TIGHT), "*", draw(TIGHT), ")",
             draw(GAP), draw(cased("from")), draw(GAP),
             f"{draw(TIGHT)},{draw(TIGHT)}".join(tables)]
    if joins or draw(st.booleans()):
        words += [draw(GAP), draw(cased("where")), draw(GAP),
                  draw(where_clauses(tables, joins, columns))]
    if draw(st.booleans()):
        grouped = draw(st.lists(attributes(tables, columns), min_size=1,
                                max_size=2))
        words += [draw(GAP), draw(cased("group")), draw(GAP),
                  draw(cased("by")), draw(GAP),
                  f"{draw(TIGHT)},{draw(TIGHT)}".join(grouped)]
    words.append(draw(st.sampled_from(["", ";", " ;", ";\n", "  "])))
    return "".join(words)


#: Text spliced into a statement to break it: a raw '?', stray quotes
#: and signs, digits glued to words, a nested join, an unsupported LIKE.
SPLICES = st.sampled_from([
    "?", "-?", "'", ";", "(", ")", "-", "--5", "5", "-5", "5AND", "AND5",
    "1.2.3", ".5", "x-5", "?5", " OR t.id = u.t_id", " AND id = t_id",
    " LIKE '%a'", " AND A LIKE 'a%b'", "!", "=", " GROUP BY",
])


@st.composite
def broken(draw, tables=TABLES, columns=COLUMNS):
    """A valid statement cut short, spliced into or with a character
    removed."""
    sql = draw(statements(tables, columns))
    cut = draw(st.integers(0, len(sql)))
    action = draw(st.sampled_from(["truncate", "splice", "delete"]))
    if action == "truncate":
        return sql[:cut]
    if action == "delete":
        return sql[:cut] + sql[cut + 1:]
    return sql[:cut] + draw(SPLICES) + sql[cut:]


def outcome(parse, sql: str):
    """The parse, or the type of the ``ValueError`` it raised."""
    try:
        return parse(sql)
    except ValueError as exc:
        return type(exc)


def assert_same(sql: str) -> None:
    assert outcome(parser.parse_query, sql) \
        == outcome(oracle.parse_query, sql), repr(sql)


def assert_same_where(sql: str) -> None:
    assert outcome(parser.parse_where, sql) \
        == outcome(oracle.parse_where, sql), repr(sql)


def assert_template(sql: str) -> None:
    """A valid statement's template is the oracle's parse, templated."""
    expected = oracle.parse_query(sql)
    assert parser.parse_query(sql) == expected, repr(sql)
    key, literals = fingerprint_sql(sql)
    template = parse_template(key, len(literals))
    assert template == make_template(expected, literals), repr(sql)
    assert bind_template(template, literals) == expected, repr(sql)


class TestValidStatements:
    @seed(20261017)
    @given(statements())
    @settings(max_examples=150, deadline=None)
    def test_statements(self, sql):
        assert_template(sql)

    @seed(20261018)
    @given(where_clauses())
    @settings(max_examples=80, deadline=None)
    def test_where_clauses(self, sql):
        assert parser.parse_where(sql) == oracle.parse_where(sql), repr(sql)


class TestMalformedInput:
    @seed(20261019)
    @given(broken())
    @settings(max_examples=250, deadline=None)
    def test_broken_statements(self, sql):
        assert_same(sql)
        if isinstance(outcome(oracle.parse_query, sql), type):
            key, literals = fingerprint_sql(sql)
            with pytest.raises(ValueError):
                parse_template(key, len(literals))
        else:
            assert_template(sql)

    @seed(20261020)
    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        assert_same(text)
        assert_same_where(text)

    @seed(20261021)
    @given(st.text(alphabet="AB ()<>=!AND OR and or 0123456789.",
                   max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_sql_like_soup(self, soup):
        assert_same_where(soup)

    @seed(20261022)
    @given(st.lists(st.sampled_from(
        ["A", "B", ">", "<", "=", "<>", "AND", "OR", "(", ")", "5", "-3",
         "2.5", "?", "'a'", "t.id", "LIKE"]), min_size=1, max_size=25).map(
        " ".join))
    @settings(max_examples=200, deadline=None)
    def test_token_shuffles(self, text):
        assert_same_where(text)
        assert_same("SELECT count(*) FROM t WHERE " + text)

    @pytest.mark.parametrize("sql", [
        "SELECT count(*) FROM t WHERE A > ?",
        "SELECT count(*) FROM t WHERE A > 5 AND B < ?",
        "SELECT count(*) FROM t WHERE name = '?' AND A > 5",
        "SELECT count(*) FROM t WHERE name = 'it''s'",
        "SELECT count(*) FROM t WHERE name = 'open",
        "SELECT count(*) FROM t WHERE A > 5AND B < 3",
        "SELECT count(*) FROM t WHERE A > 5-3",
        "SELECT count(*) FROM t WHERE A > x-5",
        "SELECT count(*) FROM t WHERE n LIKE '%a' AND A = x-5",
        "SELECT count(*) FROM t WHERE n LIKE '%a' AND A = x--5",
        "SELECT count(*) FROM t WHERE n LIKE '%a' AND A = 5-5",
        "SELECT count(*) FROM t, u WHERE t.a = 1 OR t.id = u.id AND c = 5-3",
        "SELECT count(*) FROM t, u WHERE id = u_id AND (t.a = 1 OR t.b = u.c)",
        "SELECT count(*) FROM t, u WHERE (t.a = 1 OR t.b = u.c) AND id = u_id",
        "SELECT count(*) FROM t, u WHERE (t.id = u.t_id AND t.a > 1) AND "
        "u.b < 2",
        "SELECT count(*) FROM t, u WHERE t.id = u.t_id GROUP",
        "SELECT count(*) FROM t, t WHERE t.a > 1",
        "SELECT count(*) FROM t WHERE t.a = v.b",
        "SELECT count(*) FROM t WHERE A1.5 > 1.2.3",
        "SELECT count(*) FROM t WHERE A > -5;",
        "SELECT count(*) FROM t WHERE A > -5;;",
        "SELECT count(*) FROM t WHERE A = and",
        "select COUNT(*) from t where A != 3 group by A",
    ])
    def test_fixed_cases(self, sql):
        assert_same(sql)
