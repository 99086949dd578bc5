"""Reference SQL parser — the test oracle for :mod:`repro.sql.parser`.

``repro.sql.parser`` parses a statement's fingerprint key (numeric
literals masked as ``?``) in one tokenizer-and-descent pass.  This module
is the direct reading of the grammar that the differential suite
(``tests/sql/test_parser_differential.py``) compares it against: a
per-token ``_Token`` scan of the raw text, a recursive descent over the
tokens, and a walk of the finished expression for join predicates that
are not in the top-level conjunction.  On every input both parsers must
return equal queries or raise the same exception type.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.sql.ast import (
    And,
    BoolExpr,
    JoinPredicate,
    Op,
    Or,
    Query,
    SimplePredicate,
    StringPredicate,
    UnsupportedQueryError,
)
from repro.sql.parser import (
    SqlSyntaxError,
    _JoinMarker,
    _like_predicate,
    _qualified,
)

__all__ = ["parse_query", "parse_where"]

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<number>-?\d+(?:\.\d+)?)          # numeric literal
      | (?P<string>'[^']*')                  # single-quoted string literal
      | (?P<ident>[A-Za-z_][\w.]*)           # identifier (possibly qualified)
      | (?P<op><=|>=|<>|!=|=|<|>)            # comparison operator
      | (?P<punct>[(),*])                    # punctuation
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "count", "from", "where", "group", "by", "and", "or",
             "like"}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'ident' | 'keyword' | 'op' | 'punct'
    text: str


def _tokenize(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            if sql[pos:].strip() == ";":
                break
            if sql[pos].isspace():
                pos += 1
                continue
            raise SqlSyntaxError(f"unexpected character {sql[pos]!r} at offset {pos}")
        pos = match.end()
        kind = match.lastgroup
        text = match.group(kind)
        if kind == "ident" and text.lower() in _KEYWORDS:
            tokens.append(_Token("keyword", text.lower()))
        else:
            tokens.append(_Token(kind, text))
    return tokens


class _Parser:
    """Token-stream cursor with the grammar's productions as methods."""

    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlSyntaxError("unexpected end of input")
        self._index += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            expected = text if text is not None else kind
            raise SqlSyntaxError(f"expected {expected!r}, got {token.text!r}")
        return token

    def _accept(self, kind: str, text: str | None = None) -> bool:
        token = self._peek()
        if token is not None and token.kind == kind and (
                text is None or token.text == text):
            self._index += 1
            return True
        return False

    # --- productions -----------------------------------------------------

    def query(self) -> Query:
        self._expect("keyword", "select")
        self._expect("keyword", "count")
        self._expect("punct", "(")
        self._expect("punct", "*")
        self._expect("punct", ")")
        self._expect("keyword", "from")
        tables = [self._expect("ident").text]
        while self._accept("punct", ","):
            tables.append(self._expect("ident").text)

        where: BoolExpr | None = None
        joins: list[JoinPredicate] = []
        if self._accept("keyword", "where"):
            expr = self.or_expr()
            where, joins = _split_joins(expr)

        group_by: list[str] = []
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by.append(self._expect("ident").text)
            while self._accept("punct", ","):
                group_by.append(self._expect("ident").text)

        if self._peek() is not None:
            raise SqlSyntaxError(f"trailing input at {self._peek().text!r}")
        return Query(tables=tuple(tables), joins=tuple(joins),
                     where=where, group_by=tuple(group_by))

    def or_expr(self) -> BoolExpr:
        children = [self.and_expr()]
        while self._accept("keyword", "or"):
            children.append(self.and_expr())
        return children[0] if len(children) == 1 else Or(children)

    def and_expr(self) -> BoolExpr:
        children = [self.term()]
        while self._accept("keyword", "and"):
            children.append(self.term())
        return children[0] if len(children) == 1 else And(children)

    def term(self) -> BoolExpr:
        if self._accept("punct", "("):
            expr = self.or_expr()
            self._expect("punct", ")")
            return expr
        return self.comparison()

    def comparison(self) -> BoolExpr:
        left = self._next()
        if left.kind != "ident":
            raise SqlSyntaxError(f"expected attribute, got {left.text!r}")
        if self._accept("keyword", "like"):
            pattern_token = self._next()
            if pattern_token.kind != "string":
                raise SqlSyntaxError(
                    f"LIKE expects a quoted pattern, got {pattern_token.text!r}"
                )
            return _like_predicate(left.text, pattern_token.text[1:-1])
        op_token = self._expect("op")
        right = self._next()
        op = Op.from_symbol(op_token.text)
        if right.kind == "number":
            return SimplePredicate(left.text, op, float(right.text))
        if right.kind == "string":
            if op not in (Op.EQ, Op.NE):
                raise SqlSyntaxError(
                    f"string literals support = and <> only, got "
                    f"{op_token.text!r}"
                )
            return StringPredicate(left.text, op, right.text[1:-1])
        if right.kind == "ident":
            if op is not Op.EQ:
                raise SqlSyntaxError(
                    f"only equi-joins are supported, got {op_token.text!r} "
                    f"between {left.text!r} and {right.text!r}"
                )
            return _JoinMarker(left.text, right.text)
        raise SqlSyntaxError(f"expected literal or attribute, got {right.text!r}")


def _split_joins(expr: BoolExpr) -> tuple[BoolExpr | None, list[JoinPredicate]]:
    """Separate top-level join markers from the selection expression."""
    items = expr.children if isinstance(expr, And) else (expr,)
    joins: list[JoinPredicate] = []
    selections: list[BoolExpr] = []
    for item in items:
        if isinstance(item, _JoinMarker):
            left_table, left_col = _qualified(item.left)
            right_table, right_col = _qualified(item.right)
            joins.append(JoinPredicate(left_table, left_col,
                                       right_table, right_col))
        else:
            for marker in _find_markers(item):
                raise UnsupportedQueryError(
                    f"join predicate {marker.left} = {marker.right} must "
                    "appear in the top-level conjunction"
                )
            selections.append(item)
    if not selections:
        return None, joins
    where = selections[0] if len(selections) == 1 else And(selections)
    return where, joins


def _find_markers(expr: BoolExpr):
    if isinstance(expr, _JoinMarker):
        yield expr
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from _find_markers(child)


def parse_query(sql: str) -> Query:
    """Parse a full ``SELECT count(*)`` statement into a :class:`Query`."""
    return _Parser(_tokenize(sql)).query()


def parse_where(sql: str) -> BoolExpr:
    """Parse a bare WHERE-clause expression (no joins) into a boolean AST."""
    parser = _Parser(_tokenize(sql))
    expr = parser.or_expr()
    if parser._peek() is not None:
        raise SqlSyntaxError(f"trailing input at {parser._peek().text!r}")
    for marker in _find_markers(expr):
        raise UnsupportedQueryError(
            f"parse_where does not accept join predicates "
            f"({marker.left} = {marker.right})"
        )
    return expr
