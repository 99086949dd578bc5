"""A recursive-descent parser for ``SELECT count(*)`` queries.

Grammar (case-insensitive keywords)::

    query      := SELECT COUNT '(' '*' ')' FROM table_list
                  [WHERE or_expr] [GROUP BY column_list]
    table_list := identifier (',' identifier)*
    or_expr    := and_expr (OR and_expr)*
    and_expr   := term (AND term)*
    term       := '(' or_expr ')' | comparison
    comparison := identifier op operand
                | identifier LIKE string
    op         := '=' | '<>' | '!=' | '<' | '<=' | '>' | '>='
    operand    := identifier | number | string

A comparison between two identifiers is an equi-join predicate; join
predicates may only appear in the top-level conjunction (like the paper's
queries).  String literals are single-quoted and allowed with ``=``/``<>``
and ``LIKE 'prefix%'`` (dictionary-encoded columns, Section 6); numeric
comparisons cover everything else.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from repro.sql.ast import (
    And,
    BoolExpr,
    JoinPredicate,
    LikePredicate,
    Op,
    Or,
    Query,
    SimplePredicate,
    StringPredicate,
    UnsupportedQueryError,
)

__all__ = [
    "parse_query", "parse_where", "SqlSyntaxError",
    "fingerprint_sql", "make_template", "bind_template",
]


class SqlSyntaxError(ValueError):
    """Raised for malformed SQL input."""


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


def _like_predicate(attribute: str, pattern: str) -> BoolExpr:
    """Translate a LIKE pattern into the AST (prefix patterns only).

    ``'abc%'`` becomes a :class:`LikePredicate`; a pattern without any
    wildcard is plain string equality.  Other wildcard placements are
    outside the paper's Section 6 scope and rejected.
    """
    if "%" not in pattern:
        return StringPredicate(attribute, Op.EQ, pattern)
    if pattern.endswith("%") and "%" not in pattern[:-1]:
        return LikePredicate(attribute, pattern[:-1])
    raise UnsupportedQueryError(
        f"only prefix patterns ('abc%') are supported, got {pattern!r}"
    )


@dataclass(frozen=True)
class _JoinMarker:
    """Internal placeholder for a column-to-column equality in the AST."""

    left: str
    right: str

    def to_sql(self) -> str:  # pragma: no cover - debug aid
        return f"{self.left} = {self.right}"


def _qualified(name: str) -> tuple[str, str]:
    table, dot, column = name.partition(".")
    if not dot:
        raise SqlSyntaxError(
            f"join attribute {name!r} must be qualified as table.column"
        )
    return table, column


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


# ---------------------------------------------------------------------------
# Prepared-statement templates
# ---------------------------------------------------------------------------
#
# Serving traffic is dominated by *parameterized* statements: the same
# SQL text with different numeric literals.  Re-running the full
# tokenizer + recursive descent for every instance wastes most of the
# request budget, so the serve layer caches parses per *fingerprint* —
# the SQL text with numeric literals masked out — together with each
# statement's compiled plan, and re-binds the cached AST with an
# instance's literals wherever an AST is still needed.

# One capture group around a string literal (kept verbatim, so numbers
# inside quotes are never masked) or a standalone numeric literal:
# ``split`` then yields text and literal tokens alternately in a single
# scan.  The lookbehind keeps digits inside identifiers like ``attr_3``
# or ``t1.col`` intact; in this grammar every standalone number is a
# predicate literal.  The leading lookahead only skips positions that
# cannot start either alternative, cheaply.
_LITERAL_SPLIT_RE = re.compile(
    r"((?=[-\d'])(?:'[^']*'|(?<![\w.])-?\d+(?:\.\d+)?))")


def fingerprint_sql(sql: str) -> tuple[str, tuple[float, ...]]:
    """Mask numeric literals out of ``sql``; return ``(key, literals)``.

    ``key`` is the statement's template fingerprint (literals replaced
    by ``?``, string literals kept — they are part of a query's shape,
    exactly as in :func:`repro.featurize.batch.query_shape`) and
    ``literals`` the masked values in textual order.  Works on any
    string; a malformed statement simply yields a fingerprint no valid
    template will ever be cached under.
    """
    parts = _LITERAL_SPLIT_RE.split(sql)
    if "'" not in sql:
        # Every odd part is a number: join and convert without a
        # per-token python branch.
        return "?".join(parts[::2]), tuple(map(float, parts[1::2]))
    values: list[float] = []
    for index in range(1, len(parts), 2):
        token = parts[index]
        if token[0] != "'":
            values.append(float(token))
            parts[index] = "?"
    return "".join(parts), tuple(values)


def make_template(query: Query, literals: tuple[float, ...]) -> Query | None:
    """Freeze a parsed query into a re-bindable template, or ``None``.

    The template is ``query`` with every numeric predicate literal
    replaced by its textual index, so :func:`bind_template` can stamp a
    new instance's literals in without re-parsing.  Builds are
    self-checking: re-binding the template with the original
    ``literals`` (as collected by :func:`fingerprint_sql`) must
    reproduce ``query`` exactly, otherwise the statement is declared
    uncacheable and ``None`` is returned — callers then simply parse
    every instance.  The check makes the cache robust by construction:
    a template only exists if rebinding provably round-trips.
    """
    counter = [0]

    def rebuild(node: BoolExpr) -> BoolExpr:
        if isinstance(node, SimplePredicate):
            index = counter[0]
            counter[0] += 1
            return SimplePredicate(node.attribute, node.op, float(index))
        if isinstance(node, And):
            return And([rebuild(c) for c in node.children])
        if isinstance(node, Or):
            return Or([rebuild(c) for c in node.children])
        return node

    if query.where is None:
        template = query
    else:
        template = replace(query, where=rebuild(query.where))
    if counter[0] != len(literals):
        return None
    if bind_template(template, literals) != query:
        return None
    return template


def bind_template(template: Query, literals: tuple[float, ...]) -> Query:
    """Instantiate a :func:`make_template` query with fresh literals.

    This is the per-request leg of the template cache, so nodes are
    rebuilt through ``object.__new__`` instead of their constructors:
    the template's structure already passed construction-time
    validation and ``And``/``Or`` flattening when it was parsed, and
    :func:`make_template`'s round-trip self-check exercises exactly
    this fast path before any template is ever cached.
    """

    def rebuild(node: BoolExpr) -> BoolExpr:
        cls = type(node)
        if cls is SimplePredicate:
            bound = object.__new__(SimplePredicate)
            object.__setattr__(bound, "attribute", node.attribute)
            object.__setattr__(bound, "op", node.op)
            object.__setattr__(bound, "value", literals[int(node.value)])
            return bound
        if cls is And or cls is Or:
            bound = object.__new__(cls)
            object.__setattr__(
                bound, "children",
                tuple(rebuild(child) for child in node.children))
            return bound
        return node

    if template.where is None:
        return template
    return replace(template, where=rebuild(template.where))


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
