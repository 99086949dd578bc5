"""A descent parser for ``SELECT count(*)`` queries.

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
comparisons cover everything else.  Parentheses nest at most
:data:`MAX_PAREN_DEPTH` levels deep.

**Parse once.**  :func:`fingerprint_sql` masks every numeric literal out
of the text as ``?``, in textual order; its key is the parser's input.
One tokenizer-and-descent pass over the key builds the query.  The
tokenizer classifies every token once, and a whole ``identifier op ?``
comparison is one token; the WHERE clause is read by one loop with an
explicit stack for its parentheses, which builds each such comparison's
:class:`~repro.sql.ast.SimplePredicate` without re-running its
validating constructor and every ``And``/``Or`` already flat.  Every
other read sees the plain token stream, so the grammar and its errors
are those of a textbook descent.  The descent is shared:

* :func:`parse_template` stamps slot index ``i`` into the ``i``-th
  ``?`` — the statement's *template*, which the serving layer plans
  once per fingerprint and encodes with each request's literals
  (:func:`bind_template` stamps them into the tree instead);
* :func:`parse_query` and :func:`parse_where` stamp the fingerprint's
  literals instead.

The descent builds ``And``/``Or`` children in textual order, so slot
order is walk order (:func:`~repro.sql.ast.iter_simple_predicates`): a
template is its own plan sentinel
(:meth:`repro.featurize.base.Featurizer.compile_plan`), and a request's
fingerprint literals are its walk-order literal row.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import product
from operator import itemgetter
from typing import Sequence

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
    "parse_query", "parse_where", "parse_template", "SqlSyntaxError",
    "fingerprint_sql", "make_template", "bind_template", "MAX_PAREN_DEPTH",
]

#: Deepest parenthesis nesting the parser accepts.  Every level costs
#: the descent three stack frames and every AST walker one or two, so
#: the bound keeps deeply nested text a syntax error instead of a
#: ``RecursionError``.
MAX_PAREN_DEPTH = 200


class SqlSyntaxError(ValueError):
    """Raised for malformed SQL input."""


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------
#
# Serving traffic is dominated by *parameterized* statements: the same
# SQL text with different numeric literals.  The fingerprint — the text
# with numeric literals masked out — names the statement; the serve
# layer caches each statement's compiled plan under it.

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
    by ``?``, string literals kept — they are part of a query's shape)
    and ``literals`` the masked values in textual order.  Works on any
    string; a malformed statement simply yields a key the parser
    rejects.
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


# ---------------------------------------------------------------------------
# The descent
# ---------------------------------------------------------------------------

# A fingerprint key holds no numbers, only ``?`` slots.  Each match is
# one token, classified by which groups are non-empty:
#
# * a whole ``identifier op ?`` comparison (the bulk of any WHERE
#   clause) fills the first three groups.  The lookahead leaves a
#   keyword-led one (``and = ?``) to the plain tokens, so its identifier
#   is never a keyword: ``(?i:...)`` folds a few non-ASCII letters too
#   (``lıke``), which the general comparison then reads as identifiers;
# * a word (identifier or keyword) fills ``_WORD``;
# * a slot, string literal, comparison operator or punctuation mark
#   fills ``_SYMBOL``.  ``-?`` is a slot with a sign glued to the word
#   before it (``x-5``): never valid, but a number to the grammar, so it
#   fails where a number would;
# * anything else fills ``_OTHER``.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?!(?i:select|count|from|where|group|by|and|or|like)(?![\w.]))
        ([A-Za-z_][\w.]*)\s*(<=|>=|<>|!=|=|<|>)\s*(-?\?)
      | ([A-Za-z_][\w.]*)
      | (-?\?|'[^']*'|<=|>=|<>|!=|=|<|>|[(),*])
      | (\S)
    )
    """,
    re.VERBOSE,
)
_ATTRIBUTE, _OPERATOR, _CMP_SLOT, _WORD, _SYMBOL, _OTHER = range(6)
_other_of = itemgetter(_OTHER)

#: Past the last token: matches no kind.
_END = ("",) * 6

_KEYWORDS = frozenset({"select", "count", "from", "where", "group", "by",
                       "and", "or", "like"})
#: Every spelling ``str.lower`` reads as AND or OR (no non-ASCII letter
#: lowers to one of theirs).
_AND = frozenset(map("".join, product("aA", "nN", "dD")))
_OR = frozenset(map("".join, product("oO", "rR")))
_SLOTS = ("?", "-?")
_OP_OF = {symbol: Op.from_symbol(symbol)
          for symbol in ("=", "<>", "!=", "<", "<=", ">", ">=")}

_new = object.__new__
_set = object.__setattr__


def _text(token: tuple[str, ...]) -> str:
    """A token as the error messages quote it: a whole comparison by its
    identifier, the token the plain stream would hold there."""
    return token[_ATTRIBUTE] or "".join(token)


def _split(token: tuple[str, ...]) -> list[tuple[str, ...]]:
    """A whole comparison token as its identifier, operator and slot."""
    return [("", "", "", token[_ATTRIBUTE], "", ""),
            ("", "", "", "", token[_OPERATOR], ""),
            ("", "", "", "", token[_CMP_SLOT], "")]


def _node(cls: type, children: list) -> BoolExpr:
    """``cls(children)`` of flat children, or the one child.

    The descent flattens as it goes, so the node is built through
    ``object.__new__``, as :func:`bind_template` builds, without the
    constructor's flattening pass."""
    if len(children) == 1:
        return children[0]
    node = _new(cls)
    _set(node, "children", tuple(children))
    return node


def _add_disjunct(disjuncts: list, conjuncts: list) -> None:
    """Close the AND group ``conjuncts`` into the OR's ``disjuncts``; a
    parenthesized disjunction that is a whole group joins them flat."""
    node = _node(And, conjuncts)
    if type(node) is Or:
        disjuncts.extend(node.children)
    else:
        disjuncts.append(node)


class _KeyParser:
    """The grammar over one fingerprint key's tokens.

    The whole key is tokenized and checked before the descent starts: a
    character outside the grammar, a ``?`` of the text itself (the key
    then has more slots than ``values``) and a ``-?`` slot whose literal
    is negative are errors wherever they stand.  Each ``?`` slot the
    descent consumes takes the next of ``values``.  Join predicates are
    collected in textual order as the descent meets them, so splitting
    them off needs no walk of the finished tree.

    A WHERE clause is read by one loop (:meth:`_expression`) that builds
    a whole-comparison token's predicate directly.  Every other read
    goes through :meth:`_take`, which first splits a whole comparison
    into the plain tokens it stands for, so anywhere but a term's start
    the descent sees exactly the plain token stream.
    """

    def __init__(self, key: str, values: Sequence[float]) -> None:
        tokens = _TOKEN_RE.findall(key)
        if tokens and tokens[-1][_OTHER] == ";":
            tokens.pop()  # one trailing semicolon is tolerated
        for token in filter(_other_of, tokens):
            raise SqlSyntaxError(
                f"unexpected character {token[_OTHER]!r}")
        # A string literal may hold a '?', so the slots are read off
        # the tokens.
        slots = [token[_CMP_SLOT] or token[_SYMBOL] for token in tokens
                 if token[_CMP_SLOT] or token[_SYMBOL] in _SLOTS]
        if len(slots) != len(values):
            # The fingerprint masks each literal as one slot, so any
            # other slot is a '?' of the SQL text itself.
            raise SqlSyntaxError(
                f"unexpected character '?' ({len(slots)} slots for "
                f"{len(values)} literals)")
        if "-?" in slots:
            # 'x--5' masks '-5' and leaves a '-' no token starts with.
            for slot, value in zip(slots, values):
                if slot == "-?" and math.copysign(1.0, value) < 0.0:
                    raise SqlSyntaxError("unexpected character '-'")
        tokens.append(_END)
        self._tokens = tokens
        self._pos = 0
        self._next_value = iter(values).__next__
        self._markers: list[_JoinMarker] = []

    # --- cursor ----------------------------------------------------------

    def _take(self) -> tuple[str, ...]:
        pos = self._pos
        token = self._tokens[pos]
        if token is _END:
            raise SqlSyntaxError("unexpected end of input")
        if token[_ATTRIBUTE]:
            self._tokens[pos:pos + 1] = _split(token)
            token = self._tokens[pos]
        self._pos = pos + 1
        return token

    def _accept(self, kind: int, text: str) -> bool:
        """Consume the next token if it is ``text`` (a keyword or a
        punctuation mark) of group ``kind``."""
        if self._tokens[self._pos][kind].lower() == text:
            self._pos += 1
            return True
        return False

    def _expect(self, kind: int, text: str) -> None:
        token = self._take()
        if token[kind].lower() != text:
            raise SqlSyntaxError(f"expected {text!r}, got {_text(token)!r}")

    def _identifier(self, what: str = "identifier") -> str:
        token = self._take()
        word = token[_WORD]
        if not word or word.lower() in _KEYWORDS:
            raise SqlSyntaxError(f"expected {what}, got {_text(token)!r}")
        return word

    def _end(self) -> None:
        token = self._tokens[self._pos]
        if token is not _END:
            raise SqlSyntaxError(f"trailing input at {_text(token)!r}")

    # --- productions -----------------------------------------------------

    def query(self) -> Query:
        self._expect(_WORD, "select")
        self._expect(_WORD, "count")
        self._expect(_SYMBOL, "(")
        self._expect(_SYMBOL, "*")
        self._expect(_SYMBOL, ")")
        self._expect(_WORD, "from")
        tables = [self._identifier()]
        while self._accept(_SYMBOL, ","):
            tables.append(self._identifier())

        where: BoolExpr | None = None
        joins: list[JoinPredicate] = []
        if self._accept(_WORD, "where"):
            where, joins = self._split_joins(self._expression())

        group_by: list[str] = []
        if self._accept(_WORD, "group"):
            self._expect(_WORD, "by")
            group_by.append(self._identifier())
            while self._accept(_SYMBOL, ","):
                group_by.append(self._identifier())

        self._end()
        return Query(tables=tuple(tables), joins=tuple(joins),
                     where=where, group_by=tuple(group_by))

    def where(self) -> BoolExpr:
        """A bare WHERE expression: no join predicates, nothing after."""
        expr = self._expression()
        self._end()
        for marker in self._markers:
            raise UnsupportedQueryError(
                f"parse_where does not accept join predicates "
                f"({marker.left} = {marker.right})"
            )
        return expr

    def _expression(self) -> BoolExpr:
        """``or_expr := and_expr (OR and_expr)*`` with ``and_expr := term
        (AND term)*`` and ``term := '(' or_expr ')' | comparison``, in
        one loop.

        ``conjuncts`` are the terms of the open AND group, ``disjuncts``
        the closed groups of the open OR, and ``stack`` each open
        parenthesis's enclosing pair.  Children are built flat, as the
        ``And``/``Or`` constructors would flatten them.
        """
        tokens = self._tokens
        next_value = self._next_value
        stack: list[tuple[list, list]] = []
        disjuncts: list[BoolExpr] = []
        conjuncts: list[BoolExpr] = []
        pos = self._pos
        while True:
            token = tokens[pos]
            attribute = token[_ATTRIBUTE]
            if attribute:
                predicate = _new(SimplePredicate)
                _set(predicate, "__dict__", {
                    "attribute": attribute,
                    "op": _OP_OF[token[_OPERATOR]],
                    "value": next_value()})
                conjuncts.append(predicate)
                pos += 1
            elif token[_SYMBOL] == "(":
                if len(stack) == MAX_PAREN_DEPTH:
                    raise SqlSyntaxError(
                        f"parentheses nest deeper than {MAX_PAREN_DEPTH} "
                        "levels")
                stack.append((disjuncts, conjuncts))
                disjuncts = []
                conjuncts = []
                pos += 1
                continue
            else:
                self._pos = pos
                conjuncts.append(self._comparison())
                pos = self._pos
            # After a term: AND, OR, or the end of parenthesized groups.
            while True:
                token = tokens[pos]
                word = token[_WORD]
                if word in _AND:
                    break
                if word in _OR:
                    _add_disjunct(disjuncts, conjuncts)
                    conjuncts = []
                    break
                if not stack or token[_SYMBOL] != ")":
                    self._pos = pos
                    if stack:
                        self._expect(_SYMBOL, ")")  # raises
                    if not disjuncts:
                        return _node(And, conjuncts)
                    _add_disjunct(disjuncts, conjuncts)
                    return _node(Or, disjuncts)
                inner = disjuncts
                disjuncts, outer = stack.pop()
                if inner:
                    _add_disjunct(inner, conjuncts)
                    outer.append(_node(Or, inner))
                else:
                    outer.extend(conjuncts)
                conjuncts = outer
                pos += 1
            pos += 1

    def _comparison(self) -> BoolExpr:
        """A term that is not a whole ``identifier op ?`` token: a string,
        ``LIKE`` or join predicate, a comparison whose identifier the
        token's lookahead took for a keyword (``lıke = ?``), or an
        error."""
        attribute = self._identifier("attribute")
        if self._accept(_WORD, "like"):
            token = self._take()
            if token[_SYMBOL][:1] != "'":
                raise SqlSyntaxError(
                    f"LIKE expects a quoted pattern, got {_text(token)!r}")
            return _like_predicate(attribute, token[_SYMBOL][1:-1])
        token = self._take()
        op = _OP_OF.get(token[_SYMBOL])
        if op is None:
            raise SqlSyntaxError(f"expected 'op', got {_text(token)!r}")
        operand = self._take()
        symbol = operand[_SYMBOL]
        if symbol in _SLOTS:
            return SimplePredicate(attribute, op, self._next_value())
        if symbol[:1] == "'":
            if op is not Op.EQ and op is not Op.NE:
                raise SqlSyntaxError(
                    f"string literals support = and <> only, got "
                    f"{token[_SYMBOL]!r}"
                )
            return StringPredicate(attribute, op, symbol[1:-1])
        word = operand[_WORD]
        if word and word.lower() not in _KEYWORDS:
            if op is not Op.EQ:
                raise SqlSyntaxError(
                    f"only equi-joins are supported, got {token[_SYMBOL]!r} "
                    f"between {attribute!r} and {word!r}"
                )
            marker = _JoinMarker(attribute, word)
            self._markers.append(marker)
            return marker
        raise SqlSyntaxError(
            f"expected literal or attribute, got {_text(operand)!r}")

    def _split_joins(self, expr: BoolExpr
                     ) -> tuple[BoolExpr | None, list[JoinPredicate]]:
        """Separate the top-level join markers from the selection.

        A marker is top-level iff it is a child of the WHERE clause's
        conjunction (or the clause itself).  The first marker in textual
        order that is nested or unqualified decides the error.
        """
        if not self._markers:
            return expr, []
        items = expr.children if isinstance(expr, And) else (expr,)
        top = {id(item) for item in items if isinstance(item, _JoinMarker)}
        joins: list[JoinPredicate] = []
        for marker in self._markers:
            if id(marker) not in top:
                raise UnsupportedQueryError(
                    f"join predicate {marker.left} = {marker.right} must "
                    "appear in the top-level conjunction"
                )
            left_table, left_col = _qualified(marker.left)
            right_table, right_col = _qualified(marker.right)
            joins.append(JoinPredicate(left_table, left_col,
                                       right_table, right_col))
        selections = [item for item in items
                      if not isinstance(item, _JoinMarker)]
        if not selections:
            return None, joins
        where = selections[0] if len(selections) == 1 else And(selections)
        return where, joins


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


def parse_template(key: str, n_literals: int) -> Query:
    """Parse a fingerprint key into its statement's template.

    ``key`` and ``n_literals`` are :func:`fingerprint_sql`'s key and
    literal count.  The template is the query whose ``i``-th ``?`` slot,
    in textual order, holds the value ``float(i)``:
    ``bind_template(parse_template(key, len(literals)), literals)``
    equals ``parse_query`` of the statement.  Malformed text raises the
    parser's ``ValueError`` family, as in :func:`parse_query`; a ``?``
    of the text itself is a :class:`SqlSyntaxError`, since the key then
    has more slots than ``n_literals``.
    """
    return _KeyParser(key, list(map(float, range(n_literals)))).query()


def parse_query(sql: str) -> Query:
    """Parse a full ``SELECT count(*)`` statement into a :class:`Query`."""
    key, literals = fingerprint_sql(sql)
    return _KeyParser(key, literals).query()


def parse_where(sql: str) -> BoolExpr:
    """Parse a bare WHERE-clause expression (no joins) into a boolean AST."""
    key, literals = fingerprint_sql(sql)
    return _KeyParser(key, literals).where()


# ---------------------------------------------------------------------------
# Templates of parsed queries
# ---------------------------------------------------------------------------


def make_template(query: Query, literals: tuple[float, ...]) -> Query | None:
    """Freeze a parsed query into a re-bindable template, or ``None``.

    The template is ``query`` with every numeric predicate literal
    replaced by its walk-order index — what :func:`parse_template`
    builds straight from the statement's fingerprint key — so
    :func:`bind_template` can stamp a new instance's literals in
    without re-parsing.  Builds are self-checking: re-binding the
    template with ``literals`` must reproduce ``query`` exactly,
    otherwise ``None`` is returned.  Serves callers that hold a query
    rather than its text, e.g. tests planning a hand-built expression.
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
    """Instantiate a template with fresh literals.

    ``template`` comes from :func:`parse_template` or
    :func:`make_template`; slot ``i`` takes ``literals[i]``.  Nodes are
    rebuilt through ``object.__new__`` instead of their constructors:
    the template's structure already passed construction-time
    validation and ``And``/``Or`` flattening when it was parsed.
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
