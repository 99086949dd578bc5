"""Query representation.

The central types are:

* :class:`SimplePredicate` — ``attribute op literal`` with
  ``op in {=, <>, <, <=, >, >=}`` (the paper's "simple predicate").
* :class:`And` / :class:`Or` — boolean combinations of predicates.
* :class:`Query` — a ``SELECT count(*)`` query: tables, equi-join
  predicates, a selection expression, and an optional GROUP BY list.

The AST supports arbitrary nesting.  The paper's *Limited Disjunction
Encoding* however only handles **mixed queries** (Definition 3.3): a
conjunction of per-attribute *compound predicates*, where each compound
predicate combines arbitrarily many simple predicates **on one attribute**
with AND/OR.  :func:`Query.compound_form` normalises a query into that
shape — a mapping ``attribute -> disjunction of conjunctions`` — and
raises :class:`UnsupportedQueryError` when the query falls outside the
class, which is exactly the contract the paper's Algorithm 2 assumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator, Mapping, Union

__all__ = [
    "Op",
    "SimplePredicate",
    "StringPredicate",
    "LikePredicate",
    "LEAF_TYPES",
    "iter_predicates",
    "And",
    "Or",
    "BoolExpr",
    "JoinPredicate",
    "Query",
    "CompoundForm",
    "MAX_COMPOUND_BRANCHES",
    "UnsupportedQueryError",
    "attributes_of",
    "is_conjunctive",
    "iter_simple_predicates",
    "shape_sql",
    "to_compound_form",
]


class UnsupportedQueryError(ValueError):
    """Raised when a query falls outside the class a component supports."""


class Op(enum.Enum):
    """Comparison operators of simple predicates."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    @classmethod
    def from_symbol(cls, symbol: str) -> "Op":
        """Parse an operator symbol, accepting ``!=`` as alias for ``<>``."""
        try:
            return _OP_BY_SYMBOL[symbol]
        except KeyError:
            raise ValueError(
                f"unknown comparison operator {symbol!r}") from None

    def __str__(self) -> str:
        return self.value


_OP_BY_SYMBOL = {**{op.value: op for op in Op}, "!=": Op.NE}


@dataclass(frozen=True)
class SimplePredicate:
    """A comparison of one attribute against one literal."""

    attribute: str
    op: Op
    value: float

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("predicate attribute must be non-empty")
        if not isinstance(self.op, Op):
            raise TypeError(f"op must be an Op, got {type(self.op).__name__}")

    def to_sql(self) -> str:
        """Render as a SQL fragment, e.g. ``A7 >= 160``.

        Literals are positional decimals, the only number form the
        parser reads: ``repr``'s shortest digits, except that where
        ``repr`` would use an exponent (below 1e-4) the same digits are
        written out positionally, so ``1.25e-05`` renders ``0.0000125``.
        """
        value = float(self.value)
        if value.is_integer():
            literal = str(int(value))
        else:
            literal = repr(value)
            if "e" in literal:
                # Imported here: only this rare branch needs it, and a
                # module-level import would cost every server process
                # about 0.3 MB.
                import decimal

                literal = format(decimal.Decimal(literal), "f")
        return f"{self.attribute} {self.op} {literal}"

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class StringPredicate:
    """Equality/inequality of a dictionary-encoded string column.

    String leaves must be *desugared* into numeric code predicates
    (:func:`repro.sql.strings.desugar_strings`) before featurization;
    the executor desugars on the fly since it holds the dictionaries.
    """

    attribute: str
    op: Op
    value: str

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("predicate attribute must be non-empty")
        if self.op not in (Op.EQ, Op.NE):
            raise ValueError(
                f"string predicates support = and <> only, got {self.op}"
            )
        if "'" in self.value:
            raise ValueError("string literals may not contain quotes")

    def to_sql(self) -> str:
        """Render as a SQL fragment, e.g. ``name = 'spam'``."""
        return f"{self.attribute} {self.op} '{self.value}'"

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class LikePredicate:
    """A prefix pattern predicate ``attribute LIKE 'prefix%'``.

    Only prefix patterns are supported — exactly the class the paper's
    Section 6 shows Universal Conjunction Encoding handles naturally
    (the sorted dictionary makes a prefix a contiguous code range).
    """

    attribute: str
    prefix: str

    def __post_init__(self) -> None:
        if not self.attribute:
            raise ValueError("predicate attribute must be non-empty")
        if "%" in self.prefix or "'" in self.prefix:
            raise ValueError(
                "LikePredicate stores the bare prefix (no wildcards/quotes); "
                f"got {self.prefix!r}"
            )

    def to_sql(self) -> str:
        """Render as a SQL fragment, e.g. ``name LIKE 'spa%'``."""
        return f"{self.attribute} LIKE '{self.prefix}%'"

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class And:
    """Conjunction of boolean expressions (flattened, at least one child)."""

    children: tuple["BoolExpr", ...]

    def __init__(self, children) -> None:
        flattened: list[BoolExpr] = []
        for child in children:
            if isinstance(child, And):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        if not flattened:
            raise ValueError("And requires at least one child")
        object.__setattr__(self, "children", tuple(flattened))

    def to_sql(self) -> str:
        """Render as SQL, parenthesising nested disjunctions."""
        parts = [f"({c.to_sql()})" if isinstance(c, Or) else c.to_sql()
                 for c in self.children]
        return " AND ".join(parts)

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class Or:
    """Disjunction of boolean expressions (flattened, at least one child)."""

    children: tuple["BoolExpr", ...]

    def __init__(self, children) -> None:
        flattened: list[BoolExpr] = []
        for child in children:
            if isinstance(child, Or):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        if not flattened:
            raise ValueError("Or requires at least one child")
        object.__setattr__(self, "children", tuple(flattened))

    def to_sql(self) -> str:
        """Render as SQL (OR binds loosest, so no parentheses needed)."""
        return " OR ".join(c.to_sql() for c in self.children)

    def __str__(self) -> str:
        return self.to_sql()


BoolExpr = Union[SimplePredicate, "StringPredicate", "LikePredicate", And, Or]


#: Leaf node types a boolean expression may contain.
LEAF_TYPES = (SimplePredicate, StringPredicate, LikePredicate)


def iter_predicates(expr: BoolExpr) -> Iterator:
    """Yield every leaf predicate (simple, string, or LIKE) in ``expr``."""
    if isinstance(expr, LEAF_TYPES):
        yield expr
    elif isinstance(expr, (And, Or)):
        for child in expr.children:
            yield from iter_predicates(child)
    else:
        raise TypeError(f"not a boolean expression: {type(expr).__name__}")


def iter_simple_predicates(expr: BoolExpr) -> Iterator[SimplePredicate]:
    """Yield every simple (numeric) predicate in ``expr`` (left-to-right).

    String leaves are rejected: numeric consumers (featurizers, the
    compound-form decomposition used by Algorithm 2) require queries to
    be desugared first via :func:`repro.sql.strings.desugar_strings`.
    """
    for pred in iter_predicates(expr):
        if not isinstance(pred, SimplePredicate):
            raise _not_desugared(pred)
        yield pred


def _not_desugared(pred: BoolExpr) -> UnsupportedQueryError:
    return UnsupportedQueryError(
        f"string predicate {pred.to_sql()!r} must be desugared to "
        "numeric code predicates first (repro.sql.strings.desugar_strings)"
    )


def attributes_of(expr: BoolExpr) -> tuple[str, ...]:
    """Distinct attributes referenced by ``expr``, in first-seen order."""
    seen: dict[str, None] = {}
    for pred in iter_predicates(expr):
        seen.setdefault(pred.attribute, None)
    return tuple(seen)


def shape_sql(expr: BoolExpr) -> str:
    """Render ``expr`` as SQL with each numeric literal written ``?``.

    Every instance of a statement renders alike, so an error message
    that quotes an expression this way depends on the statement's
    AND/OR shape alone, never on its literals.
    """
    if isinstance(expr, SimplePredicate):
        return f"{expr.attribute} {expr.op} ?"
    if isinstance(expr, And):
        return " AND ".join(f"({shape_sql(c)})" if isinstance(c, Or)
                            else shape_sql(c) for c in expr.children)
    if isinstance(expr, Or):
        return " OR ".join(shape_sql(c) for c in expr.children)
    return expr.to_sql()


def is_conjunctive(expr: BoolExpr) -> bool:
    """True iff ``expr`` contains no disjunction."""
    if isinstance(expr, LEAF_TYPES):
        return True
    if isinstance(expr, Or):
        return False
    return all(is_conjunctive(child) for child in expr.children)


#: A compound predicate in disjunctive form: a disjunction (outer tuple) of
#: conjunctions (inner tuples) of simple predicates, all on one attribute.
CompoundForm = Mapping[str, tuple[tuple[SimplePredicate, ...], ...]]


#: Most disjunction branches a compound predicate's disjunctive form may
#: have.  Distributing AND over OR multiplies branch counts, so a short
#: compound can expand exponentially (k ANDed two-way ORs give 2**k
#: branches); the paper's generator uses at most three.
MAX_COMPOUND_BRANCHES = 256


def _too_many_branches(count: int) -> UnsupportedQueryError:
    return UnsupportedQueryError(
        f"compound predicate expands to at least {count} disjunction "
        f"branches; at most {MAX_COMPOUND_BRANCHES} are supported"
    )


#: A disjunctive form, the error building it raises, or ``None`` for a
#: term known to reference two attributes, which is refused whatever
#: its form.  Forms are built term by term but an error is raised only
#: once every term is known to reference one attribute: a
#: multi-attribute term wins.
_Form = Union[tuple[tuple[SimplePredicate, ...], ...], UnsupportedQueryError,
              None]


def _conjoin(forms: list[_Form]) -> _Form:
    """The AND of ``forms``: the cross product of their branches, in
    order, each branch one branch of every form joined.  The product is
    counted before it is built."""
    count = 1
    for form in forms:
        if isinstance(form, UnsupportedQueryError):
            return form
        count *= len(form)
        if count > MAX_COMPOUND_BRANCHES:
            return _too_many_branches(count)
    return tuple(map(tuple, map(chain.from_iterable, product(*forms))))


def _disjoin(forms: list[_Form]) -> _Form:
    """The OR of ``forms``: their branches, in order, counted before
    they are joined."""
    for form in forms:
        if isinstance(form, UnsupportedQueryError):
            return form
    count = sum(map(len, forms))
    if count > MAX_COMPOUND_BRANCHES:
        return _too_many_branches(count)
    return tuple(chain.from_iterable(forms))


def _walk(expr: BoolExpr, attributes: dict[str, None]) -> _Form:
    """``expr``'s disjunctive form; adds its attributes to ``attributes``
    in first-seen order.  Visits every leaf, but combines no forms once
    ``attributes`` holds a second name."""
    if isinstance(expr, SimplePredicate):
        attributes[expr.attribute] = None
        return ((expr,),)
    if isinstance(expr, LEAF_TYPES):
        attributes[expr.attribute] = None
        return _not_desugared(expr)
    if isinstance(expr, (And, Or)):
        forms = [_walk(child, attributes) for child in expr.children]
        if len(attributes) > 1:
            return None
        return _disjoin(forms) if isinstance(expr, Or) else _conjoin(forms)
    raise TypeError(f"not a boolean expression: {type(expr).__name__}")


def to_compound_form(expr: BoolExpr) -> dict[str, tuple[tuple[SimplePredicate, ...], ...]]:
    """Normalise ``expr`` into the paper's mixed-query form (Def. 3.3).

    Returns a mapping from attribute to its compound predicate in
    disjunctive form.  Raises :class:`UnsupportedQueryError` when the
    expression is not a conjunction of single-attribute compounds — e.g.
    when a disjunction spans two different attributes — when it holds a
    string predicate not yet desugared, or when a compound's disjunctive
    form would exceed :data:`MAX_COMPOUND_BRANCHES` branches.  A
    multi-attribute term is reported first; otherwise the compounds are
    built in first-seen attribute order, each the AND of its terms.
    """
    top_level = expr.children if isinstance(expr, And) else (expr,)
    terms: dict[str, list[_Form]] = {}
    for item in top_level:
        attributes: dict[str, None] = {}
        form = _walk(item, attributes)
        if len(attributes) != 1:
            raise UnsupportedQueryError(
                "not a mixed query (Definition 3.3): the term "
                f"{shape_sql(item)!r} references attributes "
                f"{list(attributes)}; compound predicates must reference "
                "exactly one attribute"
            )
        terms.setdefault(next(iter(attributes)), []).append(form)
    compounds = {}
    for attribute, forms in terms.items():
        form = forms[0] if len(forms) == 1 else _conjoin(forms)
        if isinstance(form, UnsupportedQueryError):
            raise form
        compounds[attribute] = form
    return compounds


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def to_sql(self) -> str:
        """Render as a SQL equi-join fragment."""
        return (f"{self.left_table}.{self.left_column} = "
                f"{self.right_table}.{self.right_column}")

    def __str__(self) -> str:
        return self.to_sql()


@dataclass(frozen=True)
class Query:
    """A ``SELECT count(*)`` query.

    ``tables`` lists the referenced tables; ``joins`` are the equi-join
    predicates among them; ``where`` is the selection expression (``None``
    means no selection); ``group_by`` lists grouping attributes (used only
    by the Section 6 GROUP BY featurization extension).
    """

    tables: tuple[str, ...]
    joins: tuple[JoinPredicate, ...] = ()
    where: BoolExpr | None = None
    group_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("a query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError(f"duplicate tables in query: {self.tables}")
        referenced = set(self.tables)
        for join in self.joins:
            for table in (join.left_table, join.right_table):
                if table not in referenced:
                    raise ValueError(
                        f"join {join} references table {table!r} missing "
                        f"from the FROM list {self.tables}"
                    )

    @classmethod
    def single_table(cls, table: str, where: BoolExpr | None = None,
                     group_by: tuple[str, ...] = ()) -> "Query":
        """Convenience constructor for single-table queries."""
        return cls(tables=(table,), where=where, group_by=group_by)

    @property
    def predicates(self) -> tuple[SimplePredicate, ...]:
        """All simple predicates in the WHERE clause."""
        if self.where is None:
            return ()
        return tuple(iter_simple_predicates(self.where))

    @property
    def attributes(self) -> tuple[str, ...]:
        """Distinct attributes with at least one predicate."""
        if self.where is None:
            return ()
        return attributes_of(self.where)

    def is_conjunctive(self) -> bool:
        """True iff the WHERE clause contains no OR."""
        return self.where is None or is_conjunctive(self.where)

    def compound_form(self) -> dict[str, tuple[tuple[SimplePredicate, ...], ...]]:
        """Normalise the WHERE clause per Definition 3.3 (see module docs)."""
        if self.where is None:
            return {}
        return to_compound_form(self.where)

    def to_sql(self) -> str:
        """Render the query as SQL text (parseable by :mod:`repro.sql.parser`)."""
        sql = f"SELECT count(*) FROM {', '.join(self.tables)}"
        clauses = [join.to_sql() for join in self.joins]
        if self.where is not None:
            where_sql = self.where.to_sql()
            if clauses and isinstance(self.where, Or):
                where_sql = f"({where_sql})"
            clauses.append(where_sql)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        if self.group_by:
            sql += " GROUP BY " + ", ".join(self.group_by)
        return sql

    def __str__(self) -> str:
        return self.to_sql()
