"""Reference Definition 3.3 decomposition — the oracle for
:func:`repro.sql.ast.to_compound_form`.

The direct reading of the contract: every top-level term's attributes
first (:func:`~repro.sql.ast.attributes_of`), then each attribute's
terms ANDed and brought into disjunctive form by a per-node recursion.
``to_compound_form`` walks each term once;
``tests/sql/test_compound_differential.py`` holds the two to
equal mappings, in key and branch order, or the same error type and
message.
"""

from __future__ import annotations

from repro.sql.ast import (
    LEAF_TYPES,
    MAX_COMPOUND_BRANCHES,
    And,
    BoolExpr,
    Or,
    SimplePredicate,
    UnsupportedQueryError,
    _not_desugared,
    _too_many_branches,
    attributes_of,
    shape_sql,
)

__all__ = ["to_compound_form"]


def _single_attribute_dnf(expr: BoolExpr) -> tuple[tuple[SimplePredicate, ...], ...]:
    """Convert a single-attribute boolean tree into DNF.

    Raises :class:`UnsupportedQueryError` for a string leaf and when the
    form would have more than :data:`MAX_COMPOUND_BRANCHES` branches; a
    cross product is counted before it is built.
    """
    if isinstance(expr, SimplePredicate):
        return ((expr,),)
    if isinstance(expr, LEAF_TYPES):
        raise _not_desugared(expr)
    if isinstance(expr, Or):
        branches: list[tuple[SimplePredicate, ...]] = []
        for child in expr.children:
            branches.extend(_single_attribute_dnf(child))
        if len(branches) > MAX_COMPOUND_BRANCHES:
            raise _too_many_branches(len(branches))
        return tuple(branches)
    # And: cross product of children's DNFs.
    result: list[tuple[SimplePredicate, ...]] = [()]
    for child in expr.children:
        child_dnf = _single_attribute_dnf(child)
        if len(result) * len(child_dnf) > MAX_COMPOUND_BRANCHES:
            raise _too_many_branches(len(result) * len(child_dnf))
        result = [existing + branch for existing in result for branch in child_dnf]
    return tuple(result)


def to_compound_form(expr: BoolExpr) -> dict[str, tuple[tuple[SimplePredicate, ...], ...]]:
    """Normalise ``expr`` into the paper's mixed-query form (Def. 3.3)."""
    top_level = expr.children if isinstance(expr, And) else (expr,)
    compounds: dict[str, list[BoolExpr]] = {}
    for item in top_level:
        attrs = attributes_of(item)
        if len(attrs) != 1:
            raise UnsupportedQueryError(
                "not a mixed query (Definition 3.3): the term "
                f"{shape_sql(item)!r} references attributes {list(attrs)}; "
                "compound predicates must reference exactly one attribute"
            )
        compounds.setdefault(attrs[0], []).append(item)
    return {
        attr: _single_attribute_dnf(And(items) if len(items) > 1 else items[0])
        for attr, items in compounds.items()
    }
