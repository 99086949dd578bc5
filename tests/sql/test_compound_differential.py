"""``to_compound_form`` against its oracle, on generated boolean trees.

:func:`repro.sql.ast.to_compound_form` builds each top-level term's
disjunctive form until a refusal shows, then finds the error by
counting alone.
:mod:`tests.sql.reference_compound` is the direct reading: every term's
attributes first, then each attribute's terms ANDed and expanded by a
per-node recursion.  On every tree both must
return equal mappings, in the same key and branch order, or raise the
same exception type with the same message.

Trees cover single- and multi-attribute terms, nesting, one attribute
repeated across terms, qualified names, string and ``LIKE`` leaves, a
node that is no boolean expression, and disjunctive forms on both sides
of :data:`~repro.sql.ast.MAX_COMPOUND_BRANCHES`: wide disjunctions of
the generator's shape, ANDed two-way disjunctions, and nodes refused by
their first children whose other children are only counted.
"""

from __future__ import annotations

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.sql.ast import (
    MAX_COMPOUND_BRANCHES,
    And,
    JoinPredicate,
    LikePredicate,
    Op,
    Or,
    SimplePredicate,
    StringPredicate,
    to_compound_form,
)
from tests.sql import reference_compound as oracle

ATTRIBUTES = ["A", "B", "t.A", "t.C1"]
OPS = list(Op)
WIDTHS = [MAX_COMPOUND_BRANCHES - 1, MAX_COMPOUND_BRANCHES,
          MAX_COMPOUND_BRANCHES + 1]


def simple(attribute: str, value: float = 1.0) -> SimplePredicate:
    return SimplePredicate(attribute, Op.GT, value)


@st.composite
def leaves(draw, attribute: str):
    kind = draw(st.integers(0, 19))
    if kind == 0:
        return StringPredicate(attribute, Op.EQ, "x")
    if kind == 1:
        return LikePredicate(attribute, "pre")
    return SimplePredicate(attribute, draw(st.sampled_from(OPS)),
                           float(draw(st.integers(-5, 5))))


@st.composite
def compounds(draw, attribute: str, depth: int = 0):
    """A boolean tree mostly over ``attribute``: sometimes it strays to
    another attribute, so the term spans two."""
    kind = draw(st.integers(0, 9 if depth < 3 else 0))
    if kind == 0:
        if draw(st.integers(0, 24)) == 0:
            attribute = draw(st.sampled_from(ATTRIBUTES))
        return draw(leaves(attribute))
    children = [draw(compounds(attribute, depth + 1))
                for _ in range(draw(st.integers(1, 3)))]
    return (And if kind < 5 else Or)(children)


@st.composite
def generator_shapes(draw, attribute: str):
    """The generator's compound, possibly wider than the branch cap: a
    disjunction of leaves and of conjunctions of leaves."""
    width = draw(st.one_of(st.integers(1, 4), st.sampled_from(WIDTHS)))
    children = []
    for index in range(width):
        size = draw(st.integers(1, 3)) if width < 8 else 1 + index % 2
        leaves_ = [simple(attribute, float(index + k)) for k in range(size)]
        children.append(leaves_[0] if size == 1 else And(leaves_))
    return Or(children)


@st.composite
def products(draw, attribute: str):
    """``k`` ANDed two-way disjunctions: ``2**k`` branches."""
    k = draw(st.sampled_from([2, 7, 8, 9]))
    return And([Or([simple(attribute, i), simple(attribute, -i)])
                for i in range(k)])


def pairs(attribute: str, k: int) -> And:
    return And([Or([simple(attribute, i), simple(attribute, -i)])
                for i in range(k)])


@st.composite
def refused_early(draw, attribute: str, depth: int = 0):
    """A node whose first children already pass the cap, then any
    children, such nodes too: those are only counted, and must still
    yield the oracle's attributes, errors and "at least N"."""
    tail = [draw(refused_early(attribute, depth + 1))
            if depth == 0 and draw(st.integers(0, 3)) == 0
            else draw(compounds(attribute))
            for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        return Or([pairs(attribute, 8), draw(leaves(attribute))] + tail)
    return And(list(pairs(attribute, 9).children) + tail)


@st.composite
def expressions(draw):
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        attribute = draw(st.sampled_from(ATTRIBUTES))
        kind = draw(st.integers(0, 10))
        if kind < 5:
            terms.append(draw(compounds(attribute)))
        elif kind < 8:
            terms.append(draw(generator_shapes(attribute)))
        elif kind < 9:
            terms.append(draw(products(attribute)))
        elif kind < 10:
            terms.append(draw(refused_early(attribute)))
        else:
            terms.append(JoinPredicate("t", "id", "u", "t_id"))
    return terms[0] if len(terms) == 1 else And(terms)


def outcome(normalise, expr):
    """The mapping as an ordered item list, or the error raised."""
    try:
        return list(normalise(expr).items())
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@seed(20261025)
@settings(max_examples=400, deadline=None)
@given(expressions())
# A multi-attribute term after a term whose form is too wide: the
# multi-attribute term is the error.
@example(And([Or([simple("A", i) for i in range(MAX_COMPOUND_BRANCHES + 1)]),
              Or([simple("A"), simple("B")])]))
# A string leaf after a width that exceeds the cap: the string wins,
# since a disjunction counts its branches once all are in.
@example(Or([simple("A", i) for i in range(MAX_COMPOUND_BRANCHES + 1)]
            + [StringPredicate("A", Op.EQ, "x")]))
@example(And([simple("A"), Or([And([simple("A"), simple("A", 2)]),
                               simple("A", 3)]), simple("A", 4)]))
def test_same_form_or_same_error(expr):
    assert outcome(to_compound_form, expr) \
        == outcome(oracle.to_compound_form, expr)
