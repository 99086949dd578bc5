"""Property-based executor tests: vectorised masks vs row-by-row evaluation.

The executor evaluates boolean expressions with numpy; these tests pit
it against a direct per-row Python evaluation on random tables and
random boolean trees (including arbitrary nesting the workloads never
produce), so broadcasting or operator-mapping bugs cannot hide.  Join
lists drawn over small FROM lists pit the join-tree message passing
against a nested-loop count, and its tree check against a brute-force
reachability test.
"""

import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import Schema
from repro.data.table import Table
from repro.sql.ast import (And, JoinPredicate, Op, Or, Query,
                           SimplePredicate, UnsupportedQueryError)
from repro.sql.executor import cardinality, selection_mask

_PY_OPS = {
    Op.EQ: operator.eq, Op.NE: operator.ne, Op.LT: operator.lt,
    Op.LE: operator.le, Op.GT: operator.gt, Op.GE: operator.ge,
}


def evaluate_row(expr, row: dict) -> bool:
    """Reference semantics: evaluate an expression on one row."""
    if isinstance(expr, SimplePredicate):
        return _PY_OPS[expr.op](row[expr.attribute], expr.value)
    if isinstance(expr, And):
        return all(evaluate_row(c, row) for c in expr.children)
    if isinstance(expr, Or):
        return any(evaluate_row(c, row) for c in expr.children)
    raise TypeError(type(expr))


tables = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=-5, max_value=5),
                 min_size=n, max_size=n),
        st.lists(st.integers(min_value=-5, max_value=5),
                 min_size=n, max_size=n),
    )
).map(lambda cols: Table("t", {
    "x": np.asarray(cols[0], dtype=float),
    "y": np.asarray(cols[1], dtype=float),
}))

predicates = st.builds(
    SimplePredicate,
    attribute=st.sampled_from(["x", "y"]),
    op=st.sampled_from(list(Op)),
    value=st.integers(min_value=-6, max_value=6).map(float),
)


def expressions(depth: int):
    if depth <= 0:
        return predicates
    sub = expressions(depth - 1)
    return st.one_of(
        predicates,
        st.lists(sub, min_size=1, max_size=3).map(And),
        st.lists(sub, min_size=1, max_size=3).map(Or),
    )


class TestMaskAgainstRowEvaluation:
    @given(tables, expressions(depth=3))
    @settings(max_examples=200, deadline=None)
    def test_masks_match_reference(self, table, expr):
        mask = selection_mask(expr, table)
        x = table.column("x").values
        y = table.column("y").values
        expected = [evaluate_row(expr, {"x": x[i], "y": y[i]})
                    for i in range(table.row_count)]
        np.testing.assert_array_equal(mask, expected)

    @given(tables, expressions(depth=2), expressions(depth=2))
    @settings(max_examples=100, deadline=None)
    def test_de_morgan_consistency(self, table, left, right):
        """AND/OR masks satisfy set algebra: |A ∧ B| + |A ∨ B| = |A| + |B|."""
        a = selection_mask(left, table)
        b = selection_mask(right, table)
        both = selection_mask(And([left, right]), table)
        either = selection_mask(Or([left, right]), table)
        assert both.sum() + either.sum() == a.sum() + b.sum()


#: Join-key columns of every table in the join schema.
JOIN_COLUMNS = ("id", "k")


def join_table(draw, name: str) -> Table:
    """One to three rows of join keys in ``0 … 2``."""
    rows = draw(st.integers(min_value=1, max_value=3))
    keys = st.lists(st.integers(min_value=0, max_value=2),
                    min_size=rows, max_size=rows)
    return Table(name, {column: np.asarray(draw(keys), dtype=float)
                        for column in JOIN_COLUMNS})


@st.composite
def join_queries(draw):
    """``(schema, query)``: up to four tables of up to three rows with
    keys in ``0 … 2``, a FROM list of two to four of them, and a join
    list that may repeat a pair, join a table to itself, or leave one
    out."""
    names = [f"t{i}" for i in range(4)]
    schema = Schema([join_table(draw, name) for name in names])
    tables = draw(st.lists(st.sampled_from(names), min_size=2, max_size=4,
                           unique=True))
    n = len(tables)
    count = draw(st.one_of(st.just(n - 1), st.integers(0, n + 1)))
    joins = []
    for _ in range(count):
        left, right = draw(st.lists(st.sampled_from(tables), min_size=2,
                                    max_size=2, unique=True))
        if draw(st.integers(0, 3)) == 0:
            right = left  # a self-join
        column = st.sampled_from(JOIN_COLUMNS)
        joins.append(JoinPredicate(left, draw(column), right, draw(column)))
    return schema, Query(tables=tuple(tables), joins=tuple(joins))


def is_join_tree(query: Query) -> bool:
    """n - 1 distinct, loop-free joins that connect all n tables."""
    pairs = {frozenset((j.left_table, j.right_table)) for j in query.joins}
    n = len(query.tables)
    if (len(query.joins) != n - 1 or len(pairs) != n - 1
            or any(len(pair) == 1 for pair in pairs)):
        return False
    reached = {query.tables[0]}
    for _ in range(n):
        reached |= {t for pair in pairs if pair & reached for t in pair}
    return len(reached) == n


def nested_loop_count(query: Query, schema: Schema) -> int:
    """The join's size, one combination of rows at a time."""
    columns = {(t, c): schema.table(t).column(c).values
               for t in query.tables for c in JOIN_COLUMNS}
    ranges = [range(schema.table(t).row_count) for t in query.tables]
    return sum(
        all(columns[j.left_table, j.left_column][rows[j.left_table]]
            == columns[j.right_table, j.right_column][rows[j.right_table]]
            for j in query.joins)
        for combo in itertools.product(*ranges)
        for rows in [dict(zip(query.tables, combo))])


class TestJoinTrees:
    @given(join_queries())
    @settings(max_examples=300, deadline=None)
    def test_rejects_exactly_the_non_trees(self, drawn):
        schema, query = drawn
        if is_join_tree(query):
            assert cardinality(query, schema) \
                == nested_loop_count(query, schema)
        else:
            with pytest.raises(UnsupportedQueryError,
                               match="must be a connected tree"):
                cardinality(query, schema)
