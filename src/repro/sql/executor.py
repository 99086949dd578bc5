"""A counting executor: computes exact ``count(*)`` results.

This is the substrate that produces the *true* cardinalities used as
training labels and as ground truth in the evaluation (the paper uses
PostgreSQL for this).  Two paths exist:

* **Single-table queries** — evaluate the selection expression to a
  boolean mask over the table and count.
* **Join queries** — the join graph must be acyclic (JOB-light joins are a
  star around ``title``).  The count is computed by message passing over
  the join tree: every leaf sends its per-join-key count of qualifying
  rows upward, inner nodes multiply incoming messages into their row
  weights, and the root sums.  This yields the exact size of the join
  result without materialising it.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import Schema
from repro.data.table import Table
from repro.graph import adjacency, is_connected, tree_order
from repro.sql.ast import (
    And,
    BoolExpr,
    LikePredicate,
    Op,
    Or,
    Query,
    SimplePredicate,
    StringPredicate,
    UnsupportedQueryError,
    iter_predicates,
)

__all__ = ["selection_mask", "cardinality", "group_count", "per_table_selections"]


def _resolve_column(table: Table, attribute: str) -> np.ndarray:
    """Resolve ``attribute`` (possibly ``table.column``) within ``table``."""
    return _resolve_column_object(table, attribute).values


def _resolve_column_object(table: Table, attribute: str):
    name = attribute
    prefix, dot, rest = attribute.partition(".")
    if dot:
        if prefix != table.name:
            raise KeyError(
                f"attribute {attribute!r} does not belong to table {table.name!r}"
            )
        name = rest
    return table.column(name)


_OP_FUNCS = {
    Op.EQ: np.equal,
    Op.NE: np.not_equal,
    Op.LT: np.less,
    Op.LE: np.less_equal,
    Op.GT: np.greater,
    Op.GE: np.greater_equal,
}


def selection_mask(expr: BoolExpr | None, table: Table) -> np.ndarray:
    """Evaluate a selection expression to a boolean mask over ``table``.

    ``None`` selects every row.
    """
    if expr is None:
        return np.ones(table.row_count, dtype=bool)
    if isinstance(expr, SimplePredicate):
        column = _resolve_column(table, expr.attribute)
        return _OP_FUNCS[expr.op](column, expr.value)
    if isinstance(expr, (StringPredicate, LikePredicate)):
        # The executor holds the dictionaries, so string predicates are
        # desugared on the fly (featurizers require an explicit
        # repro.sql.strings.desugar_strings pass instead).
        from repro.sql.strings import desugar_expr

        return selection_mask(desugar_expr(expr, table), table)
    if isinstance(expr, And):
        mask = selection_mask(expr.children[0], table)
        for child in expr.children[1:]:
            mask &= selection_mask(child, table)
        return mask
    if isinstance(expr, Or):
        mask = selection_mask(expr.children[0], table)
        for child in expr.children[1:]:
            mask |= selection_mask(child, table)
        return mask
    raise TypeError(f"not a boolean expression: {type(expr).__name__}")


def per_table_selections(query: Query, schema: Schema) -> dict[str, BoolExpr | None]:
    """Split the WHERE clause into per-table selection expressions.

    For join queries every top-level term must reference columns of a
    single table (which holds for all paper workloads).  A term that mixes
    tables would require a theta-join and is rejected.
    """
    selections: dict[str, list[BoolExpr]] = {t: [] for t in query.tables}
    if query.where is not None:
        terms = (query.where.children if isinstance(query.where, And)
                 else (query.where,))
        for term in terms:
            tables = {_owning_table(pred.attribute, query, schema)
                      for pred in _iter_preds(term)}
            if len(tables) != 1:
                raise UnsupportedQueryError(
                    f"selection term {term.to_sql()!r} spans tables {tables}; "
                    "only per-table selections are supported"
                )
            selections[tables.pop()].append(term)
    return {
        table: (And(terms) if len(terms) > 1 else terms[0]) if terms else None
        for table, terms in selections.items()
    }


def _iter_preds(expr: BoolExpr):
    yield from iter_predicates(expr)


def _owning_table(attribute: str, query: Query, schema: Schema) -> str:
    """Determine which of the query's tables owns ``attribute``."""
    prefix, dot, rest = attribute.partition(".")
    if dot:
        if prefix not in query.tables:
            raise KeyError(f"attribute {attribute!r} references a table "
                           f"outside the query's FROM list {query.tables}")
        return prefix
    owners = [t for t in query.tables if attribute in schema.table(t)]
    if len(owners) != 1:
        raise KeyError(
            f"attribute {attribute!r} is ambiguous or unknown among "
            f"tables {query.tables} (owners: {owners}); qualify it"
        )
    return owners[0]


def cardinality(query: Query, data: Table | Schema) -> int:
    """Exact ``count(*)`` of ``query`` over ``data``.

    ``data`` is a single :class:`Table` for single-table queries or a
    :class:`Schema` for join queries.
    """
    if isinstance(data, Table):
        if len(query.tables) != 1:
            raise UnsupportedQueryError(
                f"query joins {query.tables} but only a single table was given"
            )
        return int(selection_mask(query.where, data).sum())
    return _join_cardinality(query, data)


def _join_cardinality(query: Query, schema: Schema) -> int:
    """Count the join result size via message passing on the join tree."""
    if len(query.tables) == 1:
        table = schema.table(query.tables[0])
        return int(selection_mask(query.where, table).sum())

    # n - 1 joins connect n tables only when they are distinct, loop-free
    # edges of one tree: a duplicate pair or a self-join leaves a table
    # unreached.
    graph = adjacency(query.tables, ((join.left_table, join.right_table)
                                     for join in query.joins))
    if (len(query.joins) != len(query.tables) - 1
            or not is_connected(graph)):
        raise UnsupportedQueryError(
            f"join graph over {query.tables} must be a connected tree "
            f"({len(query.joins)} joins given)"
        )
    by_edge = {frozenset((join.left_table, join.right_table)): join
               for join in query.joins}

    selections = per_table_selections(query, schema)

    # Per-table qualifying weights: weight[i] == how many join tuples the
    # i-th row contributes from the already-processed subtree below it.
    weights: dict[str, np.ndarray] = {}
    for table_name in query.tables:
        table = schema.table(table_name)
        mask = selection_mask(selections[table_name], table)
        weights[table_name] = mask.astype(np.float64)

    root = query.tables[0]
    # Process children bottom-up: every child before its parent.
    order, parent = tree_order(graph, root)
    for node in order:
        if node == root:
            continue
        par = parent[node]
        join = by_edge[frozenset((node, par))]
        if join.left_table == node:
            child_col, parent_col = join.left_column, join.right_column
        else:
            child_col, parent_col = join.right_column, join.left_column
        child_keys = schema.table(node).column(child_col).values
        parent_keys = schema.table(par).column(parent_col).values
        # Sum child weights per distinct key, then gather for parent rows.
        unique_keys, inverse = np.unique(child_keys, return_inverse=True)
        sums = np.bincount(inverse, weights=weights[node],
                           minlength=unique_keys.size)
        positions = np.searchsorted(unique_keys, parent_keys)
        positions = np.clip(positions, 0, unique_keys.size - 1)
        matched = unique_keys[positions] == parent_keys
        message = np.where(matched, sums[positions], 0.0)
        weights[par] = weights[par] * message

    return int(round(weights[root].sum()))


def group_count(query: Query, table: Table) -> int:
    """Number of groups a GROUP BY query produces on a single table.

    Supports the Section 6 extension experiments: counts the distinct
    combinations of the grouping attributes among qualifying rows.
    """
    if not query.group_by:
        raise ValueError("query has no GROUP BY clause")
    mask = selection_mask(query.where, table)
    if not mask.any():
        return 0
    grouped = np.stack(
        [_resolve_column(table, attr)[mask] for attr in query.group_by], axis=1
    )
    return int(np.unique(grouped, axis=0).shape[0])
