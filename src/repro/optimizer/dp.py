"""System-R-style join-order optimization (``C_out`` cost).

The DP table is indexed by connected table subsets.  Joining toward a
subset ``S`` costs the *estimated* cardinality of ``S`` — the classic
``C_out`` metric, which rewards plans that keep intermediate results
small.  Bad cardinality estimates therefore directly cause bad join
orders, which is the effect Table 4 measures.

Two search spaces are supported:

* **left-deep** (the default, System R's space): plans are join orders;
  every step joins one base table into the running intermediate.
* **bushy** (``bushy=True``): the full space of join trees; any two
  disjoint connected subsets with a join edge between them may combine.
  For FK-star queries both spaces contain the same optima; on chains and
  snowflakes bushy plans can be strictly cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.schema import Schema
from repro.estimators.base import CardinalityEstimator
from repro.graph import adjacency, is_connected
from repro.optimizer.subqueries import subquery
from repro.sql.ast import Query

__all__ = ["JoinPlan", "optimize"]


@dataclass(frozen=True)
class JoinPlan:
    """A chosen join plan with its estimated ``C_out`` cost.

    ``intermediates`` are the table subsets the plan materialises (every
    internal node of the join tree, size >= 2) — the quantities a
    work-based executor charges.  For left-deep plans these are exactly
    the prefixes of ``order``.
    """

    #: Base tables in join (leaf) order; ``order[0]`` drives the plan.
    order: tuple[str, ...]
    #: Sum of estimated intermediate cardinalities.
    estimated_cost: float
    #: Materialised subsets, in evaluation order (innermost first).
    intermediates: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.intermediates and len(self.order) > 1:
            object.__setattr__(self, "intermediates", tuple(
                self.order[:size] for size in range(2, len(self.order) + 1)
            ))

    @property
    def prefixes(self) -> list[tuple[str, ...]]:
        """The materialised subsets (alias kept for the left-deep view)."""
        return list(self.intermediates)


def _join_graph(query: Query) -> dict[str, set[str]]:
    graph = adjacency(query.tables, ((join.left_table, join.right_table)
                                     for join in query.joins))
    if not is_connected(graph):
        raise ValueError(
            f"join graph of {query.tables} is not connected; cross products "
            "are not supported"
        )
    return graph


def optimize(query: Query, schema: Schema, estimator: CardinalityEstimator,
             bushy: bool = False) -> JoinPlan:
    """Choose the cheapest join plan under ``estimator``.

    Single-table queries trivially return the one-table plan.  The join
    graph must be connected (cross products are never considered).
    ``bushy=True`` searches the full join-tree space instead of
    left-deep orders.
    """
    if len(query.tables) == 1:
        return JoinPlan(order=query.tables, estimated_cost=0.0)
    graph = _join_graph(query)
    tables = query.tables
    index = {t: i for i, t in enumerate(tables)}

    estimate_cache: dict[int, float] = {}

    def estimate_subset(mask: int) -> float:
        if mask not in estimate_cache:
            subset = [t for t in tables if mask & (1 << index[t])]
            estimate_cache[mask] = estimator.estimate(
                subquery(query, subset, schema))
        return estimate_cache[mask]

    if bushy:
        return _optimize_bushy(query, graph, index, estimate_subset)
    return _optimize_left_deep(query, graph, index, estimate_subset)


def _optimize_left_deep(query: Query, graph: dict[str, set[str]], index,
                        estimate_subset) -> JoinPlan:
    full_mask = (1 << len(query.tables)) - 1
    best: dict[int, tuple[float, tuple[str, ...]]] = {}
    for table in query.tables:
        best[1 << index[table]] = (0.0, (table,))

    frontier = list(best)
    while frontier:
        next_frontier: list[int] = []
        for mask in frontier:
            cost, order = best[mask]
            in_subset = set(order)
            candidates = set()
            for t in in_subset:
                candidates |= graph[t]
            candidates -= in_subset
            for table in candidates:
                new_mask = mask | (1 << index[table])
                new_cost = cost + estimate_subset(new_mask)
                current = best.get(new_mask)
                if current is None or new_cost < current[0]:
                    best[new_mask] = (new_cost, order + (table,))
                    next_frontier.append(new_mask)
        frontier = next_frontier

    cost, order = best[full_mask]
    return JoinPlan(order=order, estimated_cost=cost)


def _optimize_bushy(query: Query, graph: dict[str, set[str]], index,
                    estimate_subset) -> JoinPlan:
    tables = query.tables
    n = len(tables)
    full_mask = (1 << n) - 1

    # Precompute per-table neighbour masks for the edge-crossing check.
    neighbor_mask = [0] * n
    for left, neighbours in graph.items():
        for right in neighbours:
            neighbor_mask[index[left]] |= 1 << index[right]

    def crosses_edge(mask_a: int, mask_b: int) -> bool:
        for i in range(n):
            if mask_a & (1 << i) and neighbor_mask[i] & mask_b:
                return True
        return False

    # DP state: mask -> (cost, leaf order, intermediates in eval order).
    best: dict[int, tuple[float, tuple[str, ...], tuple]] = {}
    for table in tables:
        best[1 << index[table]] = (0.0, (table,), ())

    # Enumerate masks in increasing popcount so sub-results exist.
    masks = sorted(range(1, full_mask + 1), key=lambda m: bin(m).count("1"))
    for mask in masks:
        if bin(mask).count("1") < 2:
            continue
        chosen = None
        # Iterate proper submasks; consider each unordered partition once.
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub < other:
                left_state = best.get(sub)
                right_state = best.get(other)
                if (left_state is not None and right_state is not None
                        and crosses_edge(sub, other)):
                    cost = (left_state[0] + right_state[0]
                            + estimate_subset(mask))
                    if chosen is None or cost < chosen[0]:
                        chosen = (
                            cost,
                            left_state[1] + right_state[1],
                            left_state[2] + right_state[2]
                            + (tuple(t for t in tables
                                     if mask & (1 << index[t])),),
                        )
            sub = (sub - 1) & mask
        if chosen is not None:
            best[mask] = chosen

    cost, order, intermediates = best[full_mask]
    return JoinPlan(order=order, estimated_cost=cost,
                    intermediates=intermediates)
