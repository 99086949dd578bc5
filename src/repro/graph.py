"""Small graph algorithms over adjacency sets, in the standard library.

Graphs are plain dicts mapping a node to the set of its neighbours
(undirected) or successors (directed).  Four users need them: schema
connectivity (:meth:`~repro.data.schema.Schema.is_connected_subschema`),
the executor's join tree, the optimizer's join graph and the linter's
lock-order cycles (RPR402).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator, Mapping

__all__ = ["adjacency", "is_connected", "tree_order",
           "strongly_connected_components"]


def adjacency(nodes: Iterable[Hashable],
              edges: Iterable[tuple[Hashable, Hashable]]
              ) -> dict[Hashable, set[Hashable]]:
    """Undirected adjacency sets: every node, and each edge both ways."""
    graph: dict[Hashable, set[Hashable]] = {node: set() for node in nodes}
    for left, right in edges:
        graph.setdefault(left, set()).add(right)
        graph.setdefault(right, set()).add(left)
    return graph


def _bfs(graph: Mapping[Hashable, Iterable[Hashable]], source: Hashable
         ) -> tuple[list[Hashable], dict[Hashable, Hashable]]:
    """Nodes reachable from ``source`` in BFS order, and each one's
    parent in the BFS tree (the source has none)."""
    order = [source]
    parent: dict[Hashable, Hashable] = {}
    queue = deque(order)
    while queue:
        node = queue.popleft()
        for neighbour in graph[node]:
            if neighbour != source and neighbour not in parent:
                parent[neighbour] = node
                order.append(neighbour)
                queue.append(neighbour)
    return order, parent


def is_connected(graph: Mapping[Hashable, Iterable[Hashable]]) -> bool:
    """True iff the undirected ``graph`` has a node and every node
    reaches every other."""
    if not graph:
        return False
    return len(_bfs(graph, next(iter(graph)))[0]) == len(graph)


def tree_order(graph: Mapping[Hashable, Iterable[Hashable]], root: Hashable
               ) -> tuple[list[Hashable], dict[Hashable, Hashable]]:
    """A spanning tree of ``root``'s component, bottom-up.

    Returns the component's nodes, each once and every child before its
    parent (``root`` last), and the map from each non-root node to its
    parent; every ``(child, parent)`` pair is an edge of ``graph``.
    """
    order, parent = _bfs(graph, root)
    order.reverse()
    return order, parent


def strongly_connected_components(
        successors: Mapping[Hashable, Iterable[Hashable]]
) -> list[set[Hashable]]:
    """Tarjan's strongly connected components of a directed graph.

    ``successors`` maps a node to the targets of its edges; a node seen
    only as a target is a node too.  Iterative, so a long path does not
    reach the recursion limit.
    """
    index: dict[Hashable, int] = {}
    low: dict[Hashable, int] = {}
    stack: list[Hashable] = []
    on_stack: set[Hashable] = set()
    components: list[set[Hashable]] = []
    # The depth-first path: each node with its targets still to visit.
    work: list[tuple[Hashable, Iterator[Hashable]]] = []

    def visit(node: Hashable) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(successors.get(node, ()))))

    for root in successors:
        if root not in index:
            visit(root)
        while work:
            node, targets = work[-1]
            for target in targets:
                if target not in index:
                    visit(target)
                    break
                if target in on_stack:
                    low[node] = min(low[node], index[target])
            else:
                work.pop()
                if work:
                    caller = work[-1][0]
                    low[caller] = min(low[caller], low[node])
                if low[node] == index[node]:
                    component = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components
