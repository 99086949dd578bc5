"""Property tests of :mod:`repro.graph` against a brute-force oracle.

Every graph has at most 8 nodes, so the oracle can afford the full
transitive closure (Warshall's algorithm over a boolean matrix); each
property of connectivity, the bottom-up tree order and Tarjan's
strongly connected components is checked against it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (adjacency, is_connected,
                         strongly_connected_components, tree_order)
from repro.lint.semantic.index import LockOrderGraph

MAX_NODES = 8


def closure(n: int, edges, directed: bool) -> list[list[bool]]:
    """``reach[u][v]``: a path of one or more edges leads from u to v."""
    reach = [[False] * n for _ in range(n)]
    for u, v in edges:
        reach[u][v] = True
        if not directed:
            reach[v][u] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


@st.composite
def graphs(draw, min_nodes: int = 0):
    """``(n, edges)``: nodes ``0 … n-1`` and edges that may repeat or
    loop."""
    n = draw(st.integers(min_value=min_nodes, max_value=MAX_NODES))
    if n == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_connectivity_matches_the_closure(graph):
    n, edges = graph
    reach = closure(n, edges, directed=False)
    expected = n > 0 and all(u == v or reach[u][v]
                             for u in range(n) for v in range(n))
    assert is_connected(adjacency(range(n), edges)) is expected


@settings(max_examples=300, deadline=None)
@given(graphs(min_nodes=1), st.data())
def test_tree_order_is_a_bottom_up_spanning_tree(graph, data):
    n, edges = graph
    root = data.draw(st.integers(min_value=0, max_value=n - 1))
    reach = closure(n, edges, directed=False)
    component = {root} | {v for v in range(n) if reach[root][v]}
    order, parent = tree_order(adjacency(range(n), edges), root)
    # Each node of root's component once, the root last ...
    assert sorted(order) == sorted(component)
    assert order[-1] == root
    # ... every other node with a parent, joined to it by an edge ...
    assert parent.keys() == component - {root}
    undirected = set(edges) | {(v, u) for u, v in edges}
    assert all((child, par) in undirected for child, par in parent.items())
    # ... and every child listed before its parent.
    position = {node: i for i, node in enumerate(order)}
    assert all(position[child] < position[par]
               for child, par in parent.items())


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_components_are_the_mutual_reachability_classes(graph):
    n, edges = graph
    successors: dict[int, set[int]] = {}
    for u, v in edges:
        successors.setdefault(u, set()).add(v)
    nodes = {u for edge in edges for u in edge}
    reach = closure(n, edges, directed=True)
    components = strongly_connected_components(successors)
    # A partition of the nodes ...
    assert sorted(node for part in components for node in part) \
        == sorted(nodes)
    # ... where two nodes share a part exactly when each reaches the other.
    part_of = {node: i for i, part in enumerate(components) for node in part}
    for u in nodes:
        for v in nodes:
            mutual = u == v or (reach[u][v] and reach[v][u])
            assert (part_of[u] == part_of[v]) is mutual


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_lock_order_cycles_are_the_components_with_a_cycle(graph):
    """RPR402 reports a component of two or more locks, or one lock
    with a self-edge: exactly the components whose nodes lie on a
    cycle."""
    n, edges = graph
    lock_graph = LockOrderGraph()
    for u, v in edges:
        lock_graph.edges.setdefault(u, set()).add(v)
    reach = closure(n, edges, directed=True)
    expected = sorted({tuple(v for v in range(n) if reach[u][v] and reach[v][u])
                       for u in range(n) if reach[u][u]})
    assert [tuple(cycle) for cycle in lock_graph.cycles()] == expected


def test_long_paths_need_no_recursion():
    n = 5_000
    chain = {i: {i + 1} for i in range(n)}
    assert len(strongly_connected_components(chain)) == n + 1
    ring = {i: {(i + 1) % n} for i in range(n)}
    assert strongly_connected_components(ring) == [set(range(n))]
    path = adjacency(range(n), ((i, i + 1) for i in range(n - 1)))
    assert is_connected(path)
    assert tree_order(path, 0)[0] == list(range(n - 1, -1, -1))
