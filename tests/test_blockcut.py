"""Block-cut routes and components against brute force on small graphs.

``_BlockCutTree.route(x, y)`` must mask exactly the vertices that lie on some
simple x-y path, and ``Graph.components()`` must group the vertices as a
breadth-first search does. Both oracles here are plain searches over every
simple path or every edge, independent of blocks and cut vertices.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathweights import Graph

NAMES = "abcdefghi"


@st.composite
def graphs(draw):
    """Up to 9 vertices with shuffled labels (so vertex order is not label
    order, and neither is the DFS order) and any edge set: disconnected
    graphs, isolated vertices, trees, cycles and cliques all come up."""
    n = draw(st.integers(1, len(NAMES)))
    labels = draw(st.permutations(NAMES[:n]))
    pairs = list(combinations(labels, 2))
    edges = [e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs),
                                                        max_size=len(pairs)))) if keep]
    return labels, edges


def on_some_path(n: int, adj: list[list[int]]) -> list[list[set[int]]]:
    """``on[x][y]``: the vertices of every simple path from x to y, found by
    extending every simple path from x, one recursive call per vertex."""
    on = [[set() for _ in range(n)] for _ in range(n)]

    def extend(path: list[int]) -> None:
        on[path[0]][path[-1]].update(path)
        for w in adj[path[-1]]:
            if w not in path:
                extend(path + [w])
    for x in range(n):
        extend([x])
    return on


def bfs_components(n: int, adj: list[list[int]]) -> list[tuple[int, ...]]:
    seen, out = set(), []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        queue, comp = deque([start]), []
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return out


@settings(max_examples=300, deadline=None)
@given(graphs())
# two blocks at the cut vertex b (a triangle and a square), a pendant edge at
# the DFS root a, a second component and an isolated vertex
@example((tuple("abcdefghi"), [("a", "b"), ("b", "c"), ("c", "a"), ("b", "d"), ("d", "e"),
                               ("e", "f"), ("f", "b"), ("a", "g"), ("h", "i")]))
@example((tuple("ihgfedcba"), [("e", "d"), ("d", "c"), ("c", "b"), ("b", "a"), ("e", "f")]))  # a path
@example((("a",), []))
def test_routes_and_components_match_brute_force(case):
    labels, edges = case
    g = Graph(labels, edges)
    n = len(labels)
    index = {v: i for i, v in enumerate(labels)}
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    on = on_some_path(n, adj)
    for x in range(n):
        for y in range(n):
            if x != y:
                want = np.zeros(n, dtype=bool)
                want[sorted(on[x][y])] = True
                assert np.array_equal(g._blockcut.route(x, y), want), (labels[x], labels[y])
    assert g.components() == [tuple(labels[i] for i in comp) for comp in bfs_components(n, adj)]
