"""The path budget as every caller meets it, and the one route of a pair walk.

``cap`` bounds the simple paths of one vertex pair in every call: a pair walk
counts its rows, and a walk from one source counts its rows per end vertex.
A raise always reports ``found == cap + 1``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from pathweights import Graph, Model, PathExplosionError, betweenness, decompose, enumerate_paths, rank_paths
from pathweights import graphs

from conftest import random_model, vertex_names

K7_PAIR_PATHS = 326  # simple paths between two vertices of K7: 1 + 5 + 20 + 60 + 120 + 120


def k7() -> Model:
    names = vertex_names(7)
    return random_model(np.random.default_rng(22), 7, 0.0, graph=Graph(names, combinations(names, 2)))


def all_pairs_decompose(m: Model, cap: int) -> None:
    for x, y in combinations(m.vertices, 2):
        decompose(m, x, y, cap=cap)


CALLS = {
    "betweenness": lambda m, cap: betweenness(m, cap=cap),
    "rank_paths": lambda m, cap: rank_paths(m, 7, cap=cap),
    "decompose": all_pairs_decompose,
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_cap_bounds_the_paths_of_each_vertex_pair(call):
    call(k7(), K7_PAIR_PATHS)  # every pair at the cap, and the pairs together far past it
    with pytest.raises(PathExplosionError) as err:
        call(k7(), K7_PAIR_PATHS - 1)
    assert (err.value.cap, err.value.found) == (K7_PAIR_PATHS - 1, K7_PAIR_PATHS)


def test_rank_paths_counts_only_the_paths_it_walks():
    # paths of up to 4 vertices: 26 per pair, far below the cap
    assert len(rank_paths(k7(), 4, cap=K7_PAIR_PATHS - 1)) == 21 * 20


def test_a_decompose_call_takes_its_route_once(monkeypatch):
    calls = []

    def counted(self, x, y, _route=graphs._BlockCutTree.route):
        calls.append((x, y))
        return _route(self, x, y)
    monkeypatch.setattr(graphs._BlockCutTree, "route", counted)
    m = k7()
    x, *others = m.vertices
    # a first call walks its pair, a second walks the source, a third slices it
    for y in others[:3]:
        decompose(m, x, y)
        assert len(calls) == 1
        calls.clear()
    decompose(m, x, others[0], restrict=m.vertices)
    enumerate_paths(m.graph, x, others[0], restrict=m.vertices)
    assert len(calls) == 2
