"""Input checks of graph queries: unknown vertices and degenerate pairs."""

import pytest

from pathweights import Graph, UnknownVertexError, enumerate_paths


@pytest.fixture()
def path_abc():
    return Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.mark.parametrize("query", [
    lambda g: g.neighbors("z"),
    lambda g: g.bfs_distances("z"),
    lambda g: g.bfs_distances("a", restrict=["a", "z"]),
    lambda g: g.bfs_distances("a", restrict=["b", "c"]),  # a source outside the restriction
], ids=["neighbors", "bfs-source", "bfs-restrict", "bfs-source-not-in-restrict"])
def test_unknown_vertex_is_an_unknown_vertex_error(path_abc, query):
    with pytest.raises(UnknownVertexError):
        query(path_abc)


def test_enumeration_endpoints_must_differ(path_abc):
    with pytest.raises(ValueError, match="path endpoints must differ"):
        enumerate_paths(path_abc, "a", "a")
