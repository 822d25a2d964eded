import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathweights import (
    Graph,
    InvalidPathError,
    Model,
    Path,
    PathExplosionError,
    UnknownVertexError,
    betweenness,
    chords,
    decompose,
    enumerate_paths,
    is_chordless,
    rank_paths,
    validate_path,
)
from pathweights.graphs import _lex_order

from conftest import random_graph


def complete_graph(n):
    names = [chr(ord("a") + i) for i in range(n)]
    return Graph(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1:]])


def chain(n):
    names = [str(i + 1) for i in range(n)]
    return Graph(names, list(zip(names, names[1:])))


# -- construction -------------------------------------------------------------


def test_no_self_loops():
    with pytest.raises(ValueError):
        Graph(["a"], [("a", "a")])


def test_edge_endpoints_must_exist():
    with pytest.raises(UnknownVertexError):
        Graph(["a", "b"], [("a", "c")])


def test_neighbors_sorted_and_degree():
    g = Graph(["c", "a", "b"], [("c", "a"), ("c", "b")])
    assert g.neighbors("c") == ("a", "b")
    assert g.degree("c") == 2
    assert g.degree("a") == 1


# -- induced subgraphs -----------------------------------------------------------


def test_induced_subgraph_full_and_empty():
    g = complete_graph(3)
    assert g.induced_subgraph(g.vertices).edges == g.edges
    empty = g.induced_subgraph([])
    assert empty.vertices == () and not empty.edges


def test_induced_subgraph_triangle_edge():
    g = complete_graph(3)
    sub = g.induced_subgraph(["a", "b"])
    assert sub.edges == frozenset({("a", "b")})


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        complete_graph(3).induced_subgraph(["a", "z"])


# -- path objects ---------------------------------------------------------------


def test_path_needs_two_distinct_vertices():
    with pytest.raises(InvalidPathError):
        Path(("a",))
    with pytest.raises(InvalidPathError):
        Path(("a", "b", "a"))


def test_path_canonical_orientation():
    p = Path(("c", "b", "a"))
    assert p.canonical().sequence == ("a", "b", "c")
    assert Path(("a", "b")).canonical().sequence == ("a", "b")


def test_validate_path_checks_edges():
    g = chain(3)
    validate_path(g, Path(("1", "2", "3")))
    with pytest.raises(InvalidPathError, match="^'1'--'3' is not an edge of the graph$"):
        validate_path(g, Path(("1", "3")))
    with pytest.raises(InvalidPathError, match="^'3'--'1' is not an edge of the graph$"):
        validate_path(g, Path(("2", "3", "1")))
    with pytest.raises(InvalidPathError, match=r"^path visits unknown vertices: \['x'\]$"):
        validate_path(g, Path(("1", "x")))
    with pytest.raises(InvalidPathError, match=r"^path visits unknown vertices: \['y', 'x'\]$"):
        validate_path(g, Path(("y", "1", "x")))


# -- enumeration -----------------------------------------------------------------


def test_single_edge_path():
    g = Graph(["x", "y"], [("x", "y")])
    assert [p.sequence for p in enumerate_paths(g, "x", "y")] == [("x", "y")]


def test_k4_has_five_paths_per_pair():
    g = complete_graph(4)
    for x in g.vertices:
        for y in g.vertices:
            if x < y:
                paths = enumerate_paths(g, x, y)
                assert len(paths) == 5
                lengths = sorted(len(p) for p in paths)
                assert lengths == [2, 3, 3, 4, 4]


def test_enumeration_is_lexicographic():
    g = complete_graph(4)
    seqs = [p.sequence for p in enumerate_paths(g, "a", "d")]
    assert seqs == sorted(seqs)
    assert seqs[0] == ("a", "b", "c", "d")
    assert seqs[-1] == ("a", "d")


def test_enumeration_no_paths():
    g = Graph(["a", "b", "c"], [("a", "b")])
    assert enumerate_paths(g, "a", "c") == []


def test_restrict_must_contain_endpoints():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        enumerate_paths(g, "a", "b", restrict=["a"])


def test_max_len_limits_vertex_count():
    g = complete_graph(4)
    paths = enumerate_paths(g, "a", "d", max_len=3)
    assert all(len(p) <= 3 for p in paths)
    assert len(paths) == 3


def test_cap_raises_path_explosion_deterministically():
    g = complete_graph(8)  # 1957 simple paths per pair
    with pytest.raises(PathExplosionError) as first:
        enumerate_paths(g, "a", "b", cap=1000)
    with pytest.raises(PathExplosionError) as second:
        enumerate_paths(g, "a", "b", cap=1000)
    assert first.value.cap == second.value.cap == 1000
    assert first.value.found == second.value.found == 1001


def test_enumeration_on_a_1200_vertex_chain():
    g = chain(1200)
    (path,) = enumerate_paths(g, "1", "1200")
    assert path.sequence == g.vertices
    assert [p.sequence for p in enumerate_paths(g, "1200", "1")] == [g.vertices[::-1]]


def test_cap_boundary_exact_fit():
    g = complete_graph(4)
    assert len(enumerate_paths(g, "a", "b", cap=5)) == 5
    with pytest.raises(PathExplosionError):
        enumerate_paths(g, "a", "b", cap=4)


def test_cap_below_one_is_rejected_by_every_caller():
    # "d" is isolated: the a-d decomposition has no path to walk, and still
    # checks the cap
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.3, ("b", "c"): 0.2})
    calls = [lambda: enumerate_paths(g, "a", "b", cap=0),
             lambda: decompose(m, "a", "b", cap=0),
             lambda: decompose(m, "a", "d", cap=0),
             lambda: betweenness(m, cap=0),
             lambda: rank_paths(m, 2, cap=0)]
    for call in calls:
        with pytest.raises(ValueError, match="cap must be at least 1"):
            call()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restriction_matches_induced_subgraph(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 9))
    g = random_graph(rng, p, density=float(rng.uniform(0.2, 0.7)))
    x, y = (str(v) for v in rng.choice(g.vertices, size=2, replace=False))
    keep = {x, y} | {str(v) for v in g.vertices if rng.random() < 0.6}
    restricted = enumerate_paths(g, x, y, restrict=keep)
    on_subgraph = enumerate_paths(g.induced_subgraph(keep), x, y)
    assert [p.sequence for p in restricted] == [p.sequence for p in on_subgraph]
    # restricted collection is a subset of the unrestricted one
    full = {p.sequence for p in enumerate_paths(g, x, y)}
    assert {p.sequence for p in restricted} <= full


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chordless_iff_unique_within_own_vertices(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(3, 9)), density=float(rng.uniform(0.3, 0.8)))
    x, y = (str(v) for v in rng.choice(g.vertices, size=2, replace=False))
    for p in enumerate_paths(g, x, y)[:20]:
        within = enumerate_paths(g, x, y, restrict=p.vertex_set)
        unique = [q.sequence for q in within] == [p.sequence]
        assert unique == is_chordless(g, p)


# -- chords -----------------------------------------------------------------------


def test_chords_triangle_endpoint_edge():
    g = complete_graph(3)
    assert chords(g, Path(("a", "b", "c"))) == [("a", "c")]


def test_chords_chain_is_chordless():
    g = chain(3)
    assert chords(g, Path(("1", "2", "3"))) == []


def test_chords_path_graph_with_diagonal():
    g = Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("1", "3")])
    assert chords(g, Path(("1", "2", "3", "4"))) == [("1", "3")]


def test_chords_four_cycle_includes_endpoint_edge():
    # the edge joining the two path endpoints is a chord too
    g = Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"), ("1", "3")])
    assert chords(g, Path(("1", "2", "3", "4"))) == [("1", "3"), ("1", "4")]


def test_chords_rejects_invalid_path():
    with pytest.raises(InvalidPathError):
        chords(chain(3), Path(("1", "3")))


# -- predicates ---------------------------------------------------------------------


def test_is_tree():
    assert chain(3).is_tree()
    assert not complete_graph(3).is_tree()
    assert not Graph(["a", "b", "c"], [("a", "b")]).is_tree()  # disconnected


def test_components():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    assert g.components() == [("a", "b"), ("c", "d")]
    # interleaved components, one of two blocks joined at a cut vertex, and an
    # isolated vertex
    g = Graph(["a", "b", "c", "d", "e", "f"], [("a", "c"), ("c", "f"), ("b", "e")])
    assert g.components() == [("a", "c", "f"), ("b", "e"), ("d",)]


def test_bfs_distances():
    g = chain(4)
    assert g.bfs_distances("1") == {"1": 0, "2": 1, "3": 2, "4": 3}
    assert "3" not in g.bfs_distances("1", restrict=["1", "2"])


# -- row ordering -------------------------------------------------------------


@pytest.mark.parametrize("n, width", [(3, 40), (11, 11), (64, 30), (200, 25), (1200, 40)])
def test_lex_order_matches_lexsort_of_the_rank_columns(n, width):
    # n = 1200 packs 6 columns per word, so keys span several words
    rng = np.random.default_rng([n, width])
    names = [f"u{i:04d}" for i in rng.permutation(n)]  # label order is not vertex order
    g = Graph(names)
    rows = 500
    seqs = rng.integers(0, n, size=(rows, width), dtype=np.int32)
    share = rng.integers(0, rows, size=rows)  # shared prefixes make later columns decide
    cut = rng.integers(0, width, size=rows)
    for i in range(rows):
        seqs[i, :cut[i]] = seqs[share[i], :cut[i]]
    lengths = rng.integers(1, width + 1, size=rows)
    seqs[np.arange(width) >= lengths[:, None]] = -1
    ranks = g._rank[seqs]
    assert np.array_equal(_lex_order(g, seqs), np.lexsort(ranks.T[::-1]))
    first = (rng.integers(0, 3, size=rows), -rng.integers(0, 2, size=rows) / 3.0)
    assert np.array_equal(_lex_order(g, seqs, *first), np.lexsort((*ranks.T[::-1], *first[::-1])))
