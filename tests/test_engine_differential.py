"""Bitwise differential test of the path engine against the recursive reference.

The reference below is the original engine: a recursive depth-first
enumeration in lexicographic label order, and a covariance weight whose block
determinant is shared per vertex set through a ``frozenset``-keyed memo, taken
over the block in the ``frozenset`` order of the first path that reaches the
set. Every comparison is exact (``==``), including the determinant bits that
the printed CLI residuals depend on.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from pathweights import Graph, Measure, betweenness, decompose, enumerate_paths, graphs, rank_paths
from pathweights.symmetric import chol_det

from conftest import random_model, vertex_names

KINDS = (Measure.COVARIANCE, Measure.CORRELATION, Measure.INFLATED_CORRELATION)


def ref_paths(graph, x, y, allowed=None, max_len=None):
    max_len = len(graph.vertices) if max_len is None else max_len
    found, trail = [], [x]

    def extend(u):
        for w in graph.neighbors(u):
            if w in trail or (allowed is not None and w not in allowed):
                continue
            if w == y:
                found.append(tuple(trail) + (y,))
            elif len(trail) < max_len - 1:
                trail.append(w)
                extend(w)
                trail.pop()

    if max_len >= 2:
        extend(x)
    return found


def ref_weight(m, seq, memo, mat=None):
    mat = m.sigma if mat is None else mat
    vset = frozenset(seq)
    if vset not in memo:
        idx = np.array([mat._pos[v] for v in vset], dtype=np.intp)
        memo[vset] = chol_det(mat.values[idx[:, None], idx])
    prod = 1.0
    for u, v in zip(seq, seq[1:]):
        prod *= m.kappa.values[m.kappa._pos[u], m.kappa._pos[v]]
    return (1.0 if len(seq) % 2 else -1.0) * memo[vset] * prod


def ref_scale(m, kind, mat, x, y):
    if kind is Measure.CORRELATION:
        return 1.0 / math.sqrt(mat.entry(x, x) * mat.entry(y, y))
    if kind is Measure.INFLATED_CORRELATION:
        return math.sqrt(m.kappa.entry(x, x) * m.kappa.entry(y, y))
    return 1.0


def ref_betweenness(m, mode):
    d = np.sqrt(m.kappa.diagonal())
    pos, memo, ratios, skipped = m.sigma._pos, {}, {v: [] for v in m.vertices}, []
    for x, y in combinations(m.vertices, 2):
        dist = m.graph.bfs_distances(x)
        if y not in dist:
            skipped.append((x, y))
            continue
        paths = ref_paths(m.graph, x, y, max_len=dist[y] + 1 if mode == "shortest-paths" else None)
        scale = abs(float(d[pos[x]] * d[pos[y]]))
        wts = [abs(ref_weight(m, p, memo)) * scale for p in paths]
        denom = math.fsum(wts)
        if denom < 1e-12:
            skipped.append((x, y))
            continue
        for v in m.vertices:
            through = [w for p, w in zip(paths, wts) if v in p[1:-1]]
            if through:
                ratios[v].append(math.fsum(through) / denom)
    return [math.fsum(ratios[v]) for v in m.vertices], skipped


def corpus():
    """108 models, p = 4..11; denser graphs at small p keep the reference quick."""
    rng = np.random.default_rng(20190711)
    models = []
    for i in range(108):
        p = 4 + i % 8
        density = ((0.3, 0.55, 0.8) if p <= 7 else (0.2, 0.3, 0.4))[i % 3]
        models.append(random_model(rng, p, density, rescale=bool(i % 2)))
    return models


CORPUS = corpus()


@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_engine_matches_reference_bitwise(i):
    m, rng = CORPUS[i], np.random.default_rng([20190711, i])
    rebuild = lambda: type(m)(m.graph, m.sigma, kappa=m.kappa)  # fresh model per call
    by_size: dict[int, list] = {}
    for x, y in combinations(m.vertices, 2):
        src, dst = min(x, y), max(x, y)
        every = ref_paths(m.graph, src, dst)
        for p in every:
            by_size.setdefault(len(p), []).append(p)
        assert [p.sequence for p in enumerate_paths(m.graph, x, y)] == ref_paths(m.graph, x, y)
        cut = [v for v in m.vertices if v not in (x, y) and rng.random() < 0.5]
        for restrict in (None, [x, y] + cut):
            want = every if restrict is None else ref_paths(m.graph, src, dst, allowed=set(restrict))
            for kind in KINDS:
                report = decompose(rebuild(), x, y, kind=kind, restrict=restrict)
                assert [e.path.sequence for e in report.entries] == want
                mat = m.sigma if restrict is None else m.sigma.schur_complement(
                    report.restrict, m.graph.complement(report.restrict))
                scale, memo = ref_scale(m, kind, mat, src, dst), {}
                assert [e.weight for e in report.entries] == [
                    ref_weight(m, p, memo, mat) * scale for p in want]
    for mode in ("all-paths", "shortest-paths"):
        table = betweenness(rebuild(), mode=mode)
        raw, skipped = ref_betweenness(m, mode)
        assert [r.betweenness for r in table.rows] == raw
        assert list(table.skipped_pairs) == skipped
    for size in range(2, len(m.vertices) + 1):
        memo = {}
        want = [(p, ref_weight(m, p, memo) * ref_scale(m, Measure.INFLATED_CORRELATION, m.sigma, p[0], p[-1]))
                for p in by_size.get(size, [])]
        want.sort(key=lambda item: (-abs(item[1]), item[0]))
        assert [(p.sequence, w) for p, w in rank_paths(rebuild(), size)] == want


def dense_p13():
    """A p=13 model (23 edges, 13,765 paths) whose vertex order is not its label order."""
    rng = np.random.default_rng([13, 28])
    names = [str(v) for v in rng.permutation(vertex_names(13))]
    edges = [(names[i], names[j]) for i in range(13) for j in range(i + 1, 13) if rng.random() < 0.28]
    return random_model(rng, 13, 0.0, graph=Graph(names, edges))


def engine_outputs(m):
    rebuild = lambda: type(m)(m.graph, m.sigma, kappa=m.kappa)  # fresh model per call
    out = [[(r.betweenness, r.normalized) for r in table.rows] + list(table.skipped_pairs)
           for table in (betweenness(rebuild(), mode=mode) for mode in ("all-paths", "shortest-paths"))]
    out += [[(p.sequence, w) for p, w in rank_paths(rebuild(), size)]
            for size in range(2, len(m.vertices) + 1)]
    model = rebuild()
    for x, y in combinations(m.vertices, 2):
        for kind, restrict in ((Measure.COVARIANCE, None),
                               (Measure.INFLATED_CORRELATION, [x, y, *m.vertices[::2]])):
            report = decompose(model, x, y, kind=kind, restrict=restrict)
            out.append([(e.path.sequence, e.weight, e.share) for e in report.entries] + [report.residual])
    return out


def assert_label_order_per_length(g, blocks):
    by_length = {}
    for seqs, _, _ in blocks:
        by_length.setdefault(seqs.shape[1], []).extend(map(tuple, g._rank[seqs].tolist()))
    for rows in by_length.values():
        assert rows == sorted(rows)


@pytest.mark.parametrize("m", CORPUS[::6] + [dense_p13()], ids=lambda m: f"p{len(m.vertices)}")
def test_wide_chunked_walk_gives_the_same_results(m, monkeypatch):
    # The corpus is small enough that most walks never leave the narrow step.
    # Forcing every level wide, in chunks of 5 rows, must change no output,
    # since betweenness and rank_paths rely on the walk's order: each length's
    # rows arrive in label order across all of its blocks.
    want = engine_outputs(m)
    monkeypatch.setattr(graphs, "_NARROW_ROWS", 0)
    monkeypatch.setattr(graphs, "_CHUNK_ROWS", 5)
    assert engine_outputs(m) == want
    g, n = m.graph, len(m.vertices)
    for x in range(n):
        assert_label_order_per_length(g, graphs._walk(g, x))
        for y in range(n):
            if y != x:
                assert_label_order_per_length(g, graphs._walk(g, x, y))


def rows_by_length(blocks):
    """Each length's rows of walk blocks, concatenated in yield order."""
    parts = {}
    for block in blocks:
        parts.setdefault(block[0].shape[1], []).append(block)
    return {length: [np.concatenate(field) for field in zip(*bs)] for length, bs in parts.items()}


def test_wide_walk_over_two_key_words_gives_the_default_blocks(monkeypatch):
    # 70 vertices, so keys take two 64-bit words, and a dense block across
    # the word boundary on a chain, so walks fill wide levels
    names = vertex_names(70)
    rng = np.random.default_rng(65)
    edges = [(names[i], names[i + 1]) for i in range(69)]
    edges += [(names[i], names[j]) for i, j in combinations(range(59, 67), 2) if j > i + 1 and rng.random() < 0.5]
    g = Graph(names, edges)
    k = rng.standard_normal((70, 70))
    n = len(names)

    def walks():
        for x in (0, 58, 61, 63, 64, 69):
            hops = g.bfs_distances(names[x])
            dist = np.array([hops[v] for v in names])
            yield graphs._walk(g, x, edge_values=k)
            yield graphs._walk(g, x, max_len=6, edge_values=k)
            yield graphs._walk(g, x, dist=dist, edge_values=k)
            yield graphs._walk(g, x, allowed=g._mask(names[55:68]) | (np.arange(n) == x))
            for y in (1, 62, 64, 69):
                if y != x:
                    yield graphs._walk(g, x, y, allowed=g._blockcut.route(x, y), edge_values=k)
                    yield graphs._walk(g, x, y, max_len=7)

    want = [rows_by_length(w) for w in walks()]
    assert any(len(rows[0]) > 200 for by_length in want for rows in by_length.values())
    monkeypatch.setattr(graphs, "_NARROW_ROWS", 0)
    monkeypatch.setattr(graphs, "_CHUNK_ROWS", 5)
    got = [rows_by_length(w) for w in walks()]
    assert [sorted(w) for w in got] == [sorted(w) for w in want]
    for g_rows, w_rows in zip(got, want):
        for length in w_rows:
            for a, b in zip(g_rows[length], w_rows[length]):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_only_a_walk_that_goes_wide_builds_the_neighbour_table():
    # On a star the table has a row as wide as the hub's degree for every
    # vertex. Building the graph and a pair walk between two leaves, which
    # stays narrow on its route, must cost O(edges); a walk from the hub
    # reaches a wide level (its 199 paths of two vertices), builds the table
    # and keeps it for later wide walks.
    names = vertex_names(200)
    g = Graph(names, [(names[0], v) for v in names[1:]])
    k = np.random.default_rng(7).standard_normal((200, 200))
    assert g._table is None
    blocks = list(graphs._walk(g, 1, 2, g._blockcut.route(1, 2), edge_values=k))
    assert len(blocks) == 1 and g._table is None
    assert sum(len(b[0]) for b in graphs._walk(g, 0, edge_values=k)) == 199
    table = g._table
    assert table.shape == (200, 199) and table[0].tolist() == [g._index[v] for v in sorted(names[1:])]
    assert table[1].tolist() == [0] + [1] * 198  # a leaf's row: the hub, then the leaf itself
    assert sum(len(b[0]) for b in graphs._walk(g, 1, edge_values=k)) == 1 + 198
    assert g._table is table
