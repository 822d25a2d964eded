"""Shared fixtures: deterministic random models and independent oracles.

Every random object is derived from a numpy Generator seeded per test, so
failures reproduce exactly. The oracle helpers recompute quantities through
routes the library does not use (plain numpy determinants, cofactor-style
complement formulas, exhaustive search), keeping cross-checks independent.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from pathweights import Graph, Model, SymMatrix
from pathweights.datasets import men_network, women_network

# -- fixtures -------------------------------------------------------------


@pytest.fixture(scope="session")
def women():
    return women_network()


@pytest.fixture(scope="session")
def men():
    return men_network()


@pytest.fixture()
def triangle():
    """Complete 3-vertex model with all edge partial correlations 0.3.

    K = I - R has |K| = 0.676, sigma_13 = 0.39/0.676 and unit concentration
    diagonal, so the covariance coincides with the inflated correlation
    matrix. Small enough to verify every quantity by hand.
    """
    g = Graph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
    pc = {("1", "2"): 0.3, ("1", "3"): 0.3, ("2", "3"): 0.3}
    return Model.from_partial_correlations(g, pc)


@pytest.fixture(scope="session")
def sparse_model():
    """A p=120 model on a random tree plus 5 chords, seeded: the large sparse
    shape on which single queries must not touch p x p work they do not need.
    Its label order differs from its vertex order past v99."""
    rng = np.random.default_rng(120)
    return random_model(rng, 120, 0.0, graph=tree_with_chords(rng, 120, 5))


# -- random model construction ----------------------------------------------


def vertex_names(p: int) -> list[str]:
    return [f"v{i:02d}" for i in range(p)]


def random_graph(rng: np.random.Generator, p: int, density: float) -> Graph:
    names = vertex_names(p)
    edges = [
        (names[i], names[j])
        for i in range(p)
        for j in range(i + 1, p)
        if rng.random() < density
    ]
    return Graph(names, edges)


def random_model(
    rng: np.random.Generator,
    p: int,
    density: float,
    rescale: bool = True,
    graph: Graph | None = None,
) -> Model:
    """Random sparse PD model, adapted to its graph by construction.

    Edge partial correlations are drawn uniformly, then the whole matrix R is
    shrunk so that I - R stays comfortably positive definite. With ``rescale``
    a random diagonal scaling is applied, giving non-unit variances, and the
    model is rebuilt through the covariance constructor so the adaptedness
    check runs on genuinely inexact zeros.
    """
    graph = graph if graph is not None else random_graph(rng, p, density)
    names = graph.vertices
    pos = {v: i for i, v in enumerate(names)}
    r = np.zeros((p, p))
    for u, v in graph.sorted_edges():
        val = rng.uniform(-1.0, 1.0)
        r[pos[u], pos[v]] = r[pos[v], pos[u]] = val
    if graph.edges:
        radius = max(abs(np.linalg.eigvalsh(r)).max(), 1e-12)
        if radius > 0.85:
            r *= 0.85 / radius
    k = np.eye(p) - r
    sigma = np.linalg.inv(k)
    if rescale:
        d = rng.uniform(0.4, 2.5, size=p)
        sigma = sigma * np.outer(d, d)
    sigma = (sigma + sigma.T) / 2.0
    return Model.from_sigma(graph, SymMatrix(names, sigma))


def random_tree_model(rng: np.random.Generator, p: int, rescale: bool = True) -> Model:
    """Model on a uniformly random labelled tree (unique path per pair)."""
    names = vertex_names(p)
    edges = [(names[int(rng.integers(0, i))], names[i]) for i in range(1, p)]
    graph = Graph(names, edges)
    return random_model(rng, p, density=0.0, rescale=rescale, graph=graph)


def tree_with_chords(rng: np.random.Generator, p: int, chords: int) -> Graph:
    """A uniformly random labelled tree plus ``chords`` distinct extra edges."""
    names = vertex_names(p)
    edges = {(names[int(rng.integers(0, i))], names[i]) for i in range(1, p)}
    while len(edges) < p - 1 + chords:
        i, j = sorted(int(v) for v in rng.choice(p, size=2, replace=False))
        edges.add((names[i], names[j]))
    return Graph(names, edges)


def random_decomposable_graph(rng: np.random.Generator, p: int) -> Graph:
    """Random chordal graph built by gluing each new vertex onto a clique."""
    names = vertex_names(p)
    cliques: list[tuple[int, ...]] = [(0,)]
    edges: list[tuple[str, str]] = []
    for i in range(1, p):
        base = cliques[int(rng.integers(0, len(cliques)))]
        take = int(rng.integers(0, len(base) + 1))
        anchor = tuple(sorted(rng.choice(base, size=take, replace=False))) if take else ()
        for j in anchor:
            edges.append((names[j], names[i]))
        cliques.append(anchor + (i,))
    return Graph(names, edges)


# -- oracles -----------------------------------------------------------------


def oracle_weight_complement_form(m: Model, sequence) -> float:
    """Path weight via the complement determinant ratio, plain numpy."""
    k = m.kappa.values
    pos = {v: i for i, v in enumerate(m.vertices)}
    pset = {pos[v] for v in sequence}
    comp = [i for i in range(len(m.vertices)) if i not in pset]
    sign = (-1.0) ** (len(pset) + 1)
    det_comp = np.linalg.det(k[np.ix_(comp, comp)]) if comp else 1.0
    prod = 1.0
    for u, v in zip(sequence, sequence[1:]):
        prod *= k[pos[u], pos[v]]
    return sign * det_comp / np.linalg.det(k) * prod


def oracle_schur(m_values: np.ndarray, a_idx, b_idx) -> np.ndarray:
    a_idx, b_idx = list(a_idx), list(b_idx)
    if not b_idx:
        return m_values[np.ix_(a_idx, a_idx)]
    saa = m_values[np.ix_(a_idx, a_idx)]
    sab = m_values[np.ix_(a_idx, b_idx)]
    sbb = m_values[np.ix_(b_idx, b_idx)]
    return saa - sab @ np.linalg.solve(sbb, sab.T)


def oracle_inflation_factor(m: Model, a, b) -> float:
    """Inflation factor via the three-determinant formula, plain numpy."""
    pos = {v: i for i, v in enumerate(m.vertices)}
    ai = [pos[v] for v in a]
    bi = [pos[v] for v in b]
    if not ai or not bi:
        return 1.0
    s = m.sigma.values
    union = sorted(ai + bi)
    return (
        np.linalg.det(s[np.ix_(ai, ai)])
        * np.linalg.det(s[np.ix_(bi, bi)])
        / np.linalg.det(s[np.ix_(union, union)])
    )


def brute_force_sign_search(m: Model, tol: float = 1e-10):
    """Exhaustive MTP2 sign search over all 2^p sign vectors."""
    names = m.vertices
    edges = m.graph.sorted_edges()
    pcs = [m.partial_corr.entry(u, v) for u, v in edges]
    for bits in itertools.product((1, -1), repeat=len(names)):
        delta = dict(zip(names, bits))
        if all(delta[u] * delta[v] * pc >= -tol for (u, v), pc in zip(edges, pcs)):
            return delta
    return None


def random_vertex_pair(rng: np.random.Generator, m: Model) -> tuple[str, str]:
    x, y = rng.choice(m.vertices, size=2, replace=False)
    return str(x), str(y)
