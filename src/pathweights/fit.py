"""Model fitting and sign-structure analysis.

Two independent pieces of data-side machinery:

- :func:`ips_fit` computes the graph-constrained Gaussian maximum-likelihood
  covariance by iterative proportional scaling over the pairwise generating
  class: the edges, plus a singleton for each isolated vertex (an edge
  already matches the diagonal entries of its endpoints). It runs in
  covariance form (Speed & Kiiveri 1986; Lauritzen 1996, ch. 5): each clique
  step adjusts its block of the concentration matrix and carries the fitted
  covariance along by a low-rank update, so a sweep costs one p x p inverse,
  at its end, instead of one per clique. The fixed point matches the sample
  moments on every edge and on the diagonal while keeping off-edge
  concentrations at exactly zero, so the fitted model is adapted by
  construction.

- :func:`mtp2_sign_search` decides whether flipping the signs of some
  variables can make every edge partial correlation nonnegative. Signs are
  propagated over a spanning forest of the sign-constrained edges and then
  verified on every edge; an assignment exists if and only if every cycle
  carries an even number of negative edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NotConvergedError, NotPositiveDefiniteError
from .graphs import Graph
from .model import Model
from .symmetric import SymMatrix

#: Sign constraints ignore partial correlations this close to zero.
DEFAULT_SIGN_TOL = 1e-10


def ips_fit(
    sample: SymMatrix,
    graph: Graph,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> Model:
    """Graph-constrained MLE covariance via iterative proportional scaling.

    The cliques are the edges in sorted order, after a singleton for each
    isolated vertex. A clique step on c adds Delta = S_cc^-1 - Sigma_cc^-1 to
    K_cc, which makes the fitted Sigma_cc equal S_cc, and updates the fitted
    covariance by Woodbury in O(|c|^3 + p^2):
    Sigma -= Sigma_.c Delta (I + Sigma_cc Delta)^-1 Sigma_c., where
    Delta (I + Sigma_cc Delta)^-1 = Sigma_cc^-1 (Sigma_cc - S_cc) Sigma_cc^-1
    needs no inverse beyond Sigma_cc^-1. A clique has one or two vertices, so
    S_cc^-1 and Sigma_cc^-1 take the closed form of a 1 x 1 or 2 x 2 inverse
    (the general 2 x 2 formula, [[d, -b], [-c, a]] / (ad - bc), in Python
    floats), not a LAPACK call. After each sweep K is symmetrized
    and inverted once, the only p x p inverse of the sweep, so the fitted
    covariance the residual is taken on, and the next sweep starts from, is
    inv(K): rounding drift of the updates never carries past one sweep.

    Parameters
    ----------
    sample : SymMatrix
        Positive-definite sample covariance with one label per graph vertex.
    graph : Graph
        Target independence structure; non-edges become zero concentrations.
    tol : float
        Convergence threshold: maximum absolute mismatch between the fitted
        and sample covariance on the constrained positions (diagonal and
        edges), checked after each full sweep. Must be finite and > 0.
    max_iter : int
        Sweep budget, at least 1; exceeding it raises NotConvergedError with
        diagnostics.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and greater than 0, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    sample = sample.reindexed(graph.vertices)
    if not sample.is_positive_definite():
        raise NotPositiveDefiniteError("sample covariance is not positive definite")
    labels = graph.vertices
    pos = {v: i for i, v in enumerate(labels)}
    p = sample.dim
    s = sample.values

    isolated = [[pos[v]] for v in labels if not graph.neighbors(v)]
    cliques = []
    for c in isolated + [sorted((pos[u], pos[v])) for u, v in graph.sorted_edges()]:
        block = np.ix_(c, c)
        cliques.append((c, block, s[block], _small_inverse(s[block])))
    constrained = np.eye(p, dtype=bool)
    for u, v in graph.edges:
        constrained[pos[u], pos[v]] = constrained[pos[v], pos[u]] = True

    k = np.diag(1.0 / np.diagonal(s))
    fitted = np.diag(np.diagonal(s))
    residual = np.inf
    for _ in range(max_iter):
        for c, block, s_cc, s_cc_inv in cliques:
            sigma_cc = fitted[block]
            sigma_cc_inv = _small_inverse(sigma_cc)
            k[block] += s_cc_inv - sigma_cc_inv
            cols = fitted[:, c]
            fitted -= cols @ (sigma_cc_inv @ (sigma_cc - s_cc) @ sigma_cc_inv) @ cols.T
        k = (k + k.T) / 2.0
        fitted = np.linalg.inv(k)
        residual = float(np.abs((fitted - s)[constrained]).max())
        if residual < tol:
            break
    else:
        raise NotConvergedError(iterations=max_iter, residual=residual, tol=tol)

    fitted = (fitted + fitted.T) / 2.0
    return Model(graph, SymMatrix(labels, fitted), kappa=SymMatrix(labels, k))


def _small_inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a 1 x 1 or 2 x 2 array by its closed form, in Python floats."""
    if len(a) == 1:
        return np.array([[1.0 / a.item(0, 0)]])
    p, q, r, s = a.ravel().tolist()
    det = p * s - q * r
    return np.array([[s / det, -q / det], [-r / det, p / det]])


@dataclass(frozen=True)
class SignAssignment:
    """Per-vertex signs that make every edge partial correlation nonnegative."""

    delta: Mapping[str, int]

    @property
    def flipped(self) -> tuple[str, ...]:
        return tuple(v for v, d in self.delta.items() if d < 0)

    @property
    def is_identity(self) -> bool:
        return not self.flipped


def is_mtp2(m: Model, tol: float = DEFAULT_SIGN_TOL) -> bool:
    """True iff every edge partial correlation is already >= -tol."""
    index = m.graph._index
    return all(m._pcor(index[u], index[v]) >= -tol for u, v in m.graph.edges)


def mtp2_sign_search(m: Model, tol: float = DEFAULT_SIGN_TOL) -> SignAssignment | None:
    """Search for a sign flip of the variables with all-nonnegative edges.

    Returns a :class:`SignAssignment` with delta in {+1, -1} per vertex such
    that delta_u * delta_v * pcor_uv >= -tol on every edge, or None when no
    such assignment exists (equivalently, some cycle of the graph carries an
    odd number of negative edges). Edges with |pcor| <= tol impose no
    constraint. Runs in time linear in the number of edges; exhaustive search
    over sign vectors is needed only as a testing oracle.
    """
    required: dict[tuple[str, str], int] = {}
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in m.graph.vertices}
    index = m.graph._index
    for u, v in m.graph.sorted_edges():
        pc = m._pcor(index[u], index[v])
        if abs(pc) <= tol:
            continue
        sign = 1 if pc > 0 else -1
        required[(u, v)] = sign
        adj[u].append((v, sign))
        adj[v].append((u, sign))

    delta: dict[str, int] = {}
    for root in m.graph.vertices:
        if root in delta:
            continue
        delta[root] = 1
        stack = [root]
        while stack:
            u = stack.pop()
            for v, sign in adj[u]:
                if v not in delta:
                    delta[v] = delta[u] * sign
                    stack.append(v)

    for (u, v), sign in required.items():
        if delta[u] * delta[v] != sign:
            return None
    return SignAssignment(delta={v: delta[v] for v in m.graph.vertices})
