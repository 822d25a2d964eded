"""Concentration graph models: a graph paired with a compatible covariance.

A model couples an undirected graph with a positive-definite covariance matrix
whose inverse (the concentration matrix) is adapted to the graph: every
non-edge carries a zero concentration, up to a relative tolerance. All derived
matrices are computed once at construction and cached immutably:

- ``omega``: the correlation matrix (unit-diagonal scaling of the covariance);
- ``partial_corr``: zero-diagonal matrix of edge partial correlations,
  entry (u, v) = -k_uv / sqrt(k_uu * k_vv);
- ``inflated``: the inflated correlation matrix, the covariance scaled by
  sqrt(diag K) on both sides, equivalently the inverse of (I - partial_corr).
  Its diagonal entries are the per-variable inflation factors and its
  off-diagonal entries are correlations inflated by the geometric mean of the
  endpoint inflation factors. Its determinant, the sharp bound on every
  inflated-correlation path weight, is computed once as well.

Models can be built from an explicit covariance or from edge partial
correlations alone. The latter fixes diag(K) = 1, which is harmless for every
quantity this package reports: path weights are scale-equivariant, so any
diagonal rescaling of the covariance cancels out of normalized output
(correlation and inflated-correlation weights, shares, betweenness).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import NotAdaptedError, NotPositiveDefiniteError, UnknownVertexError
from .graphs import Graph
from .symmetric import SymMatrix, chol_det

#: Default relative tolerance for the adaptedness check.
DEFAULT_ADAPTED_TOL = 1e-8


class Measure(Enum):
    """Association measure whose decomposition a path weight contributes to."""

    COVARIANCE = "covariance"
    CORRELATION = "correlation"
    INFLATED_CORRELATION = "inflated_correlation"


@dataclass(frozen=True)
class CustomScaling:
    """Measure defined by a congruence D * Sigma * D with nonzero diagonal D."""

    delta: Mapping[str, float]

    def __post_init__(self):
        for v, d in self.delta.items():
            if not np.isfinite(d) or d == 0.0:
                raise ValueError(f"scaling entry for {v!r} must be finite and nonzero, got {d}")

    def __hash__(self):  # ``delta`` is a mapping: hash its items, which equal scalings share
        return hash(frozenset(self.delta.items()))


#: Anything accepted where an association measure is expected.
Kind = Measure | CustomScaling


class Model:
    """Validated pair (graph, covariance) with cached derived matrices.

    Immutable after construction; safe to share across threads. No analysis
    writes to a model: state such as the block determinants a decomposition
    shares between its paths lives in that one call. Use the
    classmethods :meth:`from_sigma` and :meth:`from_partial_correlations`
    rather than the constructor unless you already hold a concentration
    matrix known to be exact (the fitting code does).
    """

    __slots__ = ("graph", "sigma", "kappa", "tol", "omega", "partial_corr",
                 "inflated", "_inflated_det", "source_kind")

    def __init__(
        self,
        graph: Graph,
        sigma: SymMatrix,
        kappa: SymMatrix | None = None,
        tol: float = DEFAULT_ADAPTED_TOL,
        source_kind: str = "sigma",
    ):
        if set(sigma.labels) != set(graph.vertices):
            raise UnknownVertexError(set(sigma.labels) ^ set(graph.vertices))
        sigma = sigma.reindexed(graph.vertices)
        if not sigma.is_positive_definite():
            raise NotPositiveDefiniteError("covariance matrix is not positive definite")
        kappa = sigma.inverse() if kappa is None else kappa.reindexed(graph.vertices)
        self.graph = graph
        self.sigma = sigma
        self.kappa = kappa
        self.tol = tol
        self.source_kind = source_kind
        self._check_adapted()
        k = kappa.values
        dk = np.sqrt(np.diagonal(k))
        r = -k / np.outer(dk, dk)
        np.fill_diagonal(r, 0.0)
        ds = np.sqrt(sigma.diagonal())
        self.partial_corr = SymMatrix(graph.vertices, r)
        self.omega = SymMatrix(graph.vertices, sigma.values / np.outer(ds, ds))
        self.inflated = SymMatrix(graph.vertices, sigma.values * np.outer(dk, dk))
        self._inflated_det = chol_det(self.inflated.values)

    def _check_adapted(self) -> None:
        k = self.kappa.values
        scale = np.sqrt(np.outer(np.diagonal(k), np.diagonal(k)))
        g = self.graph
        adjacent = np.eye(len(g.vertices), dtype=bool)
        adjacent[np.repeat(np.arange(len(g.vertices)), np.diff(g._indptr)), g._indices] = True
        mag = np.abs(k) / scale
        rows, cols = np.nonzero(np.triu(~adjacent & (mag > self.tol)))
        labels = g.vertices
        violations = [(labels[i], labels[j], mag[i, j]) for i, j in zip(rows.tolist(), cols.tolist())]
        if violations:
            raise NotAdaptedError(violations)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_sigma(cls, graph: Graph, sigma: SymMatrix, tol: float = DEFAULT_ADAPTED_TOL) -> "Model":
        """Model from an explicit covariance; verifies PD and adaptedness."""
        return cls(graph, sigma, tol=tol)

    @classmethod
    def from_partial_correlations(
        cls,
        graph: Graph,
        pcor: Mapping[tuple[str, str], float],
        tol: float = DEFAULT_ADAPTED_TOL,
    ) -> "Model":
        """Model from per-edge partial correlations, diag(K) fixed to 1.

        ``pcor`` must give a value in (-1, 1) for every edge of the graph,
        keyed by vertex pair in either orientation. The concentration matrix
        is I - R with R holding the given values on edges and zeros elsewhere;
        the model is adapted by construction. Because diag(K) = 1, the
        resulting covariance coincides with the inflated correlation matrix.
        """
        labels = graph.vertices
        pos = {v: i for i, v in enumerate(labels)}
        seen = set()
        r = np.zeros((len(labels), len(labels)))
        for (u, v), val in pcor.items():
            if not graph.has_edge(u, v):
                raise ValueError(f"{u!r}--{v!r} is not an edge of the graph")
            if not -1.0 < val < 1.0:
                raise ValueError(f"partial correlation for {u!r}--{v!r} must lie in (-1, 1), got {val}")
            key = (u, v) if u <= v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate partial correlation for edge {u!r}--{v!r}")
            seen.add(key)
            r[pos[u], pos[v]] = r[pos[v], pos[u]] = val
        missing = sorted(e for e in graph.edges if e not in seen)
        if missing:
            raise ValueError(f"missing partial correlations for edges: {missing}")
        kappa = SymMatrix(labels, np.eye(len(labels)) - r)
        sigma = kappa.inverse()  # raises NotPositiveDefiniteError if I - R is not PD
        return cls(graph, sigma, kappa=kappa, tol=tol, source_kind="pcor")

    # -- derived matrices ----------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.graph.vertices

    def edge_partial_correlation(self, u: str, v: str) -> float:
        if not self.graph.has_edge(u, v):
            raise ValueError(f"{u!r}--{v!r} is not an edge of the graph")
        return self.partial_corr.entry(u, v)

    def partial_covariance(self, a: Iterable[str], given: Iterable[str] | None = None) -> SymMatrix:
        """Covariance of X_A adjusted for X_B (default B: everything else)."""
        a = self.graph.require_vertices(a)
        b = self.graph.complement(a) if given is None else self.graph.require_vertices(given)
        return self.sigma.schur_complement(a, b)

    def conditional_correlation(self, a: Iterable[str]) -> SymMatrix:
        """Correlation matrix of X_A given the rest: scaled partial covariance."""
        a = self.graph.require_vertices(a)
        cond = self.partial_covariance(a)
        d = np.sqrt(cond.diagonal())
        return SymMatrix(cond.labels, cond.values / np.outer(d, d))

    def conditional_inflated_correlation(self, a: Iterable[str]) -> SymMatrix:
        """Inflated correlation matrix of X_A given the rest.

        Computed as the inverse of the A-block of (I - partial_corr); equals
        the Schur complement of the full inflated correlation matrix on
        (A, complement of A).
        """
        a = self.graph.require_vertices(a)
        if not a:
            raise ValueError("conditioning set must be nonempty")
        return SymMatrix(a, np.eye(len(a)) - self.partial_corr.submatrix(a).values).inverse()

    def __repr__(self) -> str:
        return f"Model({self.graph!r}, source={self.source_kind!r})"
