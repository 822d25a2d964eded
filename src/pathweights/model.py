"""Concentration graph models: a graph paired with a compatible covariance.

A model couples an undirected graph with a positive-definite covariance matrix
whose inverse (the concentration matrix) is adapted to the graph: every
non-edge carries a zero concentration, up to a relative tolerance. A model
keeps two p x p matrices, the covariance and the concentration matrix. The
derived matrices below are diagonal rescalings of one of them, each built in
O(p^2) on its first read and kept from then on:

- ``omega``: the correlation matrix (unit-diagonal scaling of the covariance);
- ``partial_corr``: zero-diagonal matrix of edge partial correlations,
  entry (u, v) = -k_uv / sqrt(k_uu * k_vv); queries that need a few of its
  entries, or one block, take them from K with the same float operations
  and never build it;
- ``inflated``: the inflated correlation matrix, the covariance scaled by
  sqrt(diag K) on both sides, equivalently the inverse of (I - partial_corr).
  Its diagonal entries are the per-variable inflation factors and its
  off-diagonal entries are correlations inflated by the geometric mean of the
  endpoint inflation factors. Its determinant, the sharp bound on every
  inflated-correlation path weight, is computed at construction. The
  explicit path forms take their block of it from Sigma and diag K.

One LAPACK Cholesky factor of the covariance serves the whole construction:
its pivots are the positive-definiteness check, solving with it gives the
concentration matrix (unless one is supplied), and with D = diag(K)^(1/2) the
inflated matrix is D Sigma D, so its determinant is |Sigma| * prod k_vv, the
squared product of the pivots times sqrt(k_vv). Up to p = 3 the determinant
takes the exact closed form of the inflated matrix instead. The factor is
dropped before the adaptedness check, which, like the inverse, works a strip
of rows at a time, so building a model holds about 2.5 p^2 floats at most.

Models can be built from an explicit covariance or from edge partial
correlations alone. The latter fixes diag(K) = 1, which is harmless for every
quantity this package reports: path weights are scale-equivariant, so any
diagonal rescaling of the covariance cancels out of normalized output
(correlation and inflated-correlation weights, shares, betweenness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import NotAdaptedError, NotPositiveDefiniteError, UnknownVertexError
from .graphs import Graph
from .symmetric import SymMatrix, _row_strips, _square, chol_det

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
    """Validated pair (graph, covariance) with derived matrices built on first read.

    A model keeps Sigma and K; ``omega``, ``partial_corr`` and ``inflated``
    are read-only properties, each computed on its first read and kept.
    Its graph and matrices are immutable after construction. Analyses keep
    two memos on it, so that calls on one model share work:

    - ``_dets``: the determinant of each block of Sigma that a path-weight
      kernel has factored, keyed by the block's storage positions in the
      order it was taken (see ``weights._PathKernel``); at most
      ``weights.DET_MEMO_SIZE`` blocks, after which no more are added.
    - ``_walks``: one slot for unrestricted ``decompose`` calls, keyed by
      (source, the pair's route of blocks, cap), with whether the last call
      repeated its key. The second consecutive call with a key, or the
      first after a repeated key, walks every path from the source in the
      route once, and keeps the rows to later targets grouped by target, in
      label order within each, with their kernel values on Sigma;
      that call and later ones slice their own target's rows (see
      ``decomposition._shared_pair_paths``). It holds one source's paths,
      and never more than ``cap`` of them.

    Both hold values that depend only on the model and their key, so a value
    read from them has the bits the reader would compute itself. A model is
    safe to share across threads: concurrent first reads of a derived matrix
    each compute it from the same operands; a memo entry is written whole,
    and the walk slot is replaced by one assignment of a new tuple, so a
    reader sees the old slot or the new one, and at worst walks again. Use
    the classmethods :meth:`from_sigma` and :meth:`from_partial_correlations`
    rather than the constructor unless you already hold a concentration
    matrix known to be exact (the fitting code does).
    """

    __slots__ = ("graph", "sigma", "kappa", "tol", "source_kind", "_inflated_det",
                 "_omega", "_partial_corr", "_inflated", "_dets", "_walks")

    def __init__(
        self,
        graph: Graph,
        sigma: SymMatrix,
        kappa: SymMatrix | None = None,
        tol: float = DEFAULT_ADAPTED_TOL,
        source_kind: str = "sigma",
    ):
        if set(sigma.labels) != set(graph.vertices):
            raise UnknownVertexError(sorted(set(sigma.labels) ^ set(graph.vertices)))
        sigma = sigma.reindexed(graph.vertices)
        try:
            factor = sigma._pd_factor()
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError("covariance matrix is not positive definite") from exc
        kappa = sigma._inverse(factor) if kappa is None else kappa.reindexed(graph.vertices)
        pivots = np.diagonal(factor).copy()  # a copy, so the p^2 floats of the factor go now
        del factor
        self.graph = graph
        self.sigma = sigma
        self.kappa = kappa
        self.tol = tol
        self.source_kind = source_kind
        self._omega = self._partial_corr = self._inflated = None
        self._dets: dict[tuple[int, ...], float] = {}
        self._walks: tuple | None = None
        self._check_adapted()
        dk = np.sqrt(np.diagonal(kappa.values))
        # |varrho| = |Sigma| * prod k_vv, from the factor of Sigma; closed forms up to p = 3
        self._inflated_det = (chol_det(sigma.values * np.outer(dk, dk)) if len(dk) <= 3
                              else _square(math.prod((dk * pivots).tolist())))

    def _check_adapted(self) -> None:
        k = self.kappa.values
        diag = np.diagonal(k)
        g = self.graph
        # |k_ij| / sqrt(k_ii k_jj), with K scaled by one exact power of two about
        # the middle of its diagonal's exponents, so the product neither
        # overflows nor underflows and each finite magnitude keeps its bits;
        # upper triangle only, a strip of rows at a time, so row-major overall
        e = (np.frexp(diag.max())[1] + np.frexp(diag.min())[1]) // 2 if len(diag) else 0
        d = np.ldexp(diag, -e)
        labels = g.vertices
        violations = []
        for s, t in _row_strips(len(labels)):
            mag = np.ldexp(np.abs(k[s:t, s:]), -e) / np.sqrt(np.outer(d[s:t], d[s:]))
            adjacent = np.eye(t - s, len(labels) - s, dtype=bool)
            u = np.repeat(np.arange(t - s), np.diff(g._indptr[s:t + 1]))
            w = g._indices[g._indptr[s]:g._indptr[t]] - s
            adjacent[u[w >= 0], w[w >= 0]] = True
            rows, cols = np.nonzero(np.triu(~adjacent & (mag > self.tol)))
            violations += [(labels[s + i], labels[s + j], mag[i, j])
                           for i, j in zip(rows.tolist(), cols.tolist())]
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

    @property
    def partial_corr(self) -> SymMatrix:
        """Edge partial correlations -k_uv / sqrt(k_uu k_vv), 0 on the diagonal."""
        if self._partial_corr is None:
            # exactly symmetric: an entry and its mirror come from the same operands
            self._partial_corr = SymMatrix._derived(self.graph.vertices, _pcor_block(self.kappa.values))
        return self._partial_corr

    def _pcor(self, i: int, j: int) -> float:
        """Entry (i, j), i != j, of ``partial_corr`` by vertex index, taken from K
        with the same float operations, so with the same bits, without building R."""
        k = self.kappa.values
        return -k.item(i, j) / (math.sqrt(k.item(i, i)) * math.sqrt(k.item(j, j)))

    @property
    def omega(self) -> SymMatrix:
        """The correlation matrix, Sigma scaled to a unit diagonal."""
        if self._omega is None:
            ds = np.sqrt(self.sigma.diagonal())
            self._omega = SymMatrix._derived(self.graph.vertices, self.sigma.values / np.outer(ds, ds))
        return self._omega

    @property
    def inflated(self) -> SymMatrix:
        """The inflated correlation matrix D Sigma D, D = diag(K)^(1/2)."""
        if self._inflated is None:
            self._inflated = SymMatrix._derived(
                self.graph.vertices, _inflated_block(self.sigma.values, np.diagonal(self.kappa.values)))
        return self._inflated

    def edge_partial_correlation(self, u: str, v: str) -> float:
        if not self.graph.has_edge(u, v):
            raise ValueError(f"{u!r}--{v!r} is not an edge of the graph")
        return self._pcor(self.graph._index[u], self.graph._index[v])

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
        return SymMatrix(a, np.eye(len(a)) - _pcor_block(self.kappa.submatrix(a).values)).inverse()

    def __repr__(self) -> str:
        return f"Model({self.graph!r}, source={self.source_kind!r})"


def _pcor_block(k: np.ndarray) -> np.ndarray:
    """The partial correlations -k_uv / sqrt(k_uu k_vv) of a principal block
    ``k`` of K, 0 on the diagonal: the same block of ``Model.partial_corr``,
    bit for bit, without the rest of it."""
    dk = np.sqrt(np.diagonal(k))
    r = -k / np.outer(dk, dk)
    np.fill_diagonal(r, 0.0)
    return r


def _inflated_block(s: np.ndarray, k_diag: np.ndarray) -> np.ndarray:
    """D s D, D = diag(k_diag)^(1/2), for a principal block ``s`` of Sigma and
    the diagonal ``k_diag`` of K on the same vertices: the same block of
    ``Model.inflated``, bit for bit, without the rest of it."""
    dk = np.sqrt(k_diag)
    return s * np.outer(dk, dk)
