"""Dense symmetric matrices indexed by vertex labels.

Everything downstream (covariance, concentration, correlation and
inflated-correlation matrices, and all their principal sub-blocks) lives in a
:class:`SymMatrix`: a square, exactly-symmetric float matrix whose rows and
columns are addressed by opaque string labels rather than integer positions.
Sub-block extraction always preserves the label order of the parent matrix,
which keeps determinant and Schur-complement calculations immune to silent
permutation bugs.

Determinants and inverses go through Cholesky factorization (all matrices in
scope are positive-definite principal submatrices); the determinant is the
product of squared pivots, and its logarithm, for blocks whose determinant
leaves the float range, twice the sum of the log pivots.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np
from scipy import linalg as sla

from .errors import InvalidMatrixError, NotPositiveDefiniteError, UnknownVertexError

#: Relative pivot tolerance for positive-definiteness checks.
DEFAULT_PIVOT_TOL = 1e-12

#: Relative tolerance for accepting nearly-symmetric input before averaging.
DEFAULT_SYMMETRY_TOL = 1e-12


def _closed_form_det(e, n: int):
    """Exact determinant closed forms for n <= 3, from the row-major entries
    ``e`` of a matrix (floats, or one array per entry across a stack)."""
    if n == 1:
        return e[0]
    if n == 2:
        return e[0] * e[3] - e[1] * e[2]
    return (
        e[0] * (e[4] * e[8] - e[5] * e[7])
        - e[1] * (e[3] * e[8] - e[5] * e[6])
        + e[2] * (e[3] * e[7] - e[4] * e[6])
    )


def chol_det(a: np.ndarray) -> float:
    """Determinant of a symmetric matrix, empty-matrix convention det([]) = 1.

    Dimensions up to three use the exact closed forms; larger matrices use
    Cholesky (product of squared pivots) with an LU fallback for
    symmetric-indefinite input, so the function is total.
    """
    return chol_dets(a[None])[0]


def chol_dets(blocks: np.ndarray) -> list[float]:
    """:func:`chol_det` of every matrix in a ``(k, n, n)`` stack.

    One stacked Cholesky factors them all; if a block is not positive
    definite, each block is taken on its own and the ones Cholesky rejects go
    to ``np.linalg.det`` (LU). The pivot product of each block is reduced left
    to right: with ``math.prod`` over Python floats for fewer blocks than
    pivots (a SIMD reduction along a contiguous axis may round differently),
    else column by column across blocks. It is squared as a Python float. An
    overflow at either step gives inf, with no warning. So every block gets
    the bits it gets alone.
    """
    k, n = blocks.shape[:2]
    if n == 0:
        return [1.0] * k
    if n <= 3:
        if k == 1:  # on Python floats: for one block, array calls cost more than the arithmetic
            return [_closed_form_det(blocks.ravel().tolist(), n)]
        return _closed_form_det(blocks.reshape(k, n * n).T, n).tolist()
    try:
        factors = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        if k == 1:
            return [float(np.linalg.det(blocks[0]))]
        return [chol_dets(b[None])[0] for b in blocks]
    if k < n:
        prods = [math.prod(np.diagonal(f).tolist()) for f in factors]
    else:
        pivots = np.diagonal(factors, axis1=1, axis2=2)
        prods = pivots[:, 0]
        with np.errstate(over="ignore"):
            for j in range(1, n):
                prods = prods * pivots[:, j]
        prods = prods.tolist()
    return [_square(p) for p in prods]


def _square(p: float) -> float:
    try:
        return p ** 2
    except OverflowError:
        return math.inf


def chol_slogdet(a: np.ndarray) -> tuple[float, float]:
    """Sign and log|det| of a symmetric matrix, for determinants that overflow
    or underflow: twice the summed log Cholesky pivots, or ``np.linalg.slogdet``
    (LU) for a matrix Cholesky rejects. The empty matrix gives (1, 0)."""
    try:
        return 1.0, 2.0 * float(np.log(np.diagonal(np.linalg.cholesky(a))).sum())
    except np.linalg.LinAlgError:
        sign, logdet = np.linalg.slogdet(a)
        return float(sign), float(logdet)


def det_product(factors: Sequence[tuple["SymMatrix", Iterable[str] | None, int]],
                dets: Sequence[float] | None = None) -> float:
    """Product of ``|M_LL| ** e`` over the ``(M, L, e)`` factors, e = 1 or -1
    (L None: all of M), taken left to right from 1.0. ``dets``, when given,
    holds the factors' determinants, already taken by the caller.

    Where the direct product is not finite or is 0, or divides by a
    determinant that underflows to 0 (the blocks of a long path overflow or
    underflow while their ratio does not), it is taken as
    sign * exp(sum e log|M_LL|) instead.
    """
    if dets is None:
        dets = [mat.det(labels) for mat, labels, _ in factors]
    out = 1.0
    try:
        for d, (_, _, e) in zip(dets, factors):
            out = out * d if e > 0 else out / d
    except ZeroDivisionError:
        out = 0.0
    if out != 0.0 and math.isfinite(out):
        return out
    sign, log = 1.0, 0.0
    for mat, labels, e in factors:
        s, logdet = mat.slogdet(labels)
        sign, log = sign * s, log + e * logdet
    with np.errstate(over="ignore"):
        return float(sign * np.exp(log))


class SymMatrix:
    """Symmetric real matrix with vertex-label indexing.

    Parameters
    ----------
    labels : sequence of str
        Unique row/column identifiers; the storage order of the matrix.
    values : array-like, shape (n, n)
        Matrix entries. Must be finite and symmetric within ``symmetry_tol``
        (relative to the largest absolute entry); storage is symmetrized by
        averaging, so ``entry(u, v) == entry(v, u)`` holds exactly afterwards.
    """

    __slots__ = ("labels", "values", "_pos")

    def __init__(self, labels: Sequence[str], values, symmetry_tol: float = DEFAULT_SYMMETRY_TOL):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InvalidMatrixError("labels must be unique")
        a = np.array(values, dtype=float)
        if a.shape != (len(labels), len(labels)):
            raise InvalidMatrixError(
                f"expected a {len(labels)}x{len(labels)} matrix, got shape {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise InvalidMatrixError("matrix entries must be finite")
        if a.size:
            scale = max(1.0, float(np.abs(a).max()))
            asym = float(np.abs(a - a.T).max())
            if asym > symmetry_tol * scale:
                raise InvalidMatrixError(
                    f"matrix is not symmetric: max |a - a.T| = {asym:.3e}"
                )
        a = (a + a.T) / 2.0
        a.flags.writeable = False
        self.labels = labels
        self.values = a
        self._pos = {lab: i for i, lab in enumerate(labels)}

    # -- indexing ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._pos

    def positions(self, labels: Iterable[str]) -> list[int]:
        """Positions of ``labels``, sorted into parent storage order."""
        labels = tuple(labels)
        missing = [lab for lab in labels if lab not in self._pos]
        if missing:
            raise UnknownVertexError(missing)
        return sorted(self._pos[lab] for lab in labels)

    def entry(self, u: str, v: str) -> float:
        iu, iv = self.positions([u])[0], self.positions([v])[0]
        return float(self.values[iu, iv])

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values).copy()

    def submatrix(self, labels: Iterable[str]) -> "SymMatrix":
        """Principal submatrix on ``labels``, keeping parent label order."""
        idx = self.positions(labels)
        return SymMatrix([self.labels[i] for i in idx], self.values[np.ix_(idx, idx)])

    def reindexed(self, labels: Sequence[str]) -> "SymMatrix":
        """The same matrix with rows and columns permuted into ``labels`` order."""
        labels = tuple(labels)
        if set(labels) != set(self.labels) or len(labels) != self.dim:
            raise UnknownVertexError(set(labels) ^ set(self.labels))
        if labels == self.labels:
            return self
        idx = [self._pos[lab] for lab in labels]
        return SymMatrix(labels, self.values[np.ix_(idx, idx)])

    # -- factorization-backed operations ----------------------------------

    def is_positive_definite(self, tol: float = DEFAULT_PIVOT_TOL) -> bool:
        """True iff Cholesky succeeds with every pivot > tol * max diagonal."""
        if self.dim == 0:
            return True
        diag = np.diagonal(self.values)
        if diag.max() <= 0:
            return False
        try:
            pivots = np.diagonal(np.linalg.cholesky(self.values)) ** 2
        except np.linalg.LinAlgError:
            return False
        return bool(np.all(pivots > tol * diag.max()))

    def det(self, labels: Iterable[str] | None = None) -> float:
        """Determinant of the principal submatrix on ``labels`` (default: all).

        The determinant of the empty-set block is 1 by convention.
        """
        return chol_det(self._block(labels))

    def slogdet(self, labels: Iterable[str] | None = None) -> tuple[float, float]:
        """:func:`chol_slogdet` of the principal submatrix on ``labels``."""
        return chol_slogdet(self._block(labels))

    def _block(self, labels: Iterable[str] | None) -> np.ndarray:
        if labels is None:
            return self.values
        idx = np.array(self.positions(labels), dtype=np.intp)
        return self.values[idx[:, None], idx]

    def inverse(self) -> "SymMatrix":
        """Inverse via Cholesky; raises NotPositiveDefiniteError otherwise."""
        if self.dim == 0:
            return self
        try:
            factor = sla.cho_factor(self.values, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
        inv = sla.cho_solve(factor, np.eye(self.dim))
        return SymMatrix(self.labels, (inv + inv.T) / 2.0)

    def schur_complement(self, a_labels: Iterable[str], b_labels: Iterable[str]) -> "SymMatrix":
        """Partial covariance block: M[A,A] - M[A,B] M[B,B]^{-1} M[B,A].

        A and B must be disjoint label sets; B may be empty, in which case the
        A-block is returned unchanged. Requires M[B,B] positive definite.
        """
        a_idx = self.positions(a_labels)
        b_idx = self.positions(b_labels)
        overlap = set(a_idx) & set(b_idx)
        if overlap:
            raise ValueError(
                f"A and B must be disjoint; both contain {sorted(self.labels[i] for i in overlap)}"
            )
        a_names = [self.labels[i] for i in a_idx]
        if not b_idx:
            return SymMatrix(a_names, self.values[np.ix_(a_idx, a_idx)])
        saa = self.values[np.ix_(a_idx, a_idx)]
        sab = self.values[np.ix_(a_idx, b_idx)]
        sbb = self.values[np.ix_(b_idx, b_idx)]
        try:
            factor = sla.cho_factor(sbb, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"conditioning block is not positive definite: {exc}"
            ) from exc
        out = saa - sab @ sla.cho_solve(factor, sab.T)
        return SymMatrix(a_names, (out + out.T) / 2.0)

    def __repr__(self) -> str:
        return f"SymMatrix(labels={self.labels!r}, dim={self.dim})"
