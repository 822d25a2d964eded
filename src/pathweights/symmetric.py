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
leaves the float range, twice the sum of the log pivots. A determinant is
taken by one routine, :func:`_principal_det`, on an array and the ascending
integer positions of its block (closed forms up to three positions). Every
product of determinants with each other or with scalars (path weights, their
explicit forms, inflation factors, global collinearity) goes through
:func:`det_product`, which takes each determinant factor in that one form,
an array and its positions, and is the one place that falls back to log
space where the direct product overflows, underflows or divides by 0.

Inverses and Schur complements factor and solve with LAPACK's dpotrf and
dpotrs from scipy's compiled wrapper ``scipy/linalg/_flapack``, loaded from
its file: the same calls, with the same arguments, as
``scipy.linalg.cho_factor``/``cho_solve``, so every value has their bits,
without the package init of ``scipy.linalg``, which is most of the start-up
of a fresh process (its array-API layer imports ``numpy.f2py`` and
``numpy.testing``). numpy's triangular solves round differently, so
replacing the wrapper with numpy waits for the golden CLI outputs to be
re-recorded (ROADMAP item 1).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidMatrixError, NotPositiveDefiniteError, UnknownVertexError

#: Relative pivot tolerance for positive-definiteness checks.
DEFAULT_PIVOT_TOL = 1e-12

#: Relative tolerance for accepting nearly-symmetric input before averaging.
DEFAULT_SYMMETRY_TOL = 1e-12


def _load_flapack():
    """scipy's compiled LAPACK wrapper, loaded from its file under the installed
    scipy directory; neither ``scipy`` nor ``scipy.linalg`` is imported. It is
    registered in ``sys.modules`` under its own name, so a later import of
    ``scipy.linalg`` in the process uses this same module."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed: its LAPACK wrapper is needed")
    stem = os.path.join(spec.submodule_search_locations[0], "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK wrapper not found: no {stem}"
                      f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")


_flapack = _load_flapack()


def _cho_factor(a: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_factor(a, lower=True)[0]``: the lower Cholesky factor
    of a finite symmetric ``a``, its strict upper triangle left as in ``a``."""
    c, info = _flapack.dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument on entry to \"POTRF\".")
    return c


def _cho_solve(c: np.ndarray, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """``scipy.linalg.cho_solve((c, True), b)``: solve A x = b for a 2-D ``b``,
    given the factor ``c`` of A from :func:`_cho_factor`. With ``overwrite_b``
    and a Fortran-ordered float ``b``, x is solved in b's own storage."""
    x, info = _flapack.dpotrs(c, b, lower=1, overwrite_b=int(overwrite_b))
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


#: Entries per strip of rows in the strip-wise passes over a p x p matrix, so
#: their temporaries stay small next to the matrix (256 KiB of float64).
_STRIP_ENTRIES = 1 << 15


def _row_strips(n: int) -> Iterable[tuple[int, int]]:
    """Bounds ``(s, e)`` of consecutive strips of rows of an n x n matrix that
    cover ``range(n)``, each of at most :data:`_STRIP_ENTRIES` entries (one row
    at least)."""
    rows = max(1, _STRIP_ENTRIES // max(1, n))
    return ((s, min(s + rows, n)) for s in range(0, n, rows))


def _mean_with_transpose(a: np.ndarray) -> np.ndarray:
    """Overwrite the square array ``a`` with ``(a + a.T) / 2.0``, a strip of
    rows at a time, and return it. Where the sum overflows, the entry is the
    sum of the two halves, the same mean without the overflow; every other
    entry keeps the bits of ``(a + a.T) / 2.0``. The mean is commutative, so
    the result is exactly symmetric."""
    n = len(a)
    for s, e in _row_strips(n):
        upper, lower = a[s:e, s:], a[s:, s:e].T
        with np.errstate(over="ignore"):
            t = upper + lower
        over = np.isinf(t)
        t /= 2.0
        if over.any():
            t[over] = upper[over] * 0.5 + lower[over] * 0.5
        upper[...] = t
        # the strip's diagonal block of t is exactly symmetric and written; the rows below are not
        a[e:, s:e] = t[:, e - s:].T
    return a


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
    return _principal_det(a).value


class _Det(NamedTuple):
    """A determinant taken by :func:`_principal_det`, with the diagonal of the
    Cholesky factor it came from (None for the closed forms and for LU), and
    whether a closed form (n <= 3) gave it."""

    value: float
    pivots: np.ndarray | None
    closed: bool = False


def _principal_det(a: np.ndarray, idx: Sequence[int] | None = None) -> _Det:
    """:func:`chol_det` of the principal block of ``a`` on the ascending
    positions ``idx`` (None: all of ``a``), keeping the pivots for a
    log-determinant. Up to three positions, the entries are read one by one
    into the closed forms, in the order the block's ``ravel`` gives them, so
    no block is taken and the value has its bits."""
    n = len(a) if idx is None else len(idx)
    if n <= 3:
        e = a.ravel().tolist() if idx is None else [a.item(i, j) for i in idx for j in idx]
        return _Det(_closed_form_det(e, n) if n else 1.0, None, True)
    a = _principal_block(a, idx)
    try:
        pivots = np.diagonal(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        return _Det(float(np.linalg.det(a)), None)
    return _Det(_square(math.prod(pivots.tolist())), pivots)


def _principal_block(a: np.ndarray, idx: Sequence[int] | None) -> np.ndarray:
    """The principal block of ``a`` on the ascending positions ``idx`` (None: all of ``a``)."""
    if idx is None:
        return a
    idx = np.asarray(idx, dtype=np.intp)
    return a[idx[:, None], idx]


def chol_dets(blocks: np.ndarray) -> list[float]:
    """:func:`chol_det` of every matrix in a ``(k, n, n)`` stack with n >= 1.

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
    if k == 1:  # on Python floats: for one block, array calls cost more than the arithmetic
        return [_principal_det(blocks[0]).value]
    if n <= 3:
        return _closed_form_det(blocks.reshape(k, n * n).T, n).tolist()
    try:
        factors = np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        return [_principal_det(b).value for b in blocks]
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


def det_product(factors: Sequence[tuple], dets: Sequence | None = None) -> float:
    """Product of ``factors``, left to right from 1.0: the one routine that
    multiplies determinants together or with scalars.

    A factor is ``(a, idx, e)``, ``|a_idx,idx| ** e`` with e = 1 or -1, for
    an array ``a`` and its ascending positions ``idx`` (None: all of ``a``);
    or ``(v,)``, a run of scalars (edge values, an endpoint scale) reduced
    left to right from 1.0 on its own, then multiplied in. ``dets``, when
    given, holds each factor's value, already taken by the caller: a run's
    product, and a determinant as :func:`_principal_det` gives it.

    Where the direct product is not finite, or is 0 with no scalar 0, or
    divides by a determinant that underflows to 0, it is taken as
    sign * exp(sum of the log-magnitudes) instead. A determinant's log comes
    from the Cholesky pivots that gave its value, or from the value of a
    closed form that is finite and not 0; only a block that had neither (LU,
    or a closed form at 0 or out of range) is factored for it.
    """
    runs = [list(map(float, f[0])) if len(f) == 1 else None for f in factors]
    if dets is None:
        dets = [math.prod(v) if v is not None else _principal_det(f[0], f[1])
                for v, f in zip(runs, factors)]
    out = 1.0
    try:
        for d, v, f in zip(dets, runs, factors):
            d = float(d) if v is not None else d.value
            out = out / d if v is None and f[2] < 0 else out * d
    except ZeroDivisionError:
        out = math.nan
    if math.isfinite(out) and (out != 0.0 or any(0.0 in v for v in runs if v is not None)):
        return out
    sign, log = 1.0, 0.0
    with np.errstate(divide="ignore"):
        for d, v, f in zip(dets, runs, factors):
            if v is not None:
                sign, log = sign * np.prod(np.sign(v)), log + np.log(np.abs(v)).sum()
            else:
                if d.pivots is not None:  # the factor that gave the value, as chol_slogdet takes it
                    s, logdet = 1.0, 2.0 * float(np.log(d.pivots).sum())
                elif d.closed and d.value != 0.0 and math.isfinite(d.value):
                    s, logdet = math.copysign(1.0, d.value), math.log(abs(d.value))
                else:
                    s, logdet = chol_slogdet(_principal_block(f[0], f[1]))
                sign, log = sign * s, log + f[2] * logdet
    with np.errstate(over="ignore"):
        return float(sign * np.exp(log))


def _require_unique(labels: tuple[str, ...]) -> None:
    """Raise InvalidMatrixError naming the first label of ``labels`` that repeats an earlier one."""
    if len(set(labels)) < len(labels):
        repeated = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
        raise InvalidMatrixError(f"label {repeated!r} is repeated")


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
        if not np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):  # bitwise, so 0.0 is not -0.0
            scale = max(1.0, float(np.abs(a).max()))
            with np.errstate(over="ignore"):
                asym = float(np.abs(a - a.T).max())
            if asym > symmetry_tol * scale:
                raise InvalidMatrixError(
                    f"matrix is not symmetric: max |a - a.T| = {asym:.3e}"
                )
            a = _mean_with_transpose(a)
        self._set(labels, a)

    @classmethod
    def _derived(cls, labels: tuple[str, ...], a: np.ndarray) -> "SymMatrix":
        """A matrix derived from checked ones and exactly symmetric by
        construction: ``labels`` unique and ``a`` a float array of their shape,
        owned by the new matrix. Only the finiteness check is kept (an inverse
        can overflow); the symmetry check and the averaging, which would leave
        every entry as it is, are skipped."""
        if not np.all(np.isfinite(a)):
            raise InvalidMatrixError("matrix entries must be finite")
        out = cls.__new__(cls)
        out._set(labels, a)
        return out

    def _set(self, labels: tuple[str, ...], a: np.ndarray) -> None:
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
        """Positions of ``labels``, sorted into parent storage order; a
        repeated label is an InvalidMatrixError."""
        labels = tuple(labels)
        _require_unique(labels)
        missing = [lab for lab in labels if lab not in self._pos]
        if missing:
            raise UnknownVertexError(missing)
        return sorted(self._pos[lab] for lab in labels)

    def entry(self, u: str, v: str) -> float:
        if u not in self._pos or v not in self._pos:
            raise UnknownVertexError([u if u not in self._pos else v])
        return self.values.item(self._pos[u], self._pos[v])

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values).copy()

    def submatrix(self, labels: Iterable[str]) -> "SymMatrix":
        """Principal submatrix on ``labels``, keeping parent label order."""
        idx = self.positions(labels)
        return SymMatrix._derived(tuple(self.labels[i] for i in idx), self.values[np.ix_(idx, idx)])

    def reindexed(self, labels: Sequence[str]) -> "SymMatrix":
        """The same matrix with rows and columns permuted into ``labels`` order."""
        labels = tuple(labels)
        _require_unique(labels)
        if set(labels) != set(self.labels):
            raise UnknownVertexError(sorted(set(labels) ^ set(self.labels)))
        if labels == self.labels:
            return self
        idx = [self._pos[lab] for lab in labels]
        return SymMatrix._derived(labels, self.values[np.ix_(idx, idx)])

    # -- factorization-backed operations ----------------------------------

    def is_positive_definite(self, tol: float = DEFAULT_PIVOT_TOL) -> bool:
        """True iff Cholesky succeeds with every squared pivot > tol * max diagonal."""
        try:
            self._pd_factor(tol)
        except NotPositiveDefiniteError:
            return False
        return True

    def _pd_factor(self, tol: float = DEFAULT_PIVOT_TOL) -> np.ndarray:
        """The lower Cholesky factor of :func:`_cho_factor`, checked by the one
        positive-definiteness rule: dpotrf succeeds and every squared pivot
        exceeds ``tol`` times the largest diagonal entry. Raises
        NotPositiveDefiniteError otherwise. The empty matrix is its own factor."""
        if self.dim == 0:
            return self.values
        try:
            factor = _cho_factor(self.values)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
        if not np.all(np.diagonal(factor) ** 2 > tol * np.diagonal(self.values).max()):
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: a squared Cholesky pivot is at most "
                f"{tol:g} times the largest diagonal entry"
            )
        return factor

    def det(self, labels: Iterable[str] | None = None) -> float:
        """Determinant of the principal submatrix on ``labels`` (default: all).

        The determinant of the empty-set block is 1 by convention.
        """
        return _principal_det(self.values, None if labels is None else self.positions(labels)).value

    def inverse(self) -> "SymMatrix":
        """Inverse via Cholesky; raises NotPositiveDefiniteError unless the
        factorization succeeds (:meth:`_pd_factor` with tolerance 0: a
        near-singular matrix is inverted, and an inverse past the float range
        raises InvalidMatrixError)."""
        return self._inverse(self._pd_factor(0.0))

    def _inverse(self, factor: np.ndarray) -> "SymMatrix":
        """The inverse, from the factor :meth:`_pd_factor` gave."""
        if self.dim == 0:
            return self
        inv = _cho_solve(factor, np.eye(self.dim, order="F"), overwrite_b=True)
        # the mean is exactly symmetric, so its C-ordered transpose holds the same values
        return SymMatrix._derived(self.labels, _mean_with_transpose(inv.T))

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
        a_names = tuple(self.labels[i] for i in a_idx)
        if not b_idx:
            return SymMatrix._derived(a_names, self.values[np.ix_(a_idx, a_idx)])
        saa = self.values[np.ix_(a_idx, a_idx)]
        sab = self.values[np.ix_(a_idx, b_idx)]
        sbb = self.values[np.ix_(b_idx, b_idx)]
        try:
            factor = _cho_factor(sbb)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"conditioning block is not positive definite: {exc}"
            ) from exc
        out = saa - sab @ _cho_solve(factor, sab.T)
        return SymMatrix._derived(a_names, _mean_with_transpose(out))

    def __repr__(self) -> str:
        return f"SymMatrix(labels={self.labels!r}, dim={self.dim})"
