"""Path-weight computations for concentration graph models.

Every entry of the covariance matrix decomposes additively over the simple
paths joining its two variables in the concentration graph. The weight of a
path with vertex set P is

    weight = (-1)^(|P|+1) * |Sigma_PP| * prod(k_uv over path edges),

which equals the equivalent complement form (-1)^(|P|+1) |K_PbarPbar| / |K|
times the same edge product; the |Sigma_PP| form is used throughout because
the |P| x |P| determinant is cheaper and better conditioned than the
complement determinant. The same decomposition applies verbatim to any
congruence D * Sigma * D with nonzero diagonal D, whose path weights are just
the covariance weights rescaled by the two endpoint entries of D. Correlation
and inflated-correlation weights are the two named instances.

A weight factors into a partial weight (computed after linearly adjusting for
the variables outside a conditioning set) times an inflation factor, which is
how the package interprets what a weight means: the association carried by
the path itself, amplified by how strongly the path's variables are tied to
the rest of the network.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Path, PathRows, _path_indices
from .inflation import _complement_inflation
from .model import CustomScaling, Kind, Measure, Model, _inflated_block, _pcor_block
from .symmetric import SymMatrix, _principal_det, chol_dets, det_product

#: Weights at or below this magnitude are treated as zero by sign checks.
DEFAULT_ZERO_TOL = 1e-12

#: Most ordered blocks whose determinant a model's memo keeps (``Model._dets``).
DET_MEMO_SIZE = 1 << 14

_MEMO_LOCK = threading.Lock()


# -- the path-weight kernel -------------------------------------------------

class _PathKernel:
    """sign * |M_PP| * prod(k_uv) * scale for paths given as :class:`PathRows`.

    ``M`` is the covariance the paths decompose: Sigma, or the conditional
    covariance of a restriction set. A block determinant depends only on the
    vertex set, and distinct sets are few next to paths, so one kernel (one
    per analysis) evaluates one determinant per distinct set, batched through
    a stacked Cholesky (each distinct ordered block once per call), and
    reuses it for every later path on that set. The batched block is taken in
    the ``frozenset`` order of the labels of the set's first row: its first
    row in the first call that meets the set, in the order the rows are
    given. So rows must arrive in the caller's visiting order: every weight
    is then bit for bit what evaluating each path in that order gives. A
    single path takes its block in storage order, by integer position, blocks
    of up to 3 vertices in closed form.

    A call is :meth:`unit`, the weight before the scale, then :meth:`settle`,
    which multiplies by the scale, so a caller may keep unit values and scale
    them later with the same bits. Where the direct product is not finite (on
    long paths |M_PP| can overflow while the edge product underflows), or is
    0 with no factor 0, :meth:`settle` takes the weight by :meth:`single`,
    whose :func:`det_product` falls back to log space.

    On Sigma, a determinant is also looked up in, and kept in, the model's
    memo ``Model._dets``, keyed by the block's storage positions in the order
    it is taken: a block's determinant depends on that ordered block alone
    (see :func:`chol_dets`), so a value found there has the bits the kernel
    would compute. The memo keeps at most :data:`DET_MEMO_SIZE` blocks.
    """

    def __init__(self, m: Model, mat: SymMatrix | None = None):
        mat = m.sigma if mat is None else mat
        self.values, self.pos, self.labels = mat.values, mat._pos, m.vertices
        self.names = m.graph._names
        #: concentration matrix in graph vertex order: the walk's edge values
        self.kappa = m.kappa.values
        self._dets: dict[int | bytes, float] = {}
        self._memo = m._dets if mat is m.sigma else None

    def _keep(self, found: Iterable[tuple[tuple[int, ...], float]]) -> None:
        """Store (block, determinant) pairs in the model's memo while it has room."""
        memo = self._memo
        if memo is None:
            return
        with _MEMO_LOCK:  # the room check and the store as one step
            for block, det in found:
                if len(memo) >= DET_MEMO_SIZE:
                    return
                memo[block] = det

    def __call__(self, rows: PathRows, scale) -> np.ndarray:
        return self.settle(rows, self.unit(rows), scale)

    def unit(self, rows: PathRows, tags: np.ndarray | None = None) -> np.ndarray:
        """sign * |M_PP| * prod(k_uv) of each row, its weight before the scale.

        With ``tags``, one integer per row, rows are keyed by (tag, vertex
        set): a set takes its block from its first row of each tag, as a call
        per tag, on that tag's rows alone, would. The kernel keeps the
        determinants it finds under keys packed for this call's rows, so a
        kernel given tags serves that one call.
        """
        keys = rows.keys
        if tags is not None:
            tags = tags.astype(np.uint64)
            shift = int(keys.max(initial=0)).bit_length()
            if keys.shape[1] == 1 and shift + int(tags.max(initial=0)).bit_length() <= 64:
                keys = keys | tags[:, None] << np.uint64(shift)
            else:
                keys = np.column_stack([tags, keys])
        if keys.shape[1] > 1:
            keys = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.shape[1] * 8))).ravel()
        else:  # in the narrowest type: up to 16 bits, unique's stable sort is a radix sort
            keys = keys[:, 0].astype(np.min_scalar_type(keys.max(initial=0).item()))
        sets, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        sets = sets.tolist()
        dets = [self._dets.get(k) for k in sets]
        new = [j for j, det in enumerate(dets) if det is None]
        # the sets to factor, by ordered block: sets of different tags often share one
        pending: dict[tuple[int, ...], list[int]] = {}
        position, memo = self.pos.__getitem__, self._memo or {}
        for j, row, n in zip(new, self.names[rows.seqs[first[new]]].tolist(),
                             rows.lengths[first[new]].tolist()):
            block = tuple(map(position, frozenset(row[:n])))
            det = memo.get(block)
            if det is None:
                pending.setdefault(block, []).append(j)
            else:
                dets[j] = self._dets[sets[j]] = det
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for block in pending:
            by_size.setdefault(len(block), []).append(block)
        with np.errstate(over="ignore", invalid="ignore"):
            for blocks in by_size.values():
                idx = np.array(blocks, dtype=np.intp)
                found = chol_dets(self.values[idx[:, :, None], idx[:, None, :]])
                for block, det in zip(blocks, found):
                    for j in pending[block]:
                        dets[j] = self._dets[sets[j]] = det
                self._keep(zip(blocks, found))
            sign = (rows.lengths & 1) * 2.0 - 1.0
            return sign * np.array(dets)[inverse.ravel()] * rows.prods

    def settle(self, rows: PathRows, unit: np.ndarray, scale) -> np.ndarray:
        """The weights ``unit * scale`` of ``rows`` (a fresh array), each that
        comes out 0 or not finite taken by :meth:`single` instead."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = unit * scale
        scales = np.broadcast_to(scale, out.shape)
        for r in np.flatnonzero(~np.isfinite(out) | (out == 0.0)).tolist():
            out[r] = self.single(rows.seqs[r, :rows.lengths[r]].tolist(), scales[r].item())
        return out

    def single(self, seq: list[int], scale: float) -> float:
        """The weight of one path given by vertex indices, without batching."""
        idx = sorted(self.pos[self.labels[i]] for i in seq)
        block = tuple(idx)
        value = None if self._memo is None else self._memo.get(block)
        det = None
        if value is None:
            det = _principal_det(self.values, idx)
            value = det.value
            self._keep([(block, value)])
        sign = 1.0 if len(seq) % 2 else -1.0
        prod = _edge_product(self.kappa, seq)
        out = sign * value * prod * scale
        if out != 0.0 and math.isfinite(out):
            return out
        if det is None:  # the memo keeps values only; det_product may need the pivots
            det = _principal_det(self.values, idx)
        return det_product(((self.values, idx, 1), (self.kappa[seq[:-1], seq[1:]],), ((sign, scale),)),
                           (det, prod, sign * scale))


def _edge_product(values: np.ndarray, seq: list[int]) -> float:
    """Product of ``values[u, v]`` along the path ``seq``, left to right from 1.0."""
    return math.prod(map(values.item, seq, seq[1:]), start=1.0)


# R and the inflated matrix are never read here: every query takes what it
# needs of them from K and Sigma by integer position, with the float operations
# that build them (``Model._pcor``, ``_pcor_block``, ``_inflated_block``), so
# with the same bits.

def _edge_run(m: Model, seq: list[int]) -> tuple[list[float]]:
    """The edge partial correlations along ``seq``, as a :func:`det_product` run."""
    return (list(map(m._pcor, seq, seq[1:])),)


def _i_minus_r(m: Model, idx: np.ndarray) -> np.ndarray:
    """(I - R)_{idx,idx} for ascending vertex indices ``idx``."""
    return np.eye(len(idx)) - _pcor_block(m.kappa.values[idx[:, None], idx])


# module globals, since every single-path query dispatches here and ``Measure.X`` is a slow lookup
_COVARIANCE, _CORRELATION, _INFLATED = Measure.COVARIANCE, Measure.CORRELATION, Measure.INFLATED_CORRELATION


def _endpoint_scale(m: Model, kind: Kind, cond: SymMatrix, x: str, y: str) -> float:
    """Product of the x and y entries of the congruence D that turns covariance
    weights on ``cond`` into weights of the measure ``kind``.

    ``cond`` is the covariance the paths decompose: Sigma when unrestricted,
    otherwise the partial covariance of the restriction set. The correlation
    measure scales by the endpoint variances of ``cond`` (conditional ones
    under a restriction); the inflated-correlation measure scales by the
    concentration diagonal, which is the same for the conditional and the
    full model.
    """
    if kind is _COVARIANCE:
        return 1.0
    if kind is _CORRELATION:
        return 1.0 / math.sqrt(cond.entry(x, x) * cond.entry(y, y))
    if kind is _INFLATED:
        return math.sqrt(m.kappa.entry(x, x) * m.kappa.entry(y, y))
    if isinstance(kind, CustomScaling):
        if not kind.delta.keys() >= m.graph._index.keys():
            missing = [v for v in m.vertices if v not in kind.delta]
            raise ValueError(f"custom scaling is missing entries for {missing}")
        return float(kind.delta[x]) * float(kind.delta[y])
    raise TypeError(f"unsupported measure kind: {kind!r}")


# -- weights ------------------------------------------------------------------

def weight(m: Model, path: Path, kind: Kind = Measure.COVARIANCE) -> float:
    """Weight of ``path`` in the decomposition of the requested measure.

    The covariance weight is the path's additive contribution to
    sigma_xy = sum over paths; other kinds rescale it by the endpoint
    entries of the defining congruence, which is exactly the weight obtained
    by decomposing the scaled matrix directly.
    """
    seq = _path_indices(m.graph, path)
    return _PathKernel(m).single(seq, _endpoint_scale(m, kind, m.sigma, path.x, path.y))


def _partial(m: Model, path: Path, a: Iterable[str] | None):
    """Indices of the checked ``path``, restriction A (V(path) <= A <= V, default
    V(path)) and Sigma_{PP.Abar}, the partial weight's covariance.

    With A = V(path) and Abar its nonempty complement, Sigma_{PP.Abar} is
    (K_PP)^-1, a |P| x |P| inverse in place of a Schur complement on the
    other p - |P| vertices; any other A takes the Schur complement of Abar.
    """
    seq = _path_indices(m.graph, path)
    a = m.graph.require_vertices(path.vertex_set if a is None else a)
    if not path.vertex_set <= set(a):
        raise ValueError("conditioning set must contain every vertex of the path")
    if len(a) == len(seq) < m.sigma.dim:
        return seq, a, m.kappa.submatrix(a).inverse()
    return seq, a, m.sigma.schur_complement(path.vertex_set, m.graph.complement(a))


def partial_weight(
    m: Model,
    path: Path,
    a: Iterable[str] | None = None,
    kind: Kind = Measure.COVARIANCE,
) -> float:
    """Weight of ``path`` relative to X_A adjusted for everything outside A.

    ``a`` defaults to the path's own vertex set, the smallest legal choice and
    the one with the cleanest reading: the path's association with every
    off-path variable linearly removed. With ``a`` equal to all vertices this
    is just :func:`weight`. For the correlation measure the rescaling uses the
    conditional variances, matching the correlation matrix of the conditional
    distribution.
    """
    seq, _, cond = _partial(m, path, a)
    return _PathKernel(m, cond).single(seq, _endpoint_scale(m, kind, cond, path.x, path.y))


@dataclass(frozen=True)
class WeightBreakdown:
    """A path weight split into its interpretable components.

    ``weight = partial_weight * inflation / endpoint_inflation`` holds for
    every measure; ``endpoint_inflation`` is 1 except for the correlation
    measure, where the marginal and conditional variances of the endpoints
    differ. ``inflation`` is the inflation factor of the path's vertex set on
    the complement of the conditioning set. ``phi`` is the measure-free
    normalized weight in [-1, 1].
    """

    path: Path
    measure: Kind
    restrict: tuple[str, ...]
    weight: float
    partial_weight: float
    inflation: float
    endpoint_inflation: float
    phi: float

    def reconstructed_weight(self) -> float:
        return self.partial_weight * self.inflation / self.endpoint_inflation


def factorize(
    m: Model,
    path: Path,
    a: Iterable[str] | None = None,
    kind: Kind = Measure.COVARIANCE,
) -> WeightBreakdown:
    """Split the weight of ``path`` into partial weight and inflation factor."""
    seq, a, cond = _partial(m, path, a)
    scale = _endpoint_scale(m, kind, cond, path.x, path.y)
    full = _endpoint_scale(m, kind, m.sigma, path.x, path.y)
    return WeightBreakdown(
        path=path,
        measure=kind,
        restrict=a,
        weight=_PathKernel(m).single(seq, full),
        partial_weight=_PathKernel(m, cond).single(seq, scale),
        # |Sigma_PP| / |Sigma_PP.Abar|, exactly 1 on an empty Abar
        inflation=det_product(((m.sigma.values, sorted(seq), 1), (cond.values, None, -1)))
        if len(a) < m.sigma.dim else 1.0,
        endpoint_inflation=scale / full,
        phi=_normalized(m, seq),
    )


# -- explicit inflated-correlation forms --------------------------------------

def inflated_weight_explicit(m: Model, path: Path) -> float:
    """Inflated-correlation weight via its closed form.

    The weight equals the determinant of the path block of the inflated
    correlation matrix times the product of the edge partial correlations.
    Agrees with ``weight(m, path, Measure.INFLATED_CORRELATION)`` up to
    round-off; the two evaluations share no intermediate quantities, which is
    what makes their agreement a meaningful check. Like the weight, it is
    taken in log space where the direct product overflows or underflows.
    """
    seq = _path_indices(m.graph, path)
    idx = np.array(sorted(seq))
    block = _inflated_block(m.sigma.values[idx[:, None], idx], np.diagonal(m.kappa.values)[idx])
    return det_product(((block, None, 1), _edge_run(m, seq)))


def partial_inflated_weight_explicit(m: Model, path: Path) -> float:
    """Closed form of the inflated-correlation weight after adjusting for
    everything off the path: edge partial correlations divided by the
    determinant of the path block of (I - partial_corr). Taken in log space
    where the direct quotient overflows or underflows."""
    seq = _path_indices(m.graph, path)
    return det_product((_edge_run(m, seq), (_i_minus_r(m, np.array(sorted(seq))), None, -1)))


def normalized_weight(m: Model, path: Path) -> float:
    """Scale-free path weight in [-1, 1].

    |(I - R)_{PbarPbar}| * prod(r_uv over path edges), with R the partial
    correlations and Pbar the off-path vertices. Equals the inflated-correlation
    weight divided by its sharp bound, the determinant of the inflated
    correlation matrix. Taken in log space where the direct product underflows.
    """
    return _normalized(m, _path_indices(m.graph, path))


def _normalized(m: Model, seq: list[int]) -> float:
    """:func:`normalized_weight` of a checked path of vertex indices."""
    off = np.ones(m.sigma.dim, dtype=bool)
    off[seq] = False
    return det_product(((_i_minus_r(m, np.flatnonzero(off)), None, 1), _edge_run(m, seq)))


def weight_bounds(m: Model, path: Path, kind: Kind = Measure.COVARIANCE) -> tuple[float, float]:
    """Sharp symmetric bounds on the weight of any path with these endpoints.

    The half-width is the determinant of the inflated correlation matrix times
    the geometric mean of the endpoints' scaled residual variances. For the
    inflated-correlation measure the endpoint term is exactly 1, so every
    path in the graph shares the same bounds regardless of its endpoints.
    """
    _path_indices(m.graph, path)
    x, y = path.x, path.y
    scale = _endpoint_scale(m, kind, m.sigma, x, y)
    inflated = _endpoint_scale(m, _INFLATED, m.sigma, x, y)
    # bracketed, the inflated-correlation ratio is exactly 1.0 and its bounds exactly +-det
    half = m._inflated_det * (abs(scale) / inflated)
    return (-half, half)


# -- single-edge measures ------------------------------------------------------

@dataclass(frozen=True)
class EdgeMeasures:
    """Association measures attached to a single edge.

    ``pc``        partial correlation given all other variables
    ``inflation`` inflation factor of the endpoint pair on the rest
    ``npc``       networked partial correlation, pc * inflation
    ``nipc``      networked inflated partial correlation,
                  pc / (1 - pc^2) * inflation; identical to the
                  inflated-correlation weight of the single-edge path
    """

    edge: tuple[str, str]
    pc: float
    inflation: float
    npc: float
    nipc: float


def edge_measures(m: Model, edge: Sequence[str]) -> EdgeMeasures:
    """Edge-level association record for an edge of the model's graph."""
    u, v = edge
    if not m.graph.has_edge(u, v):
        raise ValueError(f"{u!r}--{v!r} is not an edge of the graph")
    u, v = (u, v) if u <= v else (v, u)
    idx = sorted((m.graph._index[u], m.graph._index[v]))
    pc = m._pcor(*idx)
    infl = _complement_inflation(m, idx)
    return EdgeMeasures(
        edge=(u, v),
        pc=pc,
        inflation=infl,
        npc=pc * infl,
        nipc=pc / (1.0 - pc * pc) * infl,
    )
