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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Path, PathRows, _path_indices
from .inflation import inflation_factor
from .model import CustomScaling, Kind, Measure, Model
from .symmetric import SymMatrix, chol_det, chol_dets, det_product

#: Weights at or below this magnitude are treated as zero by sign checks.
DEFAULT_ZERO_TOL = 1e-12


# -- the path-weight kernel -------------------------------------------------

class _PathKernel:
    """sign * |M_PP| * prod(k_uv) * scale for paths given as :class:`PathRows`.

    ``M`` is the covariance the paths decompose: Sigma, or the conditional
    covariance of a restriction set. A block determinant depends only on the
    vertex set, and distinct sets are few next to paths, so one kernel (one
    per call) evaluates one determinant per distinct set, batched through a
    stacked Cholesky, and reuses it for every later path on that set. The
    batched block is taken in the ``frozenset`` order of the labels of the
    first path that reaches the set, so rows must arrive in the caller's
    visiting order: every weight is then bit for bit what evaluating each path
    in that order gives. A single path takes its block in storage order.
    Where the direct product is not finite (on long paths |M_PP| can overflow
    while the edge product underflows), or is 0 with no factor 0, the weight
    is taken by :func:`det_product`, which falls back to log space.
    """

    def __init__(self, m: Model, mat: SymMatrix | None = None):
        mat = m.sigma if mat is None else mat
        self.values, self.pos, self.labels = mat.values, mat._pos, m.vertices
        #: concentration matrix in graph vertex order: the walk's edge values
        self.kappa = m.kappa.values
        self._dets: dict[int | bytes, float] = {}

    def __call__(self, rows: PathRows, scale) -> np.ndarray:
        keys = rows.keys
        keys = keys[:, 0] if keys.shape[1] == 1 else np.ascontiguousarray(keys).view(
            np.dtype((np.void, keys.shape[1] * 8))).ravel()
        sets, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        sets = sets.tolist()
        dets = [self._dets.get(k) for k in sets]
        new = [j for j, det in enumerate(dets) if det is None]
        by_size: dict[int, tuple[list[int], list[list[int]]]] = {}
        labels, pos = self.labels, self.pos
        for j, row, n in zip(new, rows.seqs[first[new]].tolist(), rows.lengths[first[new]].tolist()):
            js, blocks = by_size.setdefault(n, ([], []))
            js.append(j)
            blocks.append([pos[v] for v in frozenset([labels[i] for i in row[:n]])])
        with np.errstate(over="ignore", invalid="ignore"):
            for js, blocks in by_size.values():
                idx = np.array(blocks, dtype=np.intp)
                for j, det in zip(js, chol_dets(self.values[idx[:, :, None], idx[:, None, :]])):
                    dets[j] = self._dets[sets[j]] = det
            sign = (rows.lengths & 1) * 2.0 - 1.0
            out = sign * np.array(dets)[inverse.ravel()] * rows.prods * scale
        scales = np.broadcast_to(scale, out.shape)
        for r in np.flatnonzero(~np.isfinite(out) | (out == 0.0)).tolist():
            out[r] = self.single(rows.seqs[r, :rows.lengths[r]].tolist(), scales[r].item())
        return out

    def single(self, seq: list[int], scale: float) -> float:
        """The weight of one path given by vertex indices, without batching."""
        idx = np.array(sorted(self.pos[self.labels[i]] for i in seq))
        block = self.values[idx[:, None], idx]
        sign, det, prod = (1.0 if len(seq) % 2 else -1.0), chol_det(block), _edge_product(self.kappa, seq)
        out = sign * det * prod * scale
        if out != 0.0 and math.isfinite(out):
            return out
        return det_product(((block, None, 1), (self.kappa[seq[:-1], seq[1:]],), ((sign, scale),)),
                           (det, prod, sign * scale))


def _edge_product(values: np.ndarray, seq: list[int]) -> float:
    """Product of ``values[u, v]`` along the path ``seq``, left to right from 1.0."""
    return math.prod(map(values.item, seq, seq[1:]), start=1.0)


def _edge_run(m: Model, seq: list[int]) -> tuple[list[float]]:
    """The edge partial correlations along ``seq``, as a :func:`det_product` run."""
    return (list(map(m.partial_corr.values.item, seq, seq[1:])),)


def _i_minus_r(m: Model, idx: np.ndarray) -> np.ndarray:
    """(I - R)_{idx,idx} for ascending vertex indices ``idx``, without forming I - R."""
    return np.eye(len(idx)) - m.partial_corr.values[idx[:, None], idx]


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
    if kind is Measure.COVARIANCE:
        return 1.0
    if kind is Measure.CORRELATION:
        return 1.0 / math.sqrt(cond.entry(x, x) * cond.entry(y, y))
    if kind is Measure.INFLATED_CORRELATION:
        return math.sqrt(m.kappa.entry(x, x) * m.kappa.entry(y, y))
    if isinstance(kind, CustomScaling):
        if not kind.delta.keys() >= m.graph._vset:
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
    V(path)), its complement and Sigma_{PP.Abar}, the partial weight's covariance."""
    seq = _path_indices(m.graph, path)
    a = m.graph.require_vertices(path.vertex_set if a is None else a)
    if not path.vertex_set <= set(a):
        raise ValueError("conditioning set must contain every vertex of the path")
    abar = m.graph.complement(a)
    return seq, a, abar, m.sigma.schur_complement(path.vertex_set, abar)


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
    seq, _, _, cond = _partial(m, path, a)
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
    seq, a, abar, cond = _partial(m, path, a)
    scale = _endpoint_scale(m, kind, cond, path.x, path.y)
    full = _endpoint_scale(m, kind, m.sigma, path.x, path.y)
    return WeightBreakdown(
        path=path,
        measure=kind,
        restrict=a,
        weight=_PathKernel(m).single(seq, full),
        partial_weight=_PathKernel(m, cond).single(seq, scale),
        # |Sigma_PP| / |Sigma_PP.Abar|, exactly 1 on an empty Abar
        inflation=det_product(((m.sigma, path.vertex_set, 1), (cond, None, -1))) if abar else 1.0,
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
    on = np.array(sorted(seq))
    return det_product(((m.inflated.values[on[:, None], on], None, 1), _edge_run(m, seq)))


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
    # bracketed, the inflated-correlation ratio is exactly 1.0 and its bounds exactly +-det
    half = m._inflated_det * (abs(scale) / math.sqrt(m.kappa.entry(x, x) * m.kappa.entry(y, y)))
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
    pc = m.partial_corr.entry(u, v)
    infl = inflation_factor(m, (u, v))
    return EdgeMeasures(
        edge=(u, v),
        pc=pc,
        inflation=infl,
        npc=pc * infl,
        nipc=pc / (1.0 - pc * pc) * infl,
    )
