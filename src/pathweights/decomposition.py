"""Full decomposition reports for a vertex pair, and path rankings.

A report lists every simple path between two vertices together with its
weight and its share of the total association, then cross-checks the sum of
weights against the closed-form target (the corresponding matrix entry,
computed without touching any path weight). The residual of that comparison is
always reported, never hidden: it is the live certificate that the
decomposition identity held on this input.

Shares are fractions of the total absolute weight. When every weight between
a pair carries the same sign (which the signed-positivity check in
:mod:`pathweights.fit` can certify globally), shares coincide with signed
proportions of the association itself; the ``same_signed`` flag records
whether that reading applies.

A report from :func:`decompose` keeps its paths as integer rows next to the
weight and share arrays, and builds ``entries`` (one :class:`Path` and one
:class:`PathContribution` per path) on first access, then drops the rows and
arrays. ``target``, ``residual`` and ``same_signed`` are plain fields, so
callers that only check the identity never pay for the per-path objects;
``total_weight``, ``to_dict`` and :func:`subset_share` read ``entries``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import PathExplosionError, UndefinedShareError
from .graphs import (DEFAULT_PATH_CAP, Graph, Path, PathRows, _by_target, _capped, _gather,
                     _lex_order, _pair_paths, _walk)
from .model import Kind, Measure, Model
from .weights import DEFAULT_ZERO_TOL, _endpoint_scale, _PathKernel


@dataclass(frozen=True, slots=True)
class PathContribution:
    path: Path
    weight: float
    share: float


@dataclass(frozen=True)
class DecompositionReport:
    """Decomposition of one association entry over the paths joining (x, y).

    ``entries`` of a report made by :func:`decompose` is built on first read
    (see the module docstring); equality and repr cover the fields only.
    """

    x: str
    y: str
    measure: Kind
    restrict: tuple[str, ...] | None
    entries: tuple[PathContribution, ...]
    target: float
    residual: float
    same_signed: bool

    @classmethod
    def _from_rows(cls, graph: Graph, rows: PathRows, weights: np.ndarray, shares: np.ndarray,
                   **fields) -> "DecompositionReport":
        """A report whose ``entries`` are built from ``rows`` on first read."""
        report = object.__new__(cls)
        report.__dict__.update(fields)
        # The walk's keys and prods are not needed once the rows are weighed.
        # The narrowest type that holds every index, length and the -1 padding
        # keeps the rows small while they wait for the first read.
        small = np.min_scalar_type(-1 - len(graph.vertices))
        rows = PathRows(rows.seqs.astype(small), rows.lengths.astype(small), None, None)
        report.__dict__["_rows"] = graph, rows, weights, shares
        return report

    def __getattr__(self, name: str):
        # only reached for an attribute not set: ``entries`` of an unread _from_rows report
        state = self.__dict__
        if name == "entries":
            pending = state.get("_rows")
            if pending is not None:
                graph, rows, weights, shares = pending
                built = tuple(map(PathContribution, rows.paths(graph),
                                  weights.tolist(), shares.tolist()))
                # set before the rows go: a thread that finds no rows finds the entries
                entries = state.setdefault("entries", built)
                state.pop("_rows", None)
                return entries
            if "entries" in state:  # built by another thread since this lookup began
                return state["entries"]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def total_weight(self) -> float:
        return math.fsum(e.weight for e in self.entries)

    def to_dict(self) -> dict:
        measure = self.measure.value if isinstance(self.measure, Measure) else "custom"
        return {
            "x": self.x,
            "y": self.y,
            "measure": measure,
            "restrict": list(self.restrict) if self.restrict is not None else None,
            "target": self.target,
            "residual": self.residual,
            "same_signed": self.same_signed,
            "paths": [
                {"path": list(e.path.sequence), "weight": e.weight, "share": e.share}
                for e in self.entries
            ],
        }


def decompose(
    m: Model,
    x: str,
    y: str,
    kind: Kind = Measure.COVARIANCE,
    restrict: Iterable[str] | None = None,
    cap: int = DEFAULT_PATH_CAP,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> DecompositionReport:
    """Decompose the (x, y) entry of the chosen measure over connecting paths.

    With ``restrict`` set to A, both the path collection and the target are
    taken from the conditional model on A (paths confined to A, target the
    corresponding entry of the partial measure), which generalizes the plain
    decomposition and reduces to it at A = V.

    The target is always computed from the matrix side (entry of a Schur
    complement or of an inverse), so the reported residual is an independent
    check of the path sum rather than a tautology.
    """
    if x == y:
        raise ValueError("decomposition endpoints must differ")
    m.graph.require_vertices([x, y])
    a = None if restrict is None else m.graph.require_vertices(restrict)
    if a is not None and not {x, y} <= set(a):
        raise ValueError("restrict set must contain both endpoints")

    src, dst = (x, y) if x <= y else (y, x)
    g = m.graph
    i, j = g._index[src], g._index[dst]
    if a is None:
        cond = m.sigma
        rows, unit = _shared_pair_paths(m, i, j, cap)
    else:
        cond = m.sigma.schur_complement(a, g.complement(a))
        rows = _pair_paths(g, i, j, g._blockcut.route(i, j) & g._mask(a), cap=cap, edge_values=m.kappa.values)
        unit = None
    kernel = _PathKernel(m, cond)
    scale = _endpoint_scale(m, kind, cond, src, dst)
    weights = kernel.settle(rows, kernel.unit(rows) if unit is None else unit, scale)

    if kind is Measure.INFLATED_CORRELATION and a is not None:
        # Entry of the inverse of the restricted (I - partial_corr) block; the
        # one target the scaled Schur entry does not cover.
        target = m.conditional_inflated_correlation(a).entry(src, dst)
    else:
        target = cond.entry(src, dst) * scale

    magnitudes = np.abs(weights)
    total_abs = math.fsum(magnitudes.tolist())
    shares = magnitudes / total_abs if total_abs > 0.0 else np.zeros(len(weights))
    residual = math.fsum(weights.tolist()) - target
    signs = set((weights[magnitudes > zero_tol] > 0.0).tolist())
    return DecompositionReport._from_rows(
        g, rows, weights, shares,
        x=x,
        y=y,
        measure=kind,
        restrict=a,
        target=target,
        residual=residual,
        same_signed=len(signs) <= 1,
    )


def _shared_pair_paths(m: Model, x: int, y: int, cap: int) -> tuple[PathRows, np.ndarray | None]:
    """``_pair_paths`` of vertices x and y (x before y in label order) with K's
    edge products, through the model's walk slot ``Model._walks``, so that
    consecutive calls from one source walk, order and weigh its paths once;
    and either None or the rows' :meth:`_PathKernel.unit` values on Sigma.

    The slot holds one key, (x, the x-y route, cap), what is known for it and
    whether the last call repeated it. The second consecutive call with a
    key, or the first after a repeated key, walks every path from x inside
    the route; other calls walk their pair. So an all-pairs sweep walks one
    pair and then every source once; the price is a single call after a
    repeated key, which walks its source for one target. A source walk keeps
    the rows to targets after x in label order, grouped by target and in
    label order within each, and weighs them by one kernel call keyed by
    (target, vertex set) (:func:`_source_rows`); a call takes its
    target's rows and values from them (:func:`_slot_rows`), which are
    ``_pair_paths``'s rows and the values a kernel would give them, bit for
    bit. If that walk exceeds ``cap`` (another target's paths, or all of
    them), the slot says so and the calls walk their pairs, so only a pair's
    own paths can make its call raise. Pair walks reuse the key's route.
    """
    g = m.graph
    route = g._blockcut.route(x, y)
    key = (x, route.tobytes(), cap)
    held = m._walks
    same = held is not None and held[0] == key
    walked = held[1] if same else None
    if walked is None and (same or (held is not None and held[2])):
        try:
            walked = _source_rows(m, x, route, cap)
        except PathExplosionError:
            walked = ()
    m._walks = (key, walked, same)  # one store: a reader sees the old tuple or this one
    if walked:
        return _slot_rows(walked, y)
    return _pair_paths(g, x, y, route, cap=cap, edge_values=m.kappa.values), None


def _source_rows(m: Model, x: int, route: np.ndarray, cap: int) -> tuple[PathRows, list[int], np.ndarray]:
    """The walk from x inside ``route`` (at most ``cap`` rows in all), cut to
    the rows to targets after x in label order: those rows in label order,
    grouped by target (:func:`_by_target`), the bounds of each target's rows,
    and their :meth:`_PathKernel.unit` values on Sigma, keyed by (target,
    vertex set). A target's first row of a set is then its label-first one,
    the row a kernel call on that pair's rows alone takes the set's block from."""
    g = m.graph
    n = len(g.vertices)
    rows = _gather(_capped(_walk(g, x, allowed=route, edge_values=m.kappa.values), cap), n)
    last = rows.seqs[np.arange(len(rows.seqs)), rows.lengths - 1]
    later = np.flatnonzero(g._rank[last] > g._rank[x])
    rows = rows.take(later[_lex_order(g, np.take(rows.seqs, later, axis=0))])
    order, bounds = _by_target(g, rows)
    rows = rows.take(order)
    return rows, bounds, _PathKernel(m).unit(rows, np.repeat(np.arange(n), np.diff(bounds)))


def _slot_rows(walked: tuple[PathRows, list[int], np.ndarray], y: int) -> tuple[PathRows, np.ndarray]:
    """The rows of :func:`_source_rows` ending at vertex ``y`` (views,
    ``seqs`` padded to their own longest path), and their kernel values."""
    rows, bounds, unit = walked
    part = slice(bounds[y], bounds[y + 1])
    rows = PathRows(*(field[part] for field in rows))
    return rows._replace(seqs=rows.seqs[:, :rows.lengths.max(initial=2)]), unit[part]


def subset_share(report: DecompositionReport, predicate: Callable[[Path], bool]) -> float:
    """Fraction of the total absolute weight carried by matching paths."""
    total = math.fsum(abs(e.weight) for e in report.entries)
    if not report.entries or total == 0.0:
        raise UndefinedShareError("shares are undefined: no paths or all weights zero")
    return math.fsum(abs(e.weight) for e in report.entries if predicate(e.path)) / total


def rank_paths(
    m: Model,
    vertex_count: int,
    kind: Kind = Measure.INFLATED_CORRELATION,
    cap: int = DEFAULT_PATH_CAP,
) -> list[tuple[Path, float]]:
    """All paths on exactly ``vertex_count`` vertices, strongest weight first.

    Only the inflated-correlation measure is accepted: it is the one measure
    whose weights share the same bounds for every endpoint pair, so comparing
    paths with different endpoints is meaningful. Ties break on the canonical
    vertex sequence, making the order fully deterministic. ``cap`` bounds the
    paths of up to ``vertex_count`` vertices per vertex pair.
    """
    if vertex_count < 2:
        raise ValueError("paths need at least two vertices")
    if kind is not Measure.INFLATED_CORRELATION:
        raise ValueError(
            "cross-pair ranking is only meaningful for the inflated-correlation measure"
        )
    g = m.graph
    n = len(g.vertices)
    kernel = _PathKernel(m)
    rank = g._rank
    found = []
    for s in range(n):
        for seqs, keys, prods in _capped(_walk(g, s, max_len=vertex_count, edge_values=kernel.kappa), cap, n):
            if seqs.shape[1] == vertex_count:
                forward = rank[seqs[:, -1]] > rank[s]  # labelled from the smaller endpoint
                found.append((seqs[forward], keys[forward], prods[forward]))
    rows = _gather(found, n)
    del found
    # Weigh in the order of vertex pairs, as ``combinations(vertices, 2)`` lists
    # them, each pair's paths in label order. A pair's rows all come from the
    # walk from its label-first end, which yields them in label order, so a
    # stable grouping by pair keeps them so (a radix sort, on keys this small).
    ends = rows.seqs[:, [0, -1]].astype(np.intp)
    pair = ends.min(axis=1) * n + ends.max(axis=1)
    order = np.argsort(pair.astype(np.min_scalar_type(n * n)), kind="stable")
    rows = rows.take(order)
    kdiag = np.diagonal(kernel.kappa)
    scale = np.sqrt(kdiag[rows.seqs[:, 0]] * kdiag[rows.seqs[:, -1]])
    weights = kernel(rows, scale)
    # strongest first, ties by label sequence (every row has vertex_count vertices)
    order = _lex_order(g, rows.seqs, -np.abs(weights))
    ranked = rows._replace(seqs=rows.seqs[order], lengths=rows.lengths[order])
    return list(zip(ranked.paths(g), weights[order].tolist()))
