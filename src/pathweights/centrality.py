"""Path-weight betweenness centrality.

For a pair (x, y) and a vertex v outside the pair, the betweenness of v is
the fraction of the total absolute path weight between x and y carried by the
paths passing through v. Summing over all unordered pairs gives an overall
centrality score, normalized to [0, 1] by min-max scaling. The ratio is
invariant under diagonal rescaling of the covariance, so covariance,
correlation and inflated-correlation weights all induce the same centrality;
inflated-correlation weights are used here.

By default every simple path contributes ("all-paths" mode); the conventional
variant restricted to shortest paths is available as "shortest-paths".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DEFAULT_PATH_CAP, PathRows, _gather, _walk
from .model import Model
from .weights import _PathKernel

#: Pairs whose total absolute weight falls below this are skipped (0/0 guard).
DENOMINATOR_TOL = 1e-12

MODES = ("all-paths", "shortest-paths")


@dataclass(frozen=True)
class VertexCentrality:
    vertex: str
    betweenness: float
    normalized: float
    degree: int


@dataclass(frozen=True)
class CentralityTable:
    """Per-vertex betweenness, in graph vertex order.

    ``skipped_pairs`` lists pairs that contributed nothing: endpoints in
    different components (no connecting path) or a total absolute weight below
    the 0/0 guard. ``degenerate`` flags the case where every vertex has the
    same raw score, in which case all normalized values are 0.
    """

    mode: str
    rows: tuple[VertexCentrality, ...]
    skipped_pairs: tuple[tuple[str, str], ...]
    degenerate: bool

    def row(self, vertex: str) -> VertexCentrality:
        for r in self.rows:
            if r.vertex == vertex:
                return r
        raise KeyError(vertex)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "degenerate": self.degenerate,
            "skipped_pairs": [list(p) for p in self.skipped_pairs],
            "vertices": [
                {
                    "vertex": r.vertex,
                    "betweenness": r.betweenness,
                    "normalized": r.normalized,
                    "degree": r.degree,
                }
                for r in self.rows
            ],
        }


def betweenness(m: Model, mode: str = "all-paths", cap: int = DEFAULT_PATH_CAP) -> CentralityTable:
    """Betweenness centrality of every vertex under path weights.

    Per-pair numerators and denominators are accumulated with compensated
    summation so the result does not depend on path enumeration order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    graph = m.graph
    vertices = graph.vertices
    n = len(vertices)
    kernel = _PathKernel(m)
    d = np.sqrt(np.diagonal(kernel.kappa))  # endpoint scale of the inflated correlation
    ratios: list[list[float]] = [[] for _ in vertices]
    skipped: list[tuple[str, str]] = []
    for x in range(n):
        dist = None
        if mode == "shortest-paths":
            dist = np.full(n, -1)
            for v, hops in graph.bfs_distances(vertices[x]).items():
                dist[graph._index[v]] = hops
        # one walk from x serves every pair (x, y) with y later in vertex order
        rows = _gather(_walk(graph, x, dist=dist, cap=cap, edge_values=kernel.kappa), (n + 63) // 64)
        last = rows.seqs[np.arange(len(rows.seqs)), rows.lengths - 1]
        # Group the rows by target, keeping the walk's order within a group. A
        # vertex set has one length, and the walk yields each length's rows in
        # label order, so the first row of a set within the first target that
        # reaches it is the label-first row there, as in a full label sort:
        # the kernel takes the same blocks. The sums below are fsum, which no
        # order changes.
        order = np.argsort(last, kind="stable")
        order = order[last[order] > x]
        rows, last = PathRows(*(field[order] for field in rows)), last[order]
        wts = np.abs(kernel(rows, d[x] * d[last]))
        on_path = np.unpackbits(rows.keys.astype("<u8").view(np.uint8), axis=1,
                                bitorder="little")[:, :n].astype(bool)
        bounds = np.searchsorted(last, np.arange(x + 1, n + 1))
        for y, lo, hi in zip(range(x + 1, n), bounds[:-1].tolist(), bounds[1:].tolist()):
            if lo == hi:  # no path: x and y lie in different components
                skipped.append((vertices[x], vertices[y]))
                continue
            w = wts[lo:hi]
            denom = math.fsum(w.tolist())
            if denom < DENOMINATOR_TOL:
                skipped.append((vertices[x], vertices[y]))
                continue
            through = on_path[lo:hi]
            through[:, [x, y]] = False
            for v in np.flatnonzero(through.any(axis=0)).tolist():
                ratios[v].append(math.fsum(w[through[:, v]].tolist()) / denom)

    raw = {v: math.fsum(r) for v, r in zip(vertices, ratios)}
    values = list(raw.values())
    b_min, b_max = (min(values), max(values)) if values else (0.0, 0.0)
    degenerate = not values or b_max == b_min
    rows = tuple(
        VertexCentrality(
            vertex=v,
            betweenness=raw[v],
            normalized=0.0 if degenerate else (raw[v] - b_min) / (b_max - b_min),
            degree=graph.degree(v),
        )
        for v in graph.vertices
    )
    return CentralityTable(
        mode=mode,
        rows=rows,
        skipped_pairs=tuple(skipped),
        degenerate=degenerate,
    )


def degree_centrality(m: Model) -> dict[str, int]:
    """Plain neighbour counts, for side-by-side comparison with betweenness."""
    return {v: m.graph.degree(v) for v in m.graph.vertices}
