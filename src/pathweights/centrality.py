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

from .graphs import DEFAULT_PATH_CAP, _by_target, _capped, _gather, _walk
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
    ``cap`` bounds the paths per vertex pair.
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
        # one walk from x serves every pair (x, y) with y later in vertex order;
        # the sums below are fsum's, which no order of the rows changes
        rows = _gather(_capped(_walk(graph, x, dist=dist, edge_values=kernel.kappa), cap, n), n)
        order, bounds = _by_target(graph, rows)
        rows = rows.take(order[bounds[x + 1]:])
        bounds = [b - bounds[x + 1] for b in bounds[x + 1:]]
        last = np.repeat(np.arange(x + 1, n), np.diff(bounds))
        wts = np.abs(kernel(rows, d[x] * d[last]))
        # vertices strictly inside each path: its set without its two ends
        on_path = np.unpackbits(rows.keys.astype("<u8").view(np.uint8), axis=1,
                                bitorder="little")[:, :n].astype(bool)
        on_path[:, x] = False
        on_path[np.arange(len(last)), last] = False
        denoms, numers = _group_sums(wts, on_path, bounds[:-1])
        for y, denom, numer in zip(range(x + 1, n), denoms, numers):
            if denom < DENOMINATOR_TOL:
                # no path (x and y lie in different components), or the 0/0 guard
                skipped.append((vertices[x], vertices[y]))
                continue
            # a vertex on none of the pair's paths has numerator +0.0; its ratio
            # of 0.0 would leave the fsum below as it is
            for v, num in enumerate(numer):
                if num:
                    ratios[v].append(num / denom)

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


def _group_sums(w: np.ndarray, on_path: np.ndarray, starts: list[int]) -> tuple[list[float], list[list[float]]]:
    """``math.fsum`` of ``w`` over each group of rows, and per column v, over
    the group's rows whose ``on_path`` holds v.

    Group g is rows ``starts[g]`` up to the next start (the last runs to the
    end; a repeated start gives an empty group, which costs O(1): its sums are
    0.0, its numerators one row of zeros that all empty groups share). The sums
    come from :func:`_exact_parts`: a part sums exactly in any order, so one
    matrix product per group, of ``on_path.T`` with a row of ones under it,
    sums each part exactly per column and over the whole group, and an fsum
    over a group's few part sums equals the fsum over its entries. Entries
    that are not all finite take fsum over the entries.
    """
    ends = starts[1:] + [len(w)]
    # a last column of ones: each group's last sum is over all its rows
    through = np.column_stack([on_path, np.ones(len(w), dtype=bool)])
    parts = _exact_parts(w) if np.isfinite(w).all() else None
    if parts is not None:
        parts, through = np.stack(parts, axis=1), through.astype(float)

    def group(lo, hi):
        if parts is None:
            return [math.fsum(w[lo:hi][col].tolist()) for col in through[lo:hi].T]
        # + 0.0: a negative part entry times 0.0 is -0.0, which fsum would keep
        return [math.fsum(c) for c in (through[lo:hi].T @ parts[lo:hi] + 0.0).tolist()]
    sums = [group(lo, hi) if lo < hi else None for lo, hi in zip(starts, ends)]
    zeros = [0.0] * on_path.shape[1]
    return [s[-1] if s else 0.0 for s in sums], [s[:-1] if s else zeros for s in sums]


def _exact_parts(r: np.ndarray) -> list[np.ndarray] | None:
    """Finite ``r`` as parts q_1 + q_2 + ... that add up to it exactly, each
    on a grid where any sum of at most len(r) of its entries is exact.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation", 2008): with max|r| < 2^e and sigma = 2^(e + ceil(log2(N + 1)) + 1),
    q = (sigma + r) - sigma and r - q are exact, every q is a multiple of
    2^-53 sigma of magnitude at most 2^e, and a sum of N of them stays below
    sigma / 2. The residual r - q, negative in places, is split in turn until
    it is 0. None if a sigma would overflow.
    """
    lift = len(r).bit_length() + 1
    parts = []
    while True:
        e = math.frexp(float(np.abs(r).max(initial=0.0)))[1] + lift
        if e > 1023:
            return None
        sigma = math.ldexp(1.0, e)
        q = (sigma + r) - sigma
        r = r - q
        parts.append(q)
        if not r.any():
            return parts


def degree_centrality(m: Model) -> dict[str, int]:
    """Plain neighbour counts, for side-by-side comparison with betweenness."""
    return {v: m.graph.degree(v) for v in m.graph.vertices}
