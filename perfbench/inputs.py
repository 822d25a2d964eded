"""Seeded inputs for the benchmark workloads.

Everything here is derived from one ``numpy.random.Generator`` seeded by the
benchmark's ``--seed``; the package under test only ever receives the
generated graphs, covariances and files. The weight recipe follows
``tests/conftest.py::random_model`` (uniform edge partial correlations, the
matrix shrunk to spectral radius 0.85, a random diagonal rescaling) but is
written out here rather than imported, so an edit to the test suite cannot
silently change the benchmark's inputs.

Draws are filtered so that the work per input is known:

- a dense graph is kept only if its all-pairs simple-path count lies within
  a band around a target (path count drives every all-pairs cost);
- a sample covariance can be held to a given number of sweeps of
  iterative proportional scaling (sweeps drive ``ips_fit``).

Both filters use counters written here, independent of the package: a
subset dynamic programme or a depth-first count for paths, and a
covariance-form IPS for sweeps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def vertex_names(p: int) -> list[str]:
    width = max(2, len(str(p - 1)))
    return [f"v{i:0{width}d}" for i in range(p)]


@dataclass
class ModelSpec:
    """A generated model: labels, edges (index pairs) and its covariance."""

    name: str
    vertices: list[str]
    edges: list[tuple[int, int]]
    sigma: np.ndarray
    info: dict = field(default_factory=dict)
    sample: np.ndarray | None = None

    @property
    def p(self) -> int:
        return len(self.vertices)

    def edge_labels(self) -> list[tuple[str, str]]:
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edges]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps([self.vertices, sorted(self.edges)]).encode())
        h.update(np.ascontiguousarray(self.sigma).tobytes())
        return h.hexdigest()[:16]

    def build(self):
        """Construct the package's Model (graph, covariance, validation)."""
        from pathweights import Graph, Model, SymMatrix

        graph = Graph(self.vertices, self.edge_labels())
        return Model.from_sigma(graph, SymMatrix(self.vertices, self.sigma))

    def inventory(self) -> dict:
        return {"name": self.name, "p": self.p, "edges": len(self.edges),
                "fingerprint": self.fingerprint(), **self.info}


# -- weights (conftest recipe) ---------------------------------------------------

def draw_sigma(rng: np.random.Generator, p: int, edges: list[tuple[int, int]]) -> np.ndarray:
    r = np.zeros((p, p))
    for i, j in sorted(edges):
        r[i, j] = r[j, i] = rng.uniform(-1.0, 1.0)
    if edges:
        radius = max(abs(np.linalg.eigvalsh(r)).max(), 1e-12)
        if radius > 0.85:
            r *= 0.85 / radius
    sigma = np.linalg.inv(np.eye(p) - r)
    d = rng.uniform(0.4, 2.5, size=p)
    sigma = sigma * np.outer(d, d)
    return (sigma + sigma.T) / 2.0


def sample_covariance(rng: np.random.Generator, sigma: np.ndarray, n: int) -> np.ndarray:
    x = rng.multivariate_normal(np.zeros(sigma.shape[0]), sigma, size=n)
    s = np.cov(x, rowvar=False)
    return (s + s.T) / 2.0


# -- independent counters ------------------------------------------------------------

def path_count_tables(p: int, edges: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """Simple-path counts by subset dynamic programme (p up to about 16).

    Returns ``(pairs, by_size)``: ``pairs[x, y]`` is the number of simple
    x-y paths, ``by_size[k]`` the number of unordered paths on k vertices.
    """
    n = 1 << p
    masks = np.arange(n)
    popcount = np.array([bin(m).count("1") for m in range(n)])
    # dp[mask, end, start]: paths from start to end with vertex set mask
    dp = np.zeros((n, p, p), dtype=np.int64)
    for x in range(p):
        dp[1 << x, x, x] = 1
    arcs = list(edges) + [(j, i) for i, j in edges]
    for k in range(1, p):
        layer = masks[popcount == k]
        for v, w in arcs:
            sel = layer[((layer >> v) & 1 == 1) & ((layer >> w) & 1 == 0)]
            dp[sel | (1 << w), w, :] += dp[sel, v, :]
    pairs = dp.sum(axis=0)
    np.fill_diagonal(pairs, 0)
    per_mask = dp.sum(axis=(1, 2))
    by_size = np.bincount(popcount, weights=per_mask, minlength=p + 1).astype(np.int64)
    by_size[1] = 0
    return pairs.T.copy(), by_size // 2


def count_paths_dfs(adj: list[list[int]], x: int, y: int | None = None,
                    allowed: set[int] | None = None, size: int | None = None) -> int:
    """Simple paths from ``x``, by an explicit-stack depth-first search.

    Counts the paths ending at ``y``, or every path from ``x`` when ``y`` is
    None; only through ``allowed`` vertices when given, and only paths on
    exactly ``size`` vertices when given.
    """
    count = 0
    on_path = [False] * len(adj)
    on_path[x] = True
    stack = [iter(adj[x])]
    trail = [x]
    while stack:
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            on_path[trail.pop()] = False
            continue
        if on_path[w] or (allowed is not None and w not in allowed):
            continue
        vertices = len(trail) + 1
        if y is None or w == y:
            count += size is None or vertices == size
            if w == y:
                continue
        if size is None or vertices < size:
            on_path[w] = True
            trail.append(w)
            stack.append(iter(adj[w]))
    return count


def ips_sweeps(s: np.ndarray, edges: list[tuple[int, int]], tol: float, limit: int) -> int | None:
    """Sweeps IPS needs to reach ``tol``, or None beyond ``limit``.

    Same cliques, start and stopping rule as the package's ``ips_fit``, but
    the fitted covariance is updated in place by a rank-|c| correction
    instead of a full inverse per clique.
    """
    p = s.shape[0]
    cliques = [[i] for i in range(p)] + [sorted(e) for e in sorted(edges)]
    constrained = np.eye(p, dtype=bool)
    for i, j in edges:
        constrained[i, j] = constrained[j, i] = True
    sigma = np.diag(np.diagonal(s)).astype(float)
    for sweep in range(1, limit + 1):
        for c in cliques:
            block = np.ix_(c, c)
            delta = np.linalg.inv(s[block]) - np.linalg.inv(sigma[block])
            m = delta @ np.linalg.inv(np.eye(len(c)) + sigma[block] @ delta)
            cols = sigma[:, c]
            sigma -= cols @ m @ cols.T
        if np.abs((sigma - s)[constrained]).max() < tol:
            return sweep
    return None


# -- model families ------------------------------------------------------------------

def dense_graph(rng: np.random.Generator, p: int, density: float, target_paths: int,
                band: float) -> tuple[list[tuple[int, int]], dict]:
    """Random graph (conftest recipe) kept only near ``target_paths`` paths.

    Returns the edges and their path counts: ``paths``, ``pair_paths`` and
    ``paths_by_size`` (see ``path_count_tables``).
    """
    for _ in range(10_000):
        edges = [(i, j) for i in range(p) for j in range(i + 1, p) if rng.random() < density]
        pairs, by_size = path_count_tables(p, edges)
        total = int(by_size.sum())
        if abs(total - target_paths) <= band * target_paths:
            return edges, {"paths": total, "pair_paths": pairs, "paths_by_size": by_size}
    raise RuntimeError("no graph within the path-count band")


def tree_with_chords(rng: np.random.Generator, p: int, chords: int) -> list[tuple[int, int]]:
    """Random recursive tree plus ``chords`` distinct extra edges."""
    edges = {(int(rng.integers(0, i)), i) for i in range(1, p)}
    while len(edges) < p - 1 + chords:
        i, j = sorted(int(v) for v in rng.choice(p, size=2, replace=False))
        edges.add((i, j))
    return sorted(edges)


def total_paths_dfs(p: int, edges: list[tuple[int, int]]) -> int:
    """All simple paths of the graph: every path is counted from both ends."""
    adj: list[list[int]] = [[] for _ in range(p)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    return sum(count_paths_dfs(adj, x) for x in range(p)) // 2


def sample_with_sweeps(rng: np.random.Generator, spec: ModelSpec, n: int,
                       sweeps: int | None, attempts: int = 200) -> np.ndarray:
    """Sample covariance of ``n`` draws, kept as ``spec.sample``.

    With ``sweeps``, redraws the model's covariance (the graph stays) and the
    sample until the IPS fit needs exactly that many sweeps; raises
    RuntimeError after ``attempts`` draws. Records the sweep count either way.
    """
    for attempt in range(1, attempts + 1):
        if sweeps is not None and attempt > 1:
            spec.sigma = draw_sigma(rng, spec.p, spec.edges)
        sample = sample_covariance(rng, spec.sigma, n)
        got = ips_sweeps(sample, spec.edges, 1e-9, 1000 if sweeps is None else sweeps)
        if sweeps is None or got == sweeps:
            spec.info.update(ips_sweeps=got, sample_draws=attempt)
            spec.sample = sample
            return sample
    raise RuntimeError(f"no sample of {spec.name} within {sweeps} IPS sweeps")


def chain_model(rng: np.random.Generator, p: int) -> ModelSpec:
    edges = [(i, i + 1) for i in range(p - 1)]
    return ModelSpec(f"chain{p}", vertex_names(p), edges, draw_sigma(rng, p, edges),
                     info={"paths": p * (p - 1) // 2})


# -- files ---------------------------------------------------------------------------

def write_covariance_csv(labels: list[str], s: np.ndarray, path: Path) -> None:
    lines = ["," + ",".join(labels)]
    lines += [lab + "," + ",".join(repr(float(x)) for x in row) for lab, row in zip(labels, s)]
    path.write_text("\n".join(lines) + "\n")
