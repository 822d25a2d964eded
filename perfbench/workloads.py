"""The benchmark's workloads: seeded inputs, timed operations and checks.

Each workload runs its own kinds of operation only: all-pairs
``betweenness``, all-pairs ``decompose`` and ``rank_paths`` on dense random
models; ``ips_fit`` and streams of single queries on large sparse models;
fresh CLI processes on the bundled dietary networks.

The graphs, and the vertex pairs the queries ask about, come from a fixed
seed; ``--seed`` draws the weights, the samples and the order of the CLI
commands. Path counts and IPS sweep counts set the cost of every operation,
so with the graphs fixed and the sweeps held to one count, every seed does
the same work and a run's times vary with the machine only.

Each timed library operation gets a Model built for it, untimed, just before
it runs, so no cache inside the model is warm, as for a user who loads a
model and analyses it once. Every operation's output is checked, untimed;
a raised exception or a failed check counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import pathweights as pw
import pathweights.cli as pw_cli

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
KINDS = (pw.Measure.COVARIANCE, pw.Measure.CORRELATION, pw.Measure.INFLATED_CORRELATION)
CLI_MEASURE = {pw.Measure.COVARIANCE: "cov", pw.Measure.CORRELATION: "cor",
               pw.Measure.INFLATED_CORRELATION: "inf"}

#: Decomposition identity tolerance, as DECOMP_TOL in tests/test_acceptance.py.
DECOMP_TOL = 1e-8
#: Relative tolerance of the other cross-checks, as REL_TOL in the same file.
REL_TOL = 1e-9
#: Relative tolerance for determinant-ratio identities on large blocks.
DET_TOL = 1e-7


def child_env() -> dict:
    """Environment of the processes the benchmark starts (BLAS pins inherited)."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def close(a: float, b: float, rel: float = REL_TOL, floor: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def rng_for(seed: int, stream: int, *key: int) -> np.random.Generator:
    """Independent generator per input family, so families do not shift each other.

    ``key`` picks a sub-stream of the family, such as one round's.
    """
    return np.random.default_rng(np.random.SeedSequence([stream, seed % 2**63], spawn_key=key))


def graph_rng(stream: int, *key: int) -> np.random.Generator:
    """Generator of the fixed graphs and query pairs: the same on every seed.

    Its entropy holds 2**63 where ``rng_for``'s holds the seed modulo 2**63,
    so the two never meet.
    """
    return np.random.default_rng(np.random.SeedSequence([stream, 2**63], spawn_key=key))


def load_json(name: str) -> dict:
    path = BENCH_DIR / name
    return json.loads(path.read_text()) if path.is_file() else {}


REFERENCE = load_json("reference.json")
GOLDEN = load_json("golden_cli.json")
#: Seeds whose generated models reference.json must hold.
REFERENCE_SEEDS = frozenset(REFERENCE.get("seeds", ()))


# -- operations and their accounting --------------------------------------------------

@dataclass
class Op:
    """One timed operation: untimed ``prepare``, timed ``run``, untimed ``check``.

    ``check`` returns None when the output is correct, else the reason.
    """

    kind: str
    label: str
    prepare: Callable[[], object]
    run: Callable[[object], object]
    check: Callable[[object], str | None]


@dataclass
class Stats:
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: per round: timed seconds of every operation, and of every in-process
    #: (non-CLI) operation
    rounds: list[float] = field(default_factory=list)
    inproc_rounds: list[float] = field(default_factory=list)
    cli_inproc: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {reason}")


def run_op(op: Op, stats: Stats, tracer=None) -> float:
    """Run one operation; returns its timed seconds (0 when it raised)."""
    stats.attempted += 1
    if tracer is not None:
        tracer.op += 1
    try:
        arg = op.prepare()
        t0 = time.perf_counter()
        out = op.run(arg)
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # every raise is a failed operation, never a crash
        stats.fail(op.label, f"{type(exc).__name__}: {exc}"[:200])
        return 0.0
    stats.samples.setdefault(op.kind, []).append(elapsed)
    try:
        reason = op.check(out)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"[:200]
    if reason:
        stats.fail(op.label, reason)
    return elapsed


def run_round(ops: list[Op], stats: Stats, tracer=None) -> None:
    gc.collect()  # untimed: every round starts from a collected heap, whatever came before
    times = [(op.kind, run_op(op, stats, tracer)) for op in ops]
    stats.rounds.append(sum(t for _, t in times))
    stats.inproc_rounds.append(sum(t for kind, t in times if kind != "cli"))


# -- independent oracles ------------------------------------------------------------------

class Oracle:
    """Plain-numpy facts about one generated model, computed once, untimed."""

    def __init__(self, spec: inputs.ModelSpec, reference_required: bool = False):
        self.spec = spec
        #: the recorded betweenness and per-pair path counts, when recorded
        self.reference = REFERENCE.get("models", {}).get(spec.fingerprint())
        self.reference_required = reference_required
        self.pos = {v: i for i, v in enumerate(spec.vertices)}
        self.adj = spec.adjacency()
        self.sigma = spec.sigma
        self.kappa = np.linalg.inv(spec.sigma)
        if spec.p <= 14 and "pair_paths" not in spec.info:
            spec.info["pair_paths"], spec.info["paths_by_size"] = inputs.path_count_tables(
                spec.p, spec.edges)
        self._pairs = spec.info.get("pair_paths")
        self._counts: dict[tuple, int] = {}  # depth-first counts, asked again every round

    def count(self, x: str, y: str, allowed=None) -> int:
        i, j = self.pos[x], self.pos[y]
        if allowed is None and self._pairs is not None:
            return int(self._pairs[i, j])
        keep = None if allowed is None else frozenset(self.pos[v] for v in allowed)
        if (i, j, keep) not in self._counts:
            self._counts[i, j, keep] = inputs.count_paths_dfs(self.adj, i, j, allowed=keep)
        return self._counts[i, j, keep]

    def pair_counts(self) -> np.ndarray:
        if self._pairs is None:
            p = self.spec.p
            self._pairs = np.zeros((p, p), dtype=np.int64)
            for i, j in combinations(range(p), 2):
                self._pairs[i, j] = self._pairs[j, i] = inputs.count_paths_dfs(self.adj, i, j)
        return self._pairs

    def count_by_size(self, size: int) -> int:
        by_size = self.spec.info.get("paths_by_size")
        if by_size is not None:
            return int(by_size[size])
        if ("size", size) not in self._counts:
            self._counts["size", size] = sum(inputs.count_paths_dfs(self.adj, i, j, size=size)
                                             for i, j in combinations(range(self.spec.p), 2))
        return self._counts["size", size]

    def shortest_path(self, x: str, y: str) -> list[str]:
        src, dst = self.pos[x], self.pos[y]
        prev = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in sorted(self.adj[u]):
                if w not in prev:
                    prev[w] = u
                    queue.append(w)
        seq, u = [], dst
        while u is not None:
            seq.append(self.spec.vertices[u])
            u = prev[u]
        return seq[::-1]

    def cov_weight(self, seq: list[str]) -> float:
        idx = [self.pos[v] for v in seq]
        sign = 1.0 if len(idx) % 2 else -1.0
        prod = math.prod(self.kappa[a, b] for a, b in zip(idx, idx[1:]))
        return sign * float(np.linalg.det(self.sigma[np.ix_(idx, idx)])) * prod

    def scale(self, kind, x: str, y: str) -> float:
        i, j = self.pos[x], self.pos[y]
        if kind is pw.Measure.CORRELATION:
            return 1.0 / math.sqrt(self.sigma[i, i] * self.sigma[j, j])
        if kind is pw.Measure.INFLATED_CORRELATION:
            return math.sqrt(self.kappa[i, i] * self.kappa[j, j])
        return 1.0

    def signable(self) -> bool:
        sign = {}
        for root in range(self.spec.p):
            if root in sign:
                continue
            sign[root] = 1
            stack = [root]
            while stack:
                u = stack.pop()
                for w in self.adj[u]:
                    pc = -self.kappa[u, w] / math.sqrt(self.kappa[u, u] * self.kappa[w, w])
                    if abs(pc) <= 1e-10:
                        continue
                    want = sign[u] * (1 if pc > 0 else -1)
                    if w not in sign:
                        sign[w] = want
                        stack.append(w)
                    elif sign[w] != want:
                        return False
        return True


def spec_from_model_file(path: Path, name: str) -> inputs.ModelSpec:
    """Spec (labels, edges, covariance) of a bundled pcor model, via numpy only."""
    doc = json.loads(path.read_text())
    vertices = doc["vertices"]
    pos = {v: i for i, v in enumerate(vertices)}
    r = np.zeros((len(vertices), len(vertices)))
    edges = []
    for e in doc["edges"]:
        i, j = sorted((pos[e["u"]], pos[e["v"]]))
        edges.append((i, j))
        r[i, j] = r[j, i] = e["pcor"]
    sigma = np.linalg.inv(np.eye(len(vertices)) - r)
    return inputs.ModelSpec(name, vertices, sorted(edges), (sigma + sigma.T) / 2.0)


# -- checks ------------------------------------------------------------------------------

def identity_error(report) -> str | None:
    if abs(report.residual) <= DECOMP_TOL * max(1.0, abs(report.target)):
        return None
    return f"identity residual {report.residual:.3e} on target {report.target:.6g}"


def missing_reference(oracle: Oracle) -> str | None:
    if oracle.reference is None and oracle.reference_required:
        return (f"model {oracle.spec.name} ({oracle.spec.fingerprint()}) is not in "
                "reference.json, although its seed is in the recorded range")
    return None


def check_betweenness(table, spec: inputs.ModelSpec, oracle: Oracle) -> str | None:
    raw = [r.betweenness for r in table.rows]
    if [r.vertex for r in table.rows] != list(spec.vertices):
        return "rows out of vertex order"
    ref = oracle.reference
    if ref is None:
        err = missing_reference(oracle)
        if err:
            return err
    else:
        bad = [v for v, a, b in zip(spec.vertices, raw, ref["betweenness"]) if not close(a, b)]
        if bad:
            return f"betweenness differs from the recorded reference at {bad[:3]}"
    pairs = oracle.pair_counts()
    for x, y in table.skipped_pairs:
        if pairs[oracle.pos[x], oracle.pos[y]]:
            return f"pair {x}-{y} skipped although it has paths"
    return None


def check_allpairs(reports, spec, oracle, table_box: dict) -> str | None:
    pairs = oracle.pair_counts()
    ref = oracle.reference
    err = missing_reference(oracle)
    if err:
        return err
    through = np.zeros(spec.p)
    for rep in reports:
        err = identity_error(rep)
        if err:
            return f"{rep.x}-{rep.y}: {err}"
        n = len(rep.entries)
        if n != pairs[oracle.pos[rep.x], oracle.pos[rep.y]]:
            return f"{rep.x}-{rep.y}: {n} paths, independent count {pairs[oracle.pos[rep.x], oracle.pos[rep.y]]}"
        for e in rep.entries:
            for v in e.path.interior:
                through[oracle.pos[v]] += e.share
    if ref is not None:
        want = ref["pair_paths"]
        got = [len(r.entries) for r in reports]
        if got != want:
            return "per-pair path counts differ from the recorded reference"
    table = table_box.get("table")
    if table is not None:
        raw = [r.betweenness for r in table.rows]
        bad = [v for v, a, b in zip(spec.vertices, raw, through) if not close(a, b)]
        if bad:
            return f"betweenness disagrees with all-pairs shares at {bad[:3]}"
    return None


def check_ranked(ranked, size: int, oracle: Oracle) -> str | None:
    if any(len(p) != size for p, _ in ranked):
        return "ranked path of the wrong size"
    if len(ranked) != oracle.count_by_size(size):
        return f"{len(ranked)} ranked paths, independent count {oracle.count_by_size(size)}"
    mags = [abs(w) for _, w in ranked]
    if any(a < b for a, b in zip(mags, mags[1:])):
        return "ranking not ordered by |weight|"
    for p, w in ranked[:: max(1, len(ranked) // 50)]:
        want = oracle.cov_weight(list(p.sequence)) * oracle.scale(
            pw.Measure.INFLATED_CORRELATION, p.x, p.y)
        if not close(w, want, rel=1e-8):
            return f"ranked weight of {p} is {w}, oracle {want}"
    return None


def fit_residual(fitted: np.ndarray, sample: np.ndarray, spec: inputs.ModelSpec) -> float:
    """Largest |fitted - sample| on the diagonal and the edges."""
    mask = np.eye(spec.p, dtype=bool)
    for i, j in spec.edges:
        mask[i, j] = mask[j, i] = True
    return float(np.abs((fitted - sample)[mask]).max())


def check_fit(model, sample: np.ndarray, spec: inputs.ModelSpec) -> str | None:
    if not isinstance(model, pw.Model):
        return "ips_fit did not return a Model"
    if tuple(model.vertices) != tuple(spec.vertices):
        return "fitted model has other vertices"
    residual = fit_residual(model.sigma.values, sample, spec)
    if residual >= 1e-9:
        return f"constrained residual {residual:.3e} not below tol"
    if np.linalg.eigvalsh(model.sigma.values).min() <= 0:
        return "fitted covariance not positive definite"
    return None


# -- the query stream --------------------------------------------------------------------

def query_ops(build: Callable[[], object], oracle: Oracle, x: str, y: str,
              restrict: list[str], kind, tag: str) -> list[Op]:
    """One stream of single queries on one model, each on a fresh model.

    The pair and path queries ask about ``x``, ``y`` and a shortest path
    between them; ``edge_measures`` on every edge is one query, as
    ``pathweights edges`` runs it on one loaded model.
    """
    seq = oracle.shortest_path(x, y)
    path = pw.Path(tuple(seq))
    edges = oracle.spec.edge_labels()
    ops = []

    def decompose_op(k, allowed):
        def check(rep):
            err = identity_error(rep)
            if err:
                return err
            want = oracle.count(x, y, allowed)
            return None if len(rep.entries) == want else f"{len(rep.entries)} paths, independent count {want}"
        label = f"{tag} decompose {x}-{y} {k.value}" + (" restricted" if allowed else "")
        return Op("query", label, build,
                  lambda m: pw.decompose(m, x, y, kind=k, restrict=allowed), check)

    for k in KINDS:
        ops.append(decompose_op(k, None))
        ops.append(decompose_op(k, restrict))

    w_cov = oracle.cov_weight(seq)
    w_kind = w_cov * oracle.scale(kind, path.x, path.y)
    idx = [oracle.pos[v] for v in seq]
    k_pp = oracle.kappa[np.ix_(idx, idx)]
    partial_cov = (1.0 if len(seq) % 2 else -1.0) * math.prod(
        oracle.kappa[a, b] for a, b in zip(idx, idx[1:])) / float(np.linalg.det(k_pp))
    dk = np.sqrt(np.diagonal(oracle.kappa))
    logdet_inflated = float(np.linalg.slogdet(oracle.sigma * np.outer(dk, dk))[1])
    w_inf = w_cov * oracle.scale(pw.Measure.INFLATED_CORRELATION, path.x, path.y)
    phi = w_inf / math.exp(logdet_inflated)
    ds = np.sqrt(np.diagonal(oracle.sigma))
    logdet_omega = float(np.linalg.slogdet(oracle.sigma / np.outer(ds, ds))[1])

    def expect(value, want, what, rel=1e-8):
        return None if close(value, want, rel=rel) else f"{what} {value!r}, oracle {want!r}"

    def check_bounds(b):
        lo, hi = b
        return None if lo == -hi and abs(w_kind) <= hi * (1 + 1e-9) else f"weight {w_kind} outside bounds {b}"

    def check_factors(fb):
        if not close(fb.weight, w_kind, rel=1e-8):
            return f"weight {fb.weight}, oracle {w_kind}"
        return expect(fb.reconstructed_weight(), fb.weight, "reconstructed weight")

    def check_identities(ids):
        vals = ids.values()
        return None if all(close(v, vals[0], rel=DET_TOL) for v in vals) else f"identities disagree: {vals}"

    def check_edges(measures):
        if [em.edge for em in measures] != [tuple(sorted(e)) for e in edges]:
            return "edge measures not for the edges asked, in order"
        for em in measures:
            i, j = oracle.pos[em.edge[0]], oracle.pos[em.edge[1]]
            pc = -oracle.kappa[i, j] / math.sqrt(oracle.kappa[i, i] * oracle.kappa[j, j])
            if not (close(em.pc, pc, rel=1e-8)
                    and close(em.nipc, em.pc / (1 - em.pc ** 2) * em.inflation)):
                return f"edge measures of {em.edge} inconsistent"
        return None

    def check_signs(assignment):
        if (assignment is not None) != oracle.signable():
            return f"signable={assignment is not None}, oracle {oracle.signable()}"
        if assignment is None:
            return None
        for u, v in edges:
            i, j = oracle.pos[u], oracle.pos[v]
            pc = -oracle.kappa[i, j] / math.sqrt(oracle.kappa[i, i] * oracle.kappa[j, j])
            if assignment.delta[u] * assignment.delta[v] * pc < -1e-10:
                return f"edge {u}-{v} negative after flip"
        return None

    label = f"{tag} path {path}"[:120]
    ops += [
        Op("query", f"{label} weight", build, lambda m: pw.weight(m, path, kind),
           lambda w: expect(w, w_kind, "weight")),
        Op("query", f"{label} partial_weight", build, lambda m: pw.partial_weight(m, path),
           lambda w: expect(w, partial_cov, "partial weight")),
        Op("query", f"{label} factorize", build, lambda m: pw.factorize(m, path, kind=kind),
           check_factors),
        Op("query", f"{label} normalized_weight", build, lambda m: pw.normalized_weight(m, path),
           lambda v: expect(v, phi, "normalized weight", rel=DET_TOL)),
        Op("query", f"{label} weight_bounds", build, lambda m: pw.weight_bounds(m, path, kind),
           check_bounds),
        Op("query", f"{tag} inflation identities", build,
           lambda m: pw.inflation_factor_identities(m, seq), check_identities),
        Op("query", f"{tag} global_collinearity", build, pw.global_collinearity,
           lambda g: None if abs(math.log(g) + logdet_omega) <= DET_TOL * max(1.0, abs(logdet_omega))
           else f"global collinearity {g}, oracle {math.exp(-logdet_omega)}"),
        Op("query", f"{tag} mtp2_sign_search", build, pw.mtp2_sign_search, check_signs),
        Op("query", f"{tag} edge_measures on {len(edges)} edges", build,
           lambda m: [pw.edge_measures(m, e) for e in edges], check_edges),
    ]
    return ops


# -- bulk operations ---------------------------------------------------------------------------

def bulk_ops(build, spec, oracle: Oracle, kind, rank_size: int, tag: str) -> list[Op]:
    """All-pairs betweenness, all-pairs decompose and rank_paths on one model."""
    box: dict = {}
    pairs = list(combinations(spec.vertices, 2))

    def run_betweenness(m):
        box["table"] = None
        table = pw.betweenness(m)
        box["table"] = table
        return table

    return [
        Op("betweenness", f"{tag} betweenness", build, run_betweenness,
           lambda t: check_betweenness(t, spec, oracle)),
        Op("decompose_allpairs", f"{tag} decompose all pairs {kind.value}", build,
           lambda m: [pw.decompose(m, x, y, kind=kind) for x, y in pairs],
           lambda reps: check_allpairs(reps, spec, oracle, box)),
        Op("rank_paths", f"{tag} rank_paths {rank_size}", build,
           lambda m: pw.rank_paths(m, rank_size),
           lambda ranked: check_ranked(ranked, rank_size, oracle)),
    ]


def fit_op(spec, tag: str) -> Op:
    """``ips_fit`` of the spec's sample covariance over its graph."""
    def prepare():
        graph = pw.Graph(spec.vertices, spec.edge_labels())
        return pw.SymMatrix(spec.vertices, spec.sample), graph
    return Op("fit", f"{tag} ips_fit", prepare, lambda a: pw.ips_fit(*a),
              lambda m: check_fit(m, spec.sample, spec))


# -- CLI processes ---------------------------------------------------------------------------

def run_cli_inprocess(argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pw_cli.main(list(argv))
    return code, out.getvalue(), time.perf_counter() - t0


def cli_op(argv: list[str], stats: Stats, tag: str,
           check_output: Callable[[str], str | None] | None = None) -> Op:
    """A fresh ``python -m pathweights.cli`` process, timed by wall clock.

    The check runs the same command in-process: the outputs must be
    byte-identical, and identical to the golden output when one is recorded.
    """
    key = " ".join(argv)

    def run(_):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "pathweights.cli", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        return proc, time.perf_counter() - t0

    def check(result):
        proc, wall = result
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        code, out, inproc = run_cli_inprocess(argv)
        stats.cli_inproc.append((wall, inproc))
        if code != 0 or out != proc.stdout:
            return "in-process output differs from the fresh process"
        if key in GOLDEN and proc.stdout != GOLDEN[key]:
            return "output differs from the golden output"
        return check_output(proc.stdout) if check_output else None

    return Op("cli", f"{tag} cli {key}"[:160], lambda: None, run, check)


# -- workloads --------------------------------------------------------------------------------

class Workload:
    """Inputs are generated in ``__init__``; ``setup`` is what ``setup_s`` times.

    ``bulk_oracles`` are the oracles of the models that the all-pairs
    operations run on, the ones ``reference.json`` records.

    ``round_ops(r, stats)`` depends only on the seed and ``r``, so a round can
    be run twice on identical inputs, untraced and traced.
    ``round_seconds`` is how long a round takes, its untimed model
    construction and checks included, on the 2-core x86_64 machine the
    benchmark was written on; ``--seconds`` divided by it is the number of
    rounds in a run.
    """

    name = ""
    round_seconds = 1.0
    bulk_oracles: list[Oracle] = []

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed, self.workdir = seed, workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self, r: int, stats: Stats) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Known-defect probes: run once, reported apart from the workload's operations."""
        return []

    def inventory(self) -> list[dict]:
        return []


def _inventory(specs) -> list[dict]:
    out = []
    for spec in specs:
        item = spec.inventory()
        pairs = item.pop("pair_paths", None)
        by_size = item.pop("paths_by_size", None)
        if by_size is not None:
            item["paths"] = int(np.asarray(by_size).sum())
        elif pairs is not None:
            item["paths"] = int(np.triu(pairs, 1).sum())
        out.append(item)
    return out


#: IPS sweeps of every sparse-large sample (sweeps set the cost of ips_fit).
SPARSE_SWEEPS = 5


def dense_specs(seed: int, smoke: bool) -> list[inputs.ModelSpec]:
    """Dense random models on one fixed graph: p=11, density 0.55, 100,000 +/- 5% simple paths."""
    p, target, count = (7, 300, 2) if smoke else (11, 100_000, 3)
    edges, info = inputs.dense_graph(graph_rng(1), p, 0.55, target, 0.05)
    rng = rng_for(seed, 1)
    return [inputs.ModelSpec(f"dense{i}", inputs.vertex_names(p), edges,
                             inputs.draw_sigma(rng, p, edges), info=dict(info))
            for i in range(count)]


def sparse_specs(seed: int, smoke: bool) -> list[inputs.ModelSpec]:
    """Models on one fixed tree-plus-5-chords graph at p=120, each with a sample to fit."""
    p, count = (40, 2) if smoke else (120, 3)
    edges = inputs.tree_with_chords(graph_rng(2), p, 5)
    info = {"chords": 5, "paths": inputs.total_paths_dfs(p, edges)}
    rng = rng_for(seed, 2)
    specs = []
    for i in range(count):
        spec = inputs.ModelSpec(f"sparse{i}", inputs.vertex_names(p), edges,
                                inputs.draw_sigma(rng, p, edges), info=dict(info))
        inputs.sample_with_sweeps(rng, spec, 10 * p, None if smoke else SPARSE_SWEEPS)
        specs.append(spec)
    return specs


def pick_restrict(rng, spec, x: str, y: str) -> list[str]:
    """Both endpoints plus a random 80% of the other vertices."""
    return [v for v in spec.vertices if v in (x, y) or rng.random() < 0.8]


def any_pair(rng, spec) -> tuple[str, str]:
    i, j = sorted(int(v) for v in rng.choice(spec.p, size=2, replace=False))
    return spec.vertices[i], spec.vertices[j]


class DenseAllPairs(Workload):
    """All-pairs path work on dense random models dominates.

    A round is the whole analysis of one model: all-pairs ``betweenness``,
    all-pairs ``decompose`` (the measure rotates) and ``rank_paths`` on
    p - 2 vertices. Rounds take the models in turn.
    """

    name = "dense-allpairs"
    round_seconds = 2.4

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.specs = dense_specs(seed, smoke)
        self.oracles = self.bulk_oracles = [
            Oracle(s, reference_required=seed in REFERENCE_SEEDS) for s in self.specs]
        self.rank_size = self.specs[0].p - 2

    def setup(self):
        self.models = [s.build() for s in self.specs]

    def round_ops(self, r, stats):
        i = r % len(self.specs)
        spec = self.specs[i]
        return bulk_ops(spec.build, spec, self.oracles[i], KINDS[(r // len(self.specs)) % 3],
                        self.rank_size, spec.name)

    def inventory(self):
        return _inventory(self.specs)


class SparseLarge(Workload):
    """Tree-plus-5-chords models at p=120, fitted and queried one call at a time.

    A round takes one model, the models in turn: ``ips_fit`` of its sample,
    then query streams on ``PAIRS`` vertex pairs, each on a fresh model.
    """

    name = "sparse-large"
    round_seconds = 2.4
    PAIRS = 8

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.specs = sparse_specs(seed, smoke)
        self.oracles = [Oracle(s) for s in self.specs]
        self.chain = inputs.chain_model(rng_for(seed, 3), 1200)

    def setup(self):
        self.models = [s.build() for s in self.specs]
        self.chain_model = self.chain.build()

    def round_ops(self, r, stats):
        i = r % len(self.specs)
        spec, oracle = self.specs[i], self.oracles[i]
        rng = graph_rng(2, r)  # the pairs, like the graph, are the same on every seed
        ops = [fit_op(spec, spec.name)]
        for j in range(self.PAIRS):
            x, y = any_pair(rng, spec)
            ops += query_ops(spec.build, oracle, x, y, pick_restrict(rng, spec, x, y),
                             KINDS[(r + j) % 3], spec.name)
        return ops

    def probes(self):
        """End-to-end decompose across the 1,200-vertex chain."""
        first, last = self.chain.vertices[0], self.chain.vertices[-1]
        return [Op("probe", f"chain{self.chain.p} decompose {first}-{last}",
                   lambda: self.chain_model,
                   lambda m: pw.decompose(m, first, last),
                   lambda rep: identity_error(rep) or (
                       None if len(rep.entries) == 1 else f"{len(rep.entries)} paths, expected 1"))]

    def inventory(self):
        return _inventory(self.specs + [self.chain])


DIETARY = {
    "women": {"pair": ("soup", "cooked_vegetables"),
              "restrict": ["soup", "legumes", "cooked_vegetables", "potatoes", "red_meat", "cabbage"]},
    "men": {"pair": ("soup", "cooked_vegetables"),
            "restrict": ["soup", "legumes", "cooked_vegetables", "potatoes", "cabbage"]},
}
DIETARY_DATA = "src/pathweights/data/{}.model"
FIT_SAMPLE = ".perfbench/work/cli-dietary/women-sample.csv"
FIT_OUTPUT = ".perfbench/work/cli-dietary/fitted.model"


def dietary_commands(name: str, kind_name: str) -> list[list[str]]:
    """Every CLI subcommand but ``fit`` on one bundled model, at default precision."""
    path = DIETARY_DATA.format(name)
    x, y = DIETARY[name]["pair"]
    restrict = ",".join(DIETARY[name]["restrict"])
    return [["check", path], ["matrices", path],
            *[["decompose", path, x, y, "--measure", m] for m in ("cov", "cor", "inf")],
            ["decompose", path, x, y, "--measure", kind_name, "--restrict", restrict],
            ["centrality", path], ["centrality", path, "--mode", "shortest"],
            ["rank-paths", path, "--vertices", "4"], ["edges", path, "--format", "json"],
            ["mtp2", path]]


class CliDietary(Workload):
    """Fresh CLI processes on the bundled women's and men's dietary networks.

    A pass is every subcommand once, ``fit`` included, in a seeded order; the
    subcommands alternate between the two networks, and swap networks from
    one pass to the next. A round is a third of a pass: four processes.
    """

    name = "cli-dietary"
    round_seconds = 2.0
    ROUNDS_PER_PASS = 3

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.paths = {n: ROOT / DIETARY_DATA.format(n) for n in DIETARY}
        self.specs = {n: spec_from_model_file(p, n) for n, p in self.paths.items()}
        women = self.specs["women"]
        inputs.sample_with_sweeps(rng_for(seed, 4), women, 200, None)
        inputs.write_covariance_csv(women.vertices, women.sample, ROOT / FIT_SAMPLE)

    def setup(self):
        self.models = {n: pw.load_model(p) for n, p in self.paths.items()}

    def round_ops(self, r, stats):
        women = self.specs["women"]
        n, part = divmod(r, self.ROUNDS_PER_PASS)
        shapes = [dietary_commands(name, CLI_MEASURE[KINDS[n % 3]]) for name in ("women", "men")]
        argvs = [shapes[(j + n) % 2][j] for j in range(len(shapes[0]))]
        argvs.append(["fit", FIT_SAMPLE, DIETARY_DATA.format("women"), FIT_OUTPUT])
        order = rng_for(self.seed, 5, n).permutation(len(argvs))
        ops = []
        for j in np.array_split(order, self.ROUNDS_PER_PASS)[part]:
            check = (lambda _: check_fit_file(ROOT / FIT_OUTPUT, women.sample, women)
                     ) if argvs[j][0] == "fit" else None
            ops.append(cli_op(argvs[j], stats, "dietary", check))
        return ops

    def probes(self):
        """CLI output must not depend on the interpreter's string-hash seed."""
        women = DIETARY_DATA.format("women")
        return [hashseed_probe(argv, "1") for argv in (
            ["rank-paths", women, "--vertices", "4"],
            ["decompose", women, *DIETARY["women"]["pair"], "--measure", "inf"])]

    def inventory(self):
        return _inventory(self.specs.values())


def hashseed_probe(argv: list[str], hashseed: str) -> Op:
    """A CLI process under another PYTHONHASHSEED, compared with the golden output."""
    key = " ".join(argv)

    def run(_):
        return subprocess.run([sys.executable, "-m", "pathweights.cli", *argv], cwd=ROOT,
                              env=dict(child_env(), PYTHONHASHSEED=hashseed),
                              capture_output=True, text=True, timeout=120)

    return Op("probe", f"PYTHONHASHSEED={hashseed} cli {key}", lambda: None, run,
              lambda proc: None if proc.stdout == GOLDEN.get(key)
              else "output differs from the golden output recorded under PYTHONHASHSEED=0")


def check_fit_file(path: Path, sample: np.ndarray, spec) -> str | None:
    doc = json.loads(path.read_text())
    labels = doc["sigma"]["labels"]
    order = [labels.index(v) for v in spec.vertices]
    fitted = np.array(doc["sigma"]["rows"])[np.ix_(order, order)]
    residual = fit_residual(fitted, sample, spec)
    return None if residual < 1e-9 else f"fitted file residual {residual:.3e}"


WORKLOADS = {w.name: w for w in (DenseAllPairs, SparseLarge, CliDietary)}
