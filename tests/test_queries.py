"""Edge, pair and path queries on integer positions.

The single queries read Sigma and K entry by entry or by principal block, and
take blocks of up to 3 vertices in closed form; none of them builds the p x p
partial correlation matrix R or the inflated correlation matrix. The
references below take the same quantities from those full matrices, and
every determinant from a block cut out of Sigma or K, so each comparison is
exact (``==``). The one exception is the partial weight with the default
restriction A = V(P), whose covariance (K_PP)^-1 equals the Schur complement
of Sigma on the other vertices only up to rounding: its move is bounded.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from pathweights import (
    Measure,
    Model,
    NotConvergedError,
    SymMatrix,
    edge_measures,
    enumerate_paths,
    factorize,
    global_collinearity,
    inflated_weight_explicit,
    inflation_factor,
    ips_fit,
    is_mtp2,
    mtp2_sign_search,
    normalized_weight,
    partial_inflated_weight_explicit,
    partial_weight,
    weight,
)
from pathweights.cli import main
from pathweights.symmetric import chol_det, det_product

from conftest import tree_with_chords, vertex_names
from test_engine_differential import CORPUS

KINDS = (Measure.COVARIANCE, Measure.CORRELATION, Measure.INFLATED_CORRELATION)

#: Largest relative move of a default-A partial weight, inflation or endpoint
#: inflation from the Schur-complement route. Of the 8,100 values that
#: test_default_partial_weights_stay_near_the_schur_route compares, the
#: largest moved by 3.3e-15: the bound leaves a factor of 3 of headroom.
PARTIAL_MOVE_BOUND = 1e-14


def fresh(m: Model) -> Model:
    """The same model with no derived matrix built yet."""
    return Model(m.graph, m.sigma, kappa=m.kappa)


def block(mat: SymMatrix, idx) -> np.ndarray:
    return mat.values[np.ix_(idx, idx)]


def query_paths(m: Model, rng: np.random.Generator, pairs: int = 4, per_pair: int = 3) -> list:
    """A few paths of random vertex pairs of ``m``."""
    out = []
    for _ in range(pairs):
        x, y = (str(v) for v in rng.choice(m.vertices, size=2, replace=False))
        paths = enumerate_paths(m.graph, x, y, cap=10_000)
        out += [paths[int(i)] for i in rng.choice(len(paths), size=min(per_pair, len(paths)), replace=False)]
    return out


def models():
    return [pytest.param(m, id=f"corpus-{i}") for i, m in enumerate(CORPUS)] + [
        pytest.param("women", id="women"), pytest.param("men", id="men"),
        pytest.param("sparse_model", id="sparse-p120")]


def resolve(m, request) -> Model:
    return request.getfixturevalue(m) if isinstance(m, str) else m


# -- the references: full R and varrho, blocks of Sigma and K -------------------------


def ref_complement_inflation(m: Model, idx: list[int]) -> float:
    if not 0 < len(idx) < m.sigma.dim:
        return 1.0
    return det_product(((block(m.sigma, idx), None, 1), (block(m.kappa, idx), None, 1)))


def ref_edge(m: Model, u: str, v: str) -> tuple:
    u, v = (u, v) if u <= v else (v, u)
    pc = m.partial_corr.entry(u, v)
    infl = ref_complement_inflation(m, m.sigma.positions((u, v)))
    return (u, v), pc, infl, pc * infl, pc / (1.0 - pc * pc) * infl


def ref_global_collinearity(m: Model, kind: str) -> float:
    mat, e = (m.sigma, -1) if kind == "variance" else (m.kappa, 1)
    return det_product([(block(mat, [i]), None, 1) for i in range(m.sigma.dim)] + [(m.sigma.values, None, e)])


def ref_run(m: Model, seq: list[int]) -> tuple[list[float]]:
    return ([m.partial_corr.values[u, v] for u, v in zip(seq, seq[1:])],)


def ref_i_minus_r(m: Model, idx) -> np.ndarray:
    return np.eye(len(idx)) - block(m.partial_corr, idx)


def ref_scale(m: Model, kind, cond: SymMatrix, x: str, y: str) -> float:
    if kind is Measure.CORRELATION:
        return 1.0 / math.sqrt(cond.entry(x, x) * cond.entry(y, y))
    if kind is Measure.INFLATED_CORRELATION:
        return math.sqrt(m.kappa.entry(x, x) * m.kappa.entry(y, y))
    return 1.0


def ref_path_values(m: Model, path) -> dict:
    seq = [m.graph._index[v] for v in path.sequence]
    on = sorted(seq)
    off = [i for i in range(m.sigma.dim) if i not in set(seq)]
    sign = 1.0 if len(seq) % 2 else -1.0
    prod = math.prod((m.kappa.values[u, v] for u, v in zip(seq, seq[1:])), start=1.0)
    det = chol_det(block(m.sigma, on))
    out = {f"weight {kind.value}": sign * det * prod * ref_scale(m, kind, m.sigma, path.x, path.y)
           for kind in KINDS}
    out["normalized_weight"] = det_product(((ref_i_minus_r(m, off), None, 1), ref_run(m, seq)))
    out["inflated_weight_explicit"] = det_product(((block(m.inflated, on), None, 1), ref_run(m, seq)))
    out["partial_inflated_weight_explicit"] = det_product((ref_run(m, seq), (ref_i_minus_r(m, on), None, -1)))
    out["inflation_factor"] = ref_complement_inflation(m, on)
    return out


def path_values(m: Model, path) -> dict:
    out = {f"weight {kind.value}": weight(m, path, kind) for kind in KINDS}
    out["normalized_weight"] = normalized_weight(m, path)
    out["inflated_weight_explicit"] = inflated_weight_explicit(m, path)
    out["partial_inflated_weight_explicit"] = partial_inflated_weight_explicit(m, path)
    out["inflation_factor"] = inflation_factor(m, path.sequence)
    return out


# -- bit identity -----------------------------------------------------------------------


@pytest.mark.parametrize("model", models())
def test_queries_keep_the_bits_of_the_matrix_formulas(model, request):
    m = resolve(model, request)
    q = fresh(m)
    for u, v in m.graph.sorted_edges():
        em = edge_measures(q, (v, u))
        assert (em.edge, em.pc, em.inflation, em.npc, em.nipc) == ref_edge(m, u, v)
        assert q.edge_partial_correlation(u, v) == m.partial_corr.entry(u, v)
    for kind in ("variance", "partial-variance"):
        assert global_collinearity(q, kind) == ref_global_collinearity(m, kind)
    rng = np.random.default_rng([20190712, len(m.vertices), len(m.graph.edges)])
    for path in query_paths(m, rng):
        assert path_values(q, path) == ref_path_values(m, path)
    for size in range(1, min(6, len(m.vertices))):
        a = sorted(int(i) for i in rng.choice(len(m.vertices), size=size, replace=False))
        assert inflation_factor(q, [m.vertices[i] for i in a]) == ref_complement_inflation(m, a)
    signs = mtp2_sign_search(q)
    assert is_mtp2(q) == all(m.partial_corr.entry(u, v) >= -1e-10 for u, v in m.graph.edges)
    assert q._partial_corr is None and q._inflated is None
    if signs is not None:
        assert all(signs.delta[u] * signs.delta[v] * m.partial_corr.entry(u, v) >= -1e-10
                   for u, v in m.graph.edges)


def test_default_partial_weights_stay_near_the_schur_route(women, men, sparse_model):
    worst, count = 0.0, 0
    for i, m in enumerate(CORPUS + [women, men, sparse_model]):
        rng = np.random.default_rng([20190713, i])
        for path in query_paths(m, rng):
            vset = path.vertex_set
            cond = m.sigma.schur_complement(vset, m.graph.complement(vset))
            seq = [m.graph._index[v] for v in path.sequence]
            sign = 1.0 if len(seq) % 2 else -1.0
            prod = math.prod((m.kappa.values[u, v] for u, v in zip(seq, seq[1:])), start=1.0)
            base = sign * chol_det(cond.values) * prod
            inflation = chol_det(block(m.sigma, sorted(seq))) / chol_det(cond.values) \
                if len(seq) < len(m.vertices) else 1.0
            for kind in KINDS:
                scale = ref_scale(m, kind, cond, path.x, path.y)
                want = (base * scale, inflation, scale / ref_scale(m, kind, m.sigma, path.x, path.y))
                fb = factorize(m, path, kind=kind)
                got = (partial_weight(m, path, kind=kind), fb.inflation, fb.endpoint_inflation)
                assert got[0] == fb.partial_weight
                assert fb.weight == weight(m, path, kind)
                assert fb.phi == normalized_weight(m, path)
                for g, w in zip(got, want):
                    worst, count = max(worst, abs(g - w) / abs(w)), count + 1
    assert count > 1000
    assert worst <= PARTIAL_MOVE_BOUND


# -- no query builds the p x p derived matrices ---------------------------------------


@pytest.mark.parametrize("query", [
    lambda m, path: weight(m, path, Measure.INFLATED_CORRELATION),
    lambda m, path: normalized_weight(m, path),
    lambda m, path: inflated_weight_explicit(m, path),
    lambda m, path: partial_inflated_weight_explicit(m, path),
    lambda m, path: partial_weight(m, path),
    lambda m, path: factorize(m, path, kind=Measure.CORRELATION),
    lambda m, path: [edge_measures(m, e) for e in m.graph.sorted_edges()],
    lambda m, path: [m.edge_partial_correlation(*e) for e in m.graph.sorted_edges()],
    lambda m, path: global_collinearity(m, "partial-variance"),
    lambda m, path: mtp2_sign_search(m),
    lambda m, path: is_mtp2(m),
], ids=["weight", "normalized_weight", "inflated_weight_explicit", "partial_inflated_weight_explicit",
        "partial_weight", "factorize", "edge_measures", "edge_partial_correlation",
        "global_collinearity", "mtp2_sign_search", "is_mtp2"])
def test_single_queries_build_no_derived_matrix(query, sparse_model):
    m = fresh(sparse_model)
    path = enumerate_paths(m.graph, m.vertices[3], m.vertices[100])[0]
    query(m, path)
    assert m._partial_corr is None
    assert m._inflated is None
    assert m._omega is None


# -- ips_fit ----------------------------------------------------------------------------


def sample_covariance(rng, p):
    a = rng.normal(size=(p, 2 * p))
    s = a @ a.T / (2 * p) + 0.2 * np.eye(p)
    return SymMatrix(vertex_names(p), (s + s.T) / 2)


def test_ips_fit_inverts_no_edge_clique_with_lapack(monkeypatch):
    rng = np.random.default_rng(431)
    graph = tree_with_chords(rng, 30, 4)
    assert all(graph.neighbors(v) for v in graph.vertices)
    sample = sample_covariance(rng, 30)
    shapes = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(np.shape(a)) or inv(a))
    with pytest.raises(NotConvergedError):
        ips_fit(sample, graph, max_iter=3, tol=1e-300)
    # one p x p inverse of K per sweep, and no other
    assert shapes == [(30, 30)] * 3


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_ips_fit_rejects_a_tolerance_that_is_not_positive_and_finite(tol, women):
    with pytest.raises(ValueError, match="tol"):
        ips_fit(women.sigma, women.graph, tol=tol)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_ips_fit_rejects_a_sweep_budget_below_one(max_iter, women):
    with pytest.raises(ValueError, match="max_iter"):
        ips_fit(women.sigma, women.graph, max_iter=max_iter)


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "0", "must be a finite number greater than 0, got 0"),
    ("--tol", "-1", "must be a finite number greater than 0, got -1"),
    ("--tol", "nan", "must be a finite number greater than 0, got nan"),
    ("--tol", "tight", "must be a finite number greater than 0, got tight"),
    ("--max-iter", "-3", "must be a positive integer, got -3"),
    ("--max-iter", "0", "must be a positive integer, got 0"),
])
def test_fit_cli_rejects_bad_tolerance_and_budget(flag, value, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "sample.csv", "graph.model", str(tmp_path / "fitted.model"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "fitted.model").exists()
