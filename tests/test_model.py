import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from pathweights import (
    CustomScaling,
    Graph,
    Model,
    NotAdaptedError,
    NotPositiveDefiniteError,
    SymMatrix,
    UnknownVertexError,
)

from conftest import oracle_schur, random_model, vertex_names
from pathweights import symmetric
from pathweights.datasets import men_network, women_network
from test_engine_differential import CORPUS

SRC = Path(__file__).resolve().parents[1] / "src"


def test_diagonal_sigma_edgeless_graph():
    g = Graph(["a", "b"])
    m = Model.from_sigma(g, SymMatrix(["a", "b"], np.diag([2.0, 3.0])))
    np.testing.assert_allclose(m.kappa.values, np.diag([0.5, 1 / 3]))
    np.testing.assert_allclose(m.partial_corr.values, 0.0)
    np.testing.assert_allclose(m.omega.values, np.eye(2))
    np.testing.assert_allclose(m.inflated.values, np.eye(2))


def test_from_sigma_triangle_fixture(triangle):
    # rebuild through the covariance route; must agree with the pcor route
    m = Model.from_sigma(triangle.graph, triangle.sigma)
    np.testing.assert_allclose(m.kappa.values, triangle.kappa.values, atol=1e-12)
    np.testing.assert_allclose(m.partial_corr.values - np.diag([0.0] * 3),
                               triangle.partial_corr.values, atol=1e-12)


def test_from_sigma_rejects_non_adapted():
    g = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    sigma = SymMatrix(["1", "2", "3"], [[1.0, 0.5, 0.4], [0.5, 1.0, 0.5], [0.4, 0.5, 1.0]])
    with pytest.raises(NotAdaptedError) as err:
        Model.from_sigma(g, sigma)
    assert any(set(v[:2]) == {"1", "3"} for v in err.value.violations)


def test_adaptedness_violations_listed_row_major_with_magnitudes():
    rng = np.random.default_rng(4)
    m = random_model(rng, 9, 0.6)
    sparser = Graph(m.vertices, sorted(m.graph.edges)[::2])
    with pytest.raises(NotAdaptedError) as err:
        Model.from_sigma(sparser, m.sigma)
    k = m.kappa.values
    want = [
        (u, v, abs(k[i, j]) / np.sqrt(k[i, i] * k[j, j]))
        for i, u in enumerate(m.vertices)
        for j, v in enumerate(m.vertices)
        if i < j and not sparser.has_edge(u, v) and abs(k[i, j]) / np.sqrt(k[i, i] * k[j, j]) > 1e-8
    ]
    assert len(want) > 3
    assert list(err.value.violations) == want


def test_adaptedness_check_at_extreme_scales():
    # K past 1e154 made sqrt(k_ii * k_jj) overflow, so a 0.3 partial
    # correlation on a non-edge read as 0. Sigma scaled by 2**e (e even) has
    # K scaled by exactly 2**-e, so the violations keep their bits.
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    r = np.array([[0.0, 0.4, 0.3], [0.4, 0.0, 0.4], [0.3, 0.4, 0.0]])
    bad = SymMatrix(g.vertices, np.linalg.inv(np.eye(3) - r))
    r[0, 2] = r[2, 0] = 0.0
    good = SymMatrix(g.vertices, np.linalg.inv(np.eye(3) - r))
    with pytest.raises(NotAdaptedError) as err:
        Model.from_sigma(g, bad)
    want = list(err.value.violations)
    assert [v[:2] for v in want] == [("a", "c")] and want[0][2] == pytest.approx(0.3)
    pcor = Model.from_sigma(g, good).partial_corr.values
    for e in (530, -530, 1000, -1000):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NotAdaptedError) as err:
                Model.from_sigma(g, SymMatrix(g.vertices, np.ldexp(bad.values, e)))
            assert list(err.value.violations) == want
            m = Model.from_sigma(g, SymMatrix(g.vertices, np.ldexp(good.values, e)))
        # the non-edge entry of K, about 1e-17 of its diagonal, goes subnormal at 2**-1000
        np.testing.assert_allclose(m.partial_corr.values, pcor, rtol=1e-12, atol=1e-15)
    for scale in (1e-300, 1e-160, 1e160, 1e300):
        with pytest.raises(NotAdaptedError) as err:
            Model.from_sigma(g, SymMatrix(g.vertices, bad.values * scale))
        ((u, v, mag),) = err.value.violations
        assert (u, v) == ("a", "c") and mag == pytest.approx(0.3, rel=1e-12)


def count_factorizations(monkeypatch) -> dict:
    """Counts of LAPACK dpotrf and ``np.linalg.cholesky`` calls from here on."""
    calls = {"dpotrf": 0, "cholesky": 0}

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(symmetric._flapack, "dpotrf", counted("dpotrf", symmetric._flapack.dpotrf))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    return calls


@pytest.mark.parametrize("p", [0, 1, 3, 9, 1200])
def test_a_model_takes_one_factorization_of_sigma(monkeypatch, p):
    # the factor of Sigma gives the positive-definite check, K and |varrho|
    names = vertex_names(p)
    g = Graph(names, list(zip(names, names[1:])))
    pcor = {e: 0.45 for e in g.edges}
    ref = Model.from_partial_correlations(g, pcor)
    d = np.random.default_rng(p).uniform(0.5, 2.0, size=p)
    sigma = SymMatrix(names, ref.sigma.values * np.outer(d, d))
    calls = count_factorizations(monkeypatch)
    m = Model.from_sigma(g, sigma)
    assert calls == {"dpotrf": min(p, 1), "cholesky": 0}
    Model.from_partial_correlations(g, pcor)  # one for I - R, one for Sigma
    assert calls == {"dpotrf": 3 * min(p, 1), "cholesky": 0}
    assert m.vertices == tuple(names)
    np.testing.assert_array_equal(m.kappa.values, m.sigma.inverse().values)
    np.testing.assert_allclose(m.partial_corr.values, ref.partial_corr.values, rtol=1e-12, atol=1e-15)
    if p <= 3:  # the closed form of varrho itself
        assert m._inflated_det == m.inflated.det()


def test_kappa_and_inflated_determinant_on_the_differential_corpus():
    # K is the inverse of Sigma, bit for bit; |varrho| = |Sigma| * prod k_vv
    # comes within a few ulps of the determinant of varrho itself (p = 4..11,
    # measured maximum 2.3e-15 over these 216 models)
    for model in CORPUS:
        for m in (model, Model.from_sigma(model.graph, model.sigma)):
            if m.source_kind == "sigma":
                assert (m.kappa.values == m.sigma.inverse().values).all()
            assert abs(m._inflated_det / m.inflated.det() - 1) <= 4e-15


def chain_model(p):
    names = vertex_names(p)
    g = Graph(names, list(zip(names, names[1:])))
    return random_model(np.random.default_rng(p), p, 0.0, graph=g)


def test_building_a_model_holds_two_p_by_p_matrices():
    # a model keeps Sigma and K; the factor of Sigma is dropped before the
    # adaptedness check, and the inverse and the check work a strip of rows
    # at a time
    p = 400
    m = chain_model(p)
    tracemalloc.start()
    try:
        built = Model.from_sigma(m.graph, m.sigma)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    floats = 8 * p * p
    assert retained <= 1.1 * floats
    assert peak <= 3 * floats
    assert np.array_equal(built.kappa.values, m.kappa.values)


def eager_derived(m):
    """The derived matrices as the constructor once built them."""
    k = m.kappa.values
    dk = np.sqrt(np.diagonal(k))
    r = -k / np.outer(dk, dk)
    np.fill_diagonal(r, 0.0)
    ds = np.sqrt(m.sigma.diagonal())
    return {"partial_corr": r, "omega": m.sigma.values / np.outer(ds, ds),
            "inflated": m.sigma.values * np.outer(dk, dk)}


def test_derived_matrices_are_built_on_first_read():
    models = [*CORPUS, women_network(), men_network(), chain_model(1200)]
    for model in models:
        for m in (Model(model.graph, model.sigma, kappa=model.kappa), Model.from_sigma(model.graph, model.sigma)):
            assert m._omega is m._partial_corr is m._inflated is None
            for name, want in eager_derived(m).items():
                got = getattr(m, name)
                assert got.labels == m.vertices
                assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64)), name
                assert getattr(m, name) is got
                with pytest.raises(AttributeError):
                    setattr(m, name, got)


def test_concurrent_first_reads_give_equal_matrices():
    # no lock: threads that race on a first read each build the matrix from
    # the same operands, and any of the equal results may be the one kept
    names = ("partial_corr", "omega", "inflated")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for model in (CORPUS[0], CORPUS[-1], chain_model(300)):
            m = Model(model.graph, model.sigma, kappa=model.kappa)
            start = threading.Barrier(4, timeout=60)
            seen = []

            def read():
                start.wait()
                seen.append([getattr(m, name).values for name in names])

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(seen) == 4
            want = eager_derived(m)
            for got in seen:
                for name, a in zip(names, got):
                    assert np.array_equal(a, want[name]) and np.array_equal(a, getattr(m, name).values), name
    finally:
        sys.setswitchinterval(interval)


def test_from_sigma_rejects_non_pd():
    g = Graph(["1", "2"], [("1", "2")])
    with pytest.raises(NotPositiveDefiniteError):
        Model.from_sigma(g, SymMatrix(["1", "2"], [[1.0, 1.0], [1.0, 1.0]]))


def test_from_sigma_label_mismatch():
    g = Graph(["1", "2"])
    with pytest.raises(UnknownVertexError):
        Model.from_sigma(g, SymMatrix(["1", "x"], np.eye(2)))


def test_unknown_vertex_labels_do_not_depend_on_the_hash_seed():
    # a set's order of strings changes with PYTHONHASHSEED; the labels come sorted
    code = ("import numpy as np\n"
            "from pathweights import Graph, Model, SymMatrix, UnknownVertexError\n"
            "s = SymMatrix(['a', 'x', 'y'], np.eye(3))\n"
            "for make in (lambda: Model(Graph(['a', 'b', 'c'], [('a', 'b')]), s),\n"
            "             lambda: s.reindexed(['a', 'b', 'c'])):\n"
            "    try:\n"
            "        make()\n"
            "    except UnknownVertexError as exc:\n"
            "        print(exc.missing, exc)\n")
    expected = "('b', 'c', 'x', 'y') unknown vertex label(s): 'b', 'c', 'x', 'y'"
    for seed in "0123":
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [expected, expected], seed


def test_sigma_reordered_to_graph_order():
    g = Graph(["b", "a"], [("a", "b")])
    m = Model.from_sigma(g, SymMatrix(["a", "b"], [[2.0, 0.3], [0.3, 1.0]]))
    assert m.sigma.labels == ("b", "a")
    assert m.sigma.entry("a", "a") == 2.0
    # a supplied concentration matrix is reordered too, and must match the labels
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    ref = Model.from_partial_correlations(g, {("a", "b"): 0.4, ("b", "c"): -0.3})
    m = Model(g, ref.sigma, kappa=ref.kappa.reindexed(("c", "b", "a")))
    assert m.kappa.labels == g.vertices
    assert m.partial_corr.entry("a", "b") == 0.4
    np.testing.assert_array_equal(m.partial_corr.values, ref.partial_corr.values)
    with pytest.raises(UnknownVertexError):
        Model(g, ref.sigma, kappa=SymMatrix(["a", "b", "d"], ref.kappa.values))


# -- from_partial_correlations ------------------------------------------------------


def test_pcor_no_edges_gives_identity():
    m = Model.from_partial_correlations(Graph(["a", "b", "c"]), {})
    np.testing.assert_array_equal(m.sigma.values, np.eye(3))
    np.testing.assert_array_equal(m.kappa.values, np.eye(3))


def test_pcor_single_edge_closed_form():
    g = Graph(["1", "2"], [("1", "2")])
    m = Model.from_partial_correlations(g, {("1", "2"): 0.31})
    assert m.sigma.entry("1", "2") == pytest.approx(0.31 / (1 - 0.31**2), rel=1e-12)
    # round-trips the input exactly
    assert m.partial_corr.entry("1", "2") == 0.31


def test_pcor_requires_all_edges():
    g = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    with pytest.raises(ValueError, match="missing"):
        Model.from_partial_correlations(g, {("1", "2"): 0.2})


def test_pcor_rejects_out_of_range_and_non_edges():
    g = Graph(["1", "2"], [("1", "2")])
    with pytest.raises(ValueError):
        Model.from_partial_correlations(g, {("1", "2"): 1.0})
    with pytest.raises(ValueError):
        Model.from_partial_correlations(Graph(["1", "2", "3"], [("1", "2")]),
                                        {("1", "2"): 0.2, ("1", "3"): 0.1})


def test_pcor_rejects_an_edge_given_in_both_orientations():
    g = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    with pytest.raises(ValueError, match="duplicate partial correlation for edge '2'--'1'"):
        Model.from_partial_correlations(g, {("1", "2"): 0.2, ("2", "3"): 0.1, ("2", "1"): 0.2})


def test_pcor_rejects_non_pd():
    # triangle with all partial correlations 0.9: I - R is indefinite
    g = Graph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
    pc = {e: 0.9 for e in g.sorted_edges()}
    with pytest.raises(NotPositiveDefiniteError):
        Model.from_partial_correlations(g, pc)


def test_women_table_builds(women):
    assert len(women.vertices) == 13
    assert len(women.graph.edges) == 17


# -- derived matrices -------------------------------------------------------------


def test_correlation_matrix_examples(triangle):
    g = Graph(["1", "2"], [("1", "2")])
    m = Model.from_sigma(g, SymMatrix(["1", "2"], [[4.0, 1.0], [1.0, 1.0]]))
    assert m.omega.entry("1", "2") == pytest.approx(0.5)
    s = triangle.sigma
    expected = s.entry("1", "3") / np.sqrt(s.entry("1", "1") * s.entry("3", "3"))
    assert triangle.omega.entry("1", "3") == pytest.approx(expected, rel=1e-12)


def test_partial_correlation_matrix_formula():
    g = Graph(["1", "2"], [("1", "2")])
    sigma = SymMatrix(["1", "2"], np.linalg.inv([[1.0, -0.4], [-0.4, 1.0]]))
    m = Model.from_sigma(g, sigma)
    assert m.partial_corr.entry("1", "2") == pytest.approx(0.4, rel=1e-12)
    assert m.partial_corr.entry("1", "1") == 0.0


def test_triangle_partial_correlations(triangle):
    for u, v in triangle.graph.edges:
        assert triangle.partial_corr.entry(u, v) == pytest.approx(0.3, rel=1e-12)


def test_inflated_matrix_two_variable_closed_form():
    g = Graph(["1", "2"], [("1", "2")])
    m = Model.from_partial_correlations(g, {("1", "2"): 0.5})
    assert m.inflated.entry("1", "1") == pytest.approx(4 / 3, rel=1e-12)
    assert m.inflated.entry("1", "2") == pytest.approx(0.5 / 0.75, rel=1e-12)


def test_inflated_matrix_triangle(triangle):
    # unit concentration diagonal: inflated correlation equals the covariance
    np.testing.assert_allclose(triangle.inflated.values, triangle.sigma.values, atol=1e-12)
    assert triangle.inflated.entry("1", "3") == pytest.approx(0.39 / 0.676, rel=1e-12)


def test_inflated_inverse_identity_invariant():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.8)))
        prod = m.inflated.values @ (np.eye(m.sigma.dim) - m.partial_corr.values)
        assert np.abs(prod - np.eye(m.sigma.dim)).max() < 1e-10


def test_inflated_determinant_identity_and_lower_bound():
    rng = np.random.default_rng(43)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.8)))
        det = m.inflated.det()
        residual_vars = 1.0 / m.kappa.diagonal()
        expected = m.sigma.det() / np.prod(residual_vars)
        assert det == pytest.approx(expected, rel=1e-9)
        assert det >= 1.0 - 1e-12
    # equality exactly at a diagonal covariance
    diag = Model.from_sigma(Graph(["a", "b"]), SymMatrix(["a", "b"], np.diag([2.0, 5.0])))
    assert diag.inflated.det() == pytest.approx(1.0, rel=1e-12)


def test_inflated_diagonal_is_variance_ratio():
    # diagonal entries are sigma_vv / sigma_vv.rest
    rng = np.random.default_rng(44)
    m = random_model(rng, 6, 0.5)
    for i, v in enumerate(m.vertices):
        ratio = m.sigma.entry(v, v) * m.kappa.entry(v, v)
        assert m.inflated.entry(v, v) == pytest.approx(ratio, rel=1e-12)


def test_magnitude_monotone_under_marginalization():
    # |inflated corr on V| >= |inflated corr of the marginal on A|
    rng = np.random.default_rng(45)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(3, 9)), float(rng.uniform(0.3, 0.8)))
        p = m.sigma.dim
        size = int(rng.integers(2, p + 1))
        a = sorted(str(v) for v in rng.choice(m.vertices, size=size, replace=False))
        sub = m.sigma.submatrix(a).values
        dk = np.sqrt(np.diagonal(np.linalg.inv(sub)))
        marginal = sub * np.outer(dk, dk)
        for i, u in enumerate(a):
            for j, v in enumerate(a):
                if i < j:
                    assert abs(m.inflated.entry(u, v)) >= abs(marginal[i, j]) - 1e-10


# -- conditional matrices -------------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda m: m.edge_partial_correlation("1", "3"),
    lambda m: m.conditional_inflated_correlation([]),
], ids=["pcor-of-a-non-edge", "empty-conditioning-set"])
def test_model_reads_reject_a_non_edge_and_an_empty_set(call):
    m = Model.from_partial_correlations(Graph(["1", "2", "3"], [("1", "2"), ("2", "3")]),
                                        {("1", "2"): 0.2, ("2", "3"): 0.1})
    with pytest.raises(ValueError, match="not an edge|nonempty"):
        call(m)


def test_conditional_inflated_full_and_singleton(triangle):
    full = triangle.conditional_inflated_correlation(triangle.vertices)
    np.testing.assert_allclose(full.values, triangle.inflated.values, atol=1e-10)
    single = triangle.conditional_inflated_correlation(["2"])
    np.testing.assert_allclose(single.values, [[1.0]])


def test_conditional_inflated_triangle_pair(triangle):
    out = triangle.conditional_inflated_correlation(["1", "2"])
    np.testing.assert_allclose(
        out.values, np.array([[1.0, 0.3], [0.3, 1.0]]) / 0.91, rtol=1e-12
    )


def test_conditional_inflated_equals_schur_of_inflated():
    rng = np.random.default_rng(46)
    m = random_model(rng, 7, 0.5)
    a = ["v01", "v03", "v04"]
    abar = m.graph.complement(a)
    via_schur = m.inflated.schur_complement(a, abar)
    direct = m.conditional_inflated_correlation(a)
    np.testing.assert_allclose(direct.values, via_schur.values, atol=1e-10)


def test_conditional_correlation_cases(triangle):
    full = triangle.conditional_correlation(triangle.vertices)
    np.testing.assert_allclose(full.values, triangle.omega.values, atol=1e-12)

    # independent blocks: conditioning changes nothing
    g = Graph(["a", "b", "c"], [("a", "b")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.4})
    out = m.conditional_correlation(["a", "b"])
    np.testing.assert_allclose(out.values, m.omega.submatrix(["a", "b"]).values, atol=1e-12)

    # triangle: off-diagonal is the partial correlation given the third vertex
    cond = triangle.conditional_correlation(["1", "3"])
    schur = oracle_schur(triangle.sigma.values, [0, 2], [1])
    expected = schur[0, 1] / np.sqrt(schur[0, 0] * schur[1, 1])
    assert cond.entry("1", "3") == pytest.approx(expected, rel=1e-12)
    assert cond.entry("1", "1") == pytest.approx(1.0)


def test_conditional_concentration_adapted_to_induced_subgraph():
    # the conditional model on A is a concentration graph model for G_A
    rng = np.random.default_rng(47)
    for _ in range(10):
        m = random_model(rng, 8, 0.4)
        a = sorted(str(v) for v in rng.choice(m.vertices, size=5, replace=False))
        cond_k = np.linalg.inv(m.partial_covariance(a).values)
        sub = m.graph.induced_subgraph(a)
        for i, u in enumerate(a):
            for j, v in enumerate(a):
                if i < j and not sub.has_edge(u, v):
                    scale = np.sqrt(cond_k[i, i] * cond_k[j, j])
                    assert abs(cond_k[i, j]) / scale < 1e-8


def test_custom_scaling_validation():
    with pytest.raises(ValueError):
        CustomScaling({"a": 0.0})
    with pytest.raises(ValueError):
        CustomScaling({"a": np.nan})
    CustomScaling({"a": -2.0})  # negative entries are allowed
