import math
import warnings

import numpy as np
import pytest

from pathweights import (
    Graph,
    Model,
    SymMatrix,
    enumerate_paths,
    global_collinearity,
    inflation_factor,
    inflation_factor_identities,
)
from pathweights import inflation, symmetric

from conftest import oracle_inflation_factor, random_model
from test_weights import rescaled_chain


@pytest.fixture()
def pair_half():
    g = Graph(["u", "v"], [("u", "v")])
    return Model.from_partial_correlations(g, {("u", "v"): 0.5})


def diagonal_model():
    g = Graph(["a", "b", "c"])
    return Model.from_sigma(g, SymMatrix(["a", "b", "c"], np.diag([1.0, 2.0, 3.0])))


def test_empty_block_gives_one(triangle):
    assert inflation_factor(triangle, []) == 1.0
    assert inflation_factor(triangle, [], ["1"]) == 1.0
    assert inflation_factor(triangle, ["1"], []) == 1.0


def test_two_variable_closed_form(pair_half):
    # for two variables with correlation 0.5: 1 / (1 - 0.25)
    assert inflation_factor(pair_half, ["u"], ["v"]) == pytest.approx(4 / 3, rel=1e-12)


def test_independent_blocks_give_one():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.6, ("c", "d"): -0.4})
    assert inflation_factor(m, ["a", "b"], ["c", "d"]) == pytest.approx(1.0, rel=1e-12)


def test_default_second_block_is_complement(triangle):
    expected = inflation_factor(triangle, ["1"], ["2", "3"])
    assert inflation_factor(triangle, ["1"]) == pytest.approx(expected, rel=1e-12)


def test_overlapping_blocks_rejected(triangle):
    with pytest.raises(ValueError):
        inflation_factor(triangle, ["1", "2"], ["2", "3"])


def test_at_least_one(triangle):
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.8)))
        labels = list(m.vertices)
        rng.shuffle(labels)
        cut = int(rng.integers(1, len(labels)))
        keep = int(rng.integers(cut + 1, len(labels) + 1))
        val = inflation_factor(m, labels[:cut], labels[cut:keep])
        assert val >= 1.0 - 1e-12


# -- identity record -------------------------------------------------------------


def test_identities_of_an_empty_block_are_one(triangle):
    # the concentration route is defined, as 1, only when B is the complement of A
    assert inflation_factor_identities(triangle, []).values() == (1.0, 1.0, 1.0, 1.0)
    for a, b in (([], ["1"]), (["1"], [])):
        ident = inflation_factor_identities(triangle, a, b)
        assert ident.values() == (1.0, 1.0, 1.0) and ident.concentration_ratio is None


def test_identities_diagonal_sigma():
    ident = inflation_factor_identities(diagonal_model(), ["a"], ["b"])
    assert ident.values() == (1.0, 1.0, 1.0)


def test_identities_triangle_with_concentration_form(triangle):
    ident = inflation_factor_identities(triangle, ["1"], ["2", "3"])
    vals = ident.values()
    assert len(vals) == 4  # complement case adds the concentration route
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-12)
    # kappa_11 * sigma_11 for the singleton case
    expected = triangle.kappa.entry("1", "1") * triangle.sigma.entry("1", "1")
    assert vals[0] == pytest.approx(expected, rel=1e-12)


def test_identities_agree_on_random_models():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = random_model(rng, int(rng.integers(3, 11)), float(rng.uniform(0.2, 0.8)))
        labels = list(m.vertices)
        rng.shuffle(labels)
        cut = int(rng.integers(1, len(labels)))
        keep = int(rng.integers(cut + 1, len(labels) + 1))
        a, b = labels[:cut], labels[cut:keep]
        ident = inflation_factor_identities(m, a, b)
        reference = oracle_inflation_factor(m, a, b)
        for v in ident.values():
            assert v == pytest.approx(reference, rel=1e-9)
        assert inflation_factor(m, a, b) == pytest.approx(reference, rel=1e-9)


def test_complement_closed_form_agrees_with_the_schur_route():
    # B = complement of A takes |Sigma_AA| |K_AA|; the identity record's
    # partial_ratio takes |Sigma_AA| / |Sigma_AA.B| through a Schur complement
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(40):
        m = random_model(rng, int(rng.integers(3, 11)), float(rng.uniform(0.2, 0.8)))
        blocks = [list(e) for e in m.graph.sorted_edges()]
        blocks += [list(p.sequence) for p in enumerate_paths(m.graph, *m.vertices[:2])][:5]
        labels = list(m.vertices)
        for _ in range(3):
            rng.shuffle(labels)
            blocks.append(labels[:int(rng.integers(1, len(labels)))])
        for a in blocks:
            b = m.graph.complement(a)
            if not b:
                continue
            closed = inflation_factor(m, a)
            assert closed == inflation_factor(m, a, b)
            assert closed == pytest.approx(inflation_factor_identities(m, a).partial_ratio, rel=1e-12)
            checked += 1
    assert checked > 300


def test_inflation_from_correlation_matrix_agrees():
    # IF computed from Omega equals IF computed from Sigma
    rng = np.random.default_rng(19)
    for _ in range(15):
        m = random_model(rng, 6, 0.5)
        cor_model = Model.from_sigma(m.graph, m.omega)
        a, b = ["v00", "v01"], ["v03", "v05"]
        assert inflation_factor(cor_model, a, b) == pytest.approx(
            inflation_factor(m, a, b), rel=1e-9
        )


def test_monotone_in_the_conditioning_block():
    # IF of v on everything >= IF of v on a subset
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = random_model(rng, int(rng.integers(3, 9)), float(rng.uniform(0.3, 0.8)))
        v = str(rng.choice(m.vertices))
        rest = [u for u in m.vertices if u != v]
        size = int(rng.integers(1, len(rest) + 1))
        sub = sorted(str(u) for u in rng.choice(rest, size=size, replace=False))
        # both sides on the marginal over {v} + sub vs the full vertex set
        marginal = m.sigma.submatrix([v] + sub)
        sub_model = Model.from_sigma(Graph(marginal.labels, _complete(marginal.labels)), marginal)
        assert inflation_factor(m, [v]) >= inflation_factor(sub_model, [v]) - 1e-10


def _complete(labels):
    return [(u, w) for i, u in enumerate(labels) for w in labels[i + 1:]]


# -- global collinearity ------------------------------------------------------------


def test_global_collinearity_diagonal_is_one():
    m = diagonal_model()
    assert global_collinearity(m, "variance") == pytest.approx(1.0, rel=1e-12)
    assert global_collinearity(m, "partial-variance") == pytest.approx(1.0, rel=1e-12)


def test_global_collinearity_single_block_partition(triangle):
    part = [triangle.vertices]
    assert global_collinearity(triangle, "variance", part) == pytest.approx(1.0, rel=1e-12)
    assert global_collinearity(triangle, "partial-variance", part) == pytest.approx(1.0, rel=1e-12)


def test_global_collinearity_two_variables(pair_half):
    assert global_collinearity(pair_half, "variance") == pytest.approx(4 / 3, rel=1e-12)
    assert global_collinearity(pair_half, "partial-variance") == pytest.approx(4 / 3, rel=1e-12)


def test_global_collinearity_closed_forms():
    rng = np.random.default_rng(29)
    for _ in range(15):
        m = random_model(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.8)))
        assert global_collinearity(m, "variance") == pytest.approx(
            1.0 / m.omega.det(), rel=1e-9
        )
        assert global_collinearity(m, "partial-variance") == pytest.approx(
            m.inflated.det(), rel=1e-9
        )


def test_global_collinearity_validates_partition(triangle):
    with pytest.raises(ValueError):
        global_collinearity(triangle, "variance", [["1", "2"], ["2", "3"]])
    with pytest.raises(ValueError):
        global_collinearity(triangle, "variance", [["1", "2"]])
    with pytest.raises(ValueError):
        global_collinearity(triangle, "bogus")


def test_identities_on_a_1200_vertex_chain():
    # |K| underflows to 0 and |Sigma| overflows to inf; every route falls back
    # to log-determinants instead of dividing by 0 or giving inf / inf
    m = rescaled_chain()
    a, b = m.vertices[:5], m.vertices[5:]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ident = inflation_factor_identities(m, a, b)
        closed = inflation_factor(m, a, b)
    assert len(ident.values()) == 4
    for v in ident.values():
        assert math.isfinite(v)
        assert v == pytest.approx(closed, rel=1e-9)


def test_global_collinearity_on_a_1200_vertex_chain():
    # |Sigma| leaves the float range: both kinds come from log-determinants
    # rather than inf / inf = nan or a product overflowing to inf
    m = rescaled_chain()
    logdet_sigma = np.linalg.slogdet(m.sigma.values)[1]
    oracle = {"variance": np.log(m.sigma.diagonal()).sum() - logdet_sigma,
              "partial-variance": logdet_sigma + np.log(m.kappa.diagonal()).sum()}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = {kind: global_collinearity(m, kind) for kind in oracle}
    for kind, value in values.items():
        assert math.isfinite(value)
        assert value == pytest.approx(math.exp(oracle[kind]), rel=1e-9)


def test_identities_take_each_determinant_once(monkeypatch):
    # five Sigma blocks (A, B, A u B, A.B, B.A) and three K blocks (A, B, all)
    calls = []
    det = symmetric._principal_det
    for module in (inflation, symmetric):
        monkeypatch.setattr(module, "_principal_det", lambda a, idx=None: calls.append(1) or det(a, idx))
    m = random_model(np.random.default_rng(307), 8, 0.5)
    inflation_factor_identities(m, m.vertices[:3])
    assert len(calls) == 8
