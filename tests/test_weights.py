import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path as FilePath

import numpy as np
import pytest

from pathweights import (
    CustomScaling,
    Graph,
    InvalidPathError,
    Measure,
    Model,
    Path,
    SymMatrix,
    decompose,
    edge_measures,
    enumerate_paths,
    factorize,
    global_collinearity,
    inflated_weight_explicit,
    inflation_factor,
    is_chordless,
    normalized_weight,
    partial_inflated_weight_explicit,
    partial_weight,
    weight,
    weight_bounds,
)
from pathweights.weights import DEFAULT_ZERO_TOL

from conftest import (
    oracle_schur,
    oracle_weight_complement_form,
    random_model,
    random_tree_model,
    vertex_names,
)

KINDS = (Measure.COVARIANCE, Measure.CORRELATION, Measure.INFLATED_CORRELATION)


def random_path(rng, m):
    """A random enumerated path of the model's graph, or None."""
    for _ in range(10):
        x, y = (str(v) for v in rng.choice(m.vertices, size=2, replace=False))
        paths = enumerate_paths(m.graph, x, y)
        if paths:
            return paths[int(rng.integers(0, len(paths)))]
    return None


# -- covariance weights ------------------------------------------------------------


def test_single_edge_weight_is_the_covariance():
    g = Graph(["x", "y"], [("x", "y")])
    m = Model.from_partial_correlations(g, {("x", "y"): 0.31})
    assert weight(m, Path(("x", "y"))) == pytest.approx(m.sigma.entry("x", "y"), rel=1e-12)


def test_triangle_weights_and_their_sum(triangle):
    direct = weight(triangle, Path(("1", "3")))
    detour = weight(triangle, Path(("1", "2", "3")))
    assert direct == pytest.approx(0.3 / 0.676, rel=1e-12)
    assert detour == pytest.approx(0.09 / 0.676, rel=1e-12)
    assert direct + detour == pytest.approx(triangle.sigma.entry("1", "3"), rel=1e-12)


def test_weight_is_endpoint_symmetric(triangle):
    p = Path(("1", "2", "3"))
    assert weight(triangle, p) == pytest.approx(weight(triangle, p.reversed()), rel=1e-14)


def test_weight_matches_complement_determinant_form():
    rng = np.random.default_rng(101)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(3, 10)), float(rng.uniform(0.2, 0.7)))
        p = random_path(rng, m)
        if p is None:
            continue
        assert weight(m, p) == pytest.approx(
            oracle_weight_complement_form(m, p.sequence), rel=1e-9
        )


def test_weight_rejects_non_paths(triangle):
    with pytest.raises(InvalidPathError, match=r"^path visits unknown vertices: \['zzz'\]$"):
        weight(triangle, Path(("1", "zzz")))
    g = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    m = Model.from_partial_correlations(g, {("1", "2"): 0.2, ("2", "3"): 0.2})
    with pytest.raises(InvalidPathError, match="^'1'--'3' is not an edge of the graph$"):
        weight(m, Path(("1", "3")))


def test_single_path_values_are_python_floats():
    m = random_model(np.random.default_rng(109), 7, 0.6)
    p = max(enumerate_paths(m.graph, m.vertices[0], m.vertices[-1]), key=len)
    b = factorize(m, p, kind=Measure.CORRELATION)
    values = [weight(m, p), partial_weight(m, p), normalized_weight(m, p),
              inflated_weight_explicit(m, p), partial_inflated_weight_explicit(m, p),
              *weight_bounds(m, p), b.weight, b.partial_weight, b.inflation,
              b.endpoint_inflation, b.phi, m.sigma.entry(p.x, p.y)]
    assert [type(v) for v in values] == [float] * len(values)


# -- measure scaling (congruence equivariance) -----------------------------------------


def test_scaled_weights_equal_direct_evaluation():
    # weight on D*Sigma*D computed from scratch == d_x d_y * covariance weight
    rng = np.random.default_rng(103)
    for _ in range(25):
        m = random_model(rng, int(rng.integers(3, 9)), float(rng.uniform(0.3, 0.8)))
        p = random_path(rng, m)
        if p is None:
            continue
        d = rng.uniform(0.2, 3.0, size=len(m.vertices)) * rng.choice([-1.0, 1.0], size=len(m.vertices))
        delta = dict(zip(m.vertices, d))
        scaled = SymMatrix(m.vertices, m.sigma.values * np.outer(d, d))
        direct = Model.from_sigma(m.graph, scaled)
        lhs = weight(direct, p)
        rhs = weight(m, p, CustomScaling(delta))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_correlation_weight_is_weight_of_correlation_matrix():
    rng = np.random.default_rng(104)
    m = random_model(rng, 7, 0.5)
    p = random_path(rng, m)
    direct = Model.from_sigma(m.graph, m.omega)
    assert weight(m, p, Measure.CORRELATION) == pytest.approx(weight(direct, p), rel=1e-9)


def test_inflated_weight_is_weight_of_inflated_matrix():
    rng = np.random.default_rng(105)
    m = random_model(rng, 7, 0.5)
    p = random_path(rng, m)
    direct = Model.from_sigma(m.graph, m.inflated)
    assert weight(m, p, Measure.INFLATED_CORRELATION) == pytest.approx(weight(direct, p), rel=1e-9)


@pytest.mark.parametrize("kind", ["cov", None, 1.0])
def test_an_unsupported_kind_is_a_type_error(triangle, kind):
    with pytest.raises(TypeError, match="unsupported measure kind"):
        weight(triangle, Path(("1", "2", "3")), kind=kind)


def test_custom_scaling_requires_full_coverage(triangle):
    p, partial = Path(("1", "2")), CustomScaling({"1": 1.0, "2": 1.0})
    for call in (
        lambda: weight(triangle, p, partial),
        lambda: partial_weight(triangle, p, kind=partial),
        lambda: weight_bounds(triangle, p, partial),
        lambda: factorize(triangle, p, kind=partial),
        lambda: decompose(triangle, "1", "2", partial),
    ):
        with pytest.raises(ValueError, match="missing entries"):
            call()


# -- partial weights --------------------------------------------------------------------


def test_partial_weight_on_everything_is_the_weight(triangle):
    p = Path(("1", "2", "3"))
    assert partial_weight(triangle, p, triangle.vertices) == pytest.approx(
        weight(triangle, p), rel=1e-12
    )


def test_partial_weight_chordless_is_schur_entry():
    # a chordless path adjusted for everything off the path carries the whole
    # partial covariance of its endpoints
    rng = np.random.default_rng(107)
    hits = 0
    while hits < 10:
        m = random_model(rng, int(rng.integers(4, 9)), float(rng.uniform(0.3, 0.7)))
        p = random_path(rng, m)
        if p is None or not is_chordless(m.graph, p):
            continue
        hits += 1
        pset = m.graph.require_vertices(p.vertex_set)
        pbar = m.graph.complement(pset)
        pos = {v: i for i, v in enumerate(m.vertices)}
        schur = oracle_schur(m.sigma.values, [pos[v] for v in pset], [pos[v] for v in pbar])
        i, j = pset.index(p.x), pset.index(p.y)
        assert partial_weight(m, p) == pytest.approx(schur[i, j], rel=1e-9)


def test_partial_weight_triangle_pair(triangle):
    p = Path(("1", "3"))
    schur = oracle_schur(triangle.sigma.values, [0, 2], [1])
    assert partial_weight(triangle, p, ["1", "3"]) == pytest.approx(schur[0, 1], rel=1e-12)


def rescaled_chain(p=1200):
    """Chain with every edge partial correlation 0.45 and rescaled variances:
    on a long path |Sigma_PP| overflows and the edge product underflows."""
    names = vertex_names(p)
    g = Graph(names, list(zip(names, names[1:])))
    pcor = Model.from_partial_correlations(g, {e: 0.45 for e in g.edges})
    d = np.random.default_rng(1201).uniform(0.5, 2.0, size=p)
    return Model.from_sigma(g, SymMatrix(names, pcor.sigma.values * np.outer(d, d)))


def test_partial_weight_on_a_1200_vertex_chain():
    # both the weight and the partial weight go to log space rather than
    # inf * 0 = nan, and the overflowing determinant raises no warning
    m = rescaled_chain()
    p = Path(m.vertices)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert partial_weight(m, p, m.vertices) == pytest.approx(weight(m, p), rel=1e-12)
        fb = factorize(m, p)
    assert all(math.isfinite(v) for v in (fb.weight, fb.partial_weight, fb.inflation,
                                           fb.endpoint_inflation, fb.phi))
    assert fb.weight != 0.0 and fb.partial_weight != 0.0


def test_inflation_on_a_1199_vertex_path_of_the_chain():
    # |Sigma_PP| overflows and |K_PP| and |Sigma_PP.Abar| underflow; the
    # factor comes from log-determinants rather than inf / inf = nan
    m = rescaled_chain()
    p = Path(m.vertices[:1199])
    closed = inflation_factor(m, p.vertex_set)
    schur = factorize(m, p).inflation
    assert math.isfinite(closed) and math.isfinite(schur)
    assert closed == pytest.approx(schur, rel=1e-9)
    assert closed > 1.0


def test_log_space_fallback_reuses_the_cholesky_factor(monkeypatch):
    # the 1,200 x 1,200 blocks leave the float range, so every call below falls
    # back to log-determinants; they come from the factor that gave the value
    m = rescaled_chain()
    p = Path(m.vertices)
    factored = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.shape[-1]) or cholesky(a))

    def big_factorizations(call):
        factored.clear()
        value = call()
        assert math.isfinite(value) and value != 0.0
        return factored.count(1200)

    assert big_factorizations(lambda: weight(m, p)) == 1
    assert big_factorizations(lambda: global_collinearity(m)) == 1
    assert big_factorizations(lambda: global_collinearity(m, "partial-variance")) == 1
    # one batched factor in the kernel, then one for the weight taken alone
    assert big_factorizations(lambda: decompose(m, p.x, p.y).entries[0].weight) <= 2


def test_partial_weight_needs_path_inside_restriction(triangle):
    with pytest.raises(ValueError):
        partial_weight(triangle, Path(("1", "2", "3")), ["1", "3"])


# -- factorization -----------------------------------------------------------------------


def test_disconnected_path_block_has_unit_inflation():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.5, ("c", "d"): 0.3})
    fb = factorize(m, Path(("a", "b")))
    assert fb.inflation == pytest.approx(1.0, rel=1e-12)
    assert fb.weight == pytest.approx(fb.partial_weight, rel=1e-12)


@pytest.mark.parametrize("kind", [*KINDS, "custom"])
def test_factorization_identity_random_models(kind):
    rng = np.random.default_rng(109)
    checked = 0
    while checked < 25:
        m = random_model(rng, int(rng.integers(3, 9)), float(rng.uniform(0.3, 0.8)))
        p = random_path(rng, m)
        if p is None:
            continue
        checked += 1
        # random conditioning set between V(path) and V
        extra = [v for v in m.vertices if v not in p.vertex_set and rng.random() < 0.5]
        a = m.graph.require_vertices(set(extra) | p.vertex_set)
        k = kind
        if kind == "custom":
            k = CustomScaling(dict(zip(m.vertices, rng.uniform(-2.0, 2.0, size=len(m.vertices)))))
        fb = factorize(m, p, a, k)
        assert fb.weight == pytest.approx(fb.reconstructed_weight(), rel=1e-9)
        # only the correlation rescales by endpoint variances that conditioning changes
        if kind is not Measure.CORRELATION:
            assert fb.endpoint_inflation == 1.0
        assert fb.inflation >= 1.0 - 1e-12
        # sign equality and magnitude dominance
        if abs(fb.weight) > DEFAULT_ZERO_TOL and abs(fb.partial_weight) > DEFAULT_ZERO_TOL:
            assert math.copysign(1, fb.weight) == math.copysign(1, fb.partial_weight)
        if kind is not Measure.CORRELATION:
            assert abs(fb.weight) >= abs(fb.partial_weight) * (1 - 1e-12)


def test_nested_monotonicity_of_partial_weights():
    # |w(P|rest)| <= |w(A|rest)| <= |w(V)| along nested conditioning sets
    rng = np.random.default_rng(111)
    checked = 0
    while checked < 20:
        m = random_model(rng, int(rng.integers(4, 10)), float(rng.uniform(0.3, 0.7)))
        p = random_path(rng, m)
        if p is None:
            continue
        checked += 1
        outside = [v for v in m.vertices if v not in p.vertex_set]
        mid = m.graph.require_vertices(
            set(p.vertex_set) | {v for v in outside if rng.random() < 0.5}
        )
        w_min = abs(partial_weight(m, p))
        w_mid = abs(partial_weight(m, p, mid))
        w_full = abs(weight(m, p))
        assert w_min <= w_mid * (1 + 1e-10)
        assert w_mid <= w_full * (1 + 1e-10)


def test_unique_path_factorizations_on_trees():
    rng = np.random.default_rng(113)
    for _ in range(15):
        m = random_tree_model(rng, int(rng.integers(3, 10)))
        x, y = (str(v) for v in rng.choice(m.vertices, size=2, replace=False))
        paths = enumerate_paths(m.graph, x, y)
        assert len(paths) == 1
        p = paths[0]
        pos = {v: i for i, v in enumerate(m.vertices)}
        pbar = m.graph.complement(p.vertex_set)
        schur = oracle_schur(
            m.sigma.values,
            [pos[v] for v in m.graph.require_vertices(p.vertex_set)],
            [pos[v] for v in pbar],
        )
        pset = m.graph.require_vertices(p.vertex_set)
        i, j = pset.index(p.x), pset.index(p.y)

        # sigma_xy = sigma_xy.rest * IF
        fb = factorize(m, p)
        assert fb.weight == pytest.approx(m.sigma.entry(x, y), rel=1e-9)
        assert fb.partial_weight == pytest.approx(schur[i, j], rel=1e-9)
        assert fb.weight == pytest.approx(schur[i, j] * fb.inflation, rel=1e-9)

        # rho_xy = rho_xy.rest * IF / sqrt(IF_x IF_y)
        fc = factorize(m, p, kind=Measure.CORRELATION)
        rho_cond = schur[i, j] / math.sqrt(schur[i, i] * schur[j, j])
        assert fc.weight == pytest.approx(m.omega.entry(x, y), rel=1e-9)
        assert fc.partial_weight == pytest.approx(rho_cond, rel=1e-9)
        assert fc.weight == pytest.approx(
            rho_cond * fc.inflation / fc.endpoint_inflation, rel=1e-9
        )

        # inflated correlation: same clean form as the covariance
        fi = factorize(m, p, kind=Measure.INFLATED_CORRELATION)
        assert fi.weight == pytest.approx(m.inflated.entry(x, y), rel=1e-9)
        assert fi.weight == pytest.approx(fi.partial_weight * fi.inflation, rel=1e-9)


def test_chordless_specializations():
    # correlation and inflated-correlation weights of a chordless path reduce
    # to the conditional correlation entries times inflation terms
    rng = np.random.default_rng(115)
    hits = 0
    while hits < 12:
        m = random_model(rng, int(rng.integers(4, 9)), float(rng.uniform(0.3, 0.7)))
        p = random_path(rng, m)
        if p is None or not is_chordless(m.graph, p):
            continue
        hits += 1
        pset = m.graph.require_vertices(p.vertex_set)
        cond_cor = m.conditional_correlation(pset)
        fc = factorize(m, p, kind=Measure.CORRELATION)
        assert fc.partial_weight == pytest.approx(cond_cor.entry(p.x, p.y), rel=1e-9)

        cond_inf = m.conditional_inflated_correlation(pset)
        fi = factorize(m, p, kind=Measure.INFLATED_CORRELATION)
        assert fi.partial_weight == pytest.approx(cond_inf.entry(p.x, p.y), rel=1e-9)
        assert fi.weight == pytest.approx(
            cond_inf.entry(p.x, p.y) * fi.inflation, rel=1e-9
        )


def test_tree_correlation_factorizes_over_edges():
    rng = np.random.default_rng(117)
    for _ in range(10):
        m = random_tree_model(rng, int(rng.integers(3, 10)))
        x, y = (str(v) for v in rng.choice(m.vertices, size=2, replace=False))
        (p,) = enumerate_paths(m.graph, x, y)
        prod = 1.0
        for u, v in zip(p.sequence, p.sequence[1:]):
            prod *= m.omega.entry(u, v)
        assert m.omega.entry(x, y) == pytest.approx(prod, rel=1e-9)
        # and the conditional correlation factorizes the same way
        cond = m.conditional_correlation(m.graph.require_vertices(p.vertex_set))
        prod_cond = 1.0
        for u, v in zip(p.sequence, p.sequence[1:]):
            prod_cond *= cond.entry(u, v)
        assert cond.entry(x, y) == pytest.approx(prod_cond, rel=1e-9)


# -- explicit inflated-correlation forms ---------------------------------------------------


def test_inflated_explicit_single_edge():
    g = Graph(["x", "y"], [("x", "y")])
    m = Model.from_partial_correlations(g, {("x", "y"): 0.31})
    assert inflated_weight_explicit(m, Path(("x", "y"))) == pytest.approx(
        0.31 / (1 - 0.31**2), rel=1e-12
    )


def test_inflated_explicit_vanishes_on_zero_edge():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.0, ("b", "c"): 0.4})
    assert inflated_weight_explicit(m, Path(("a", "b", "c"))) == 0.0


def test_inflated_explicit_triangle(triangle):
    expected = triangle.inflated.det() * 0.09
    assert inflated_weight_explicit(triangle, Path(("1", "2", "3"))) == pytest.approx(
        expected, rel=1e-12
    )


def test_inflated_two_route_agreement():
    rng = np.random.default_rng(119)
    for _ in range(25):
        m = random_model(rng, int(rng.integers(3, 10)), float(rng.uniform(0.3, 0.8)))
        p = random_path(rng, m)
        if p is None:
            continue
        assert inflated_weight_explicit(m, p) == pytest.approx(
            weight(m, p, Measure.INFLATED_CORRELATION), rel=1e-9
        )


def test_partial_inflated_explicit_matches_partial_weight():
    rng = np.random.default_rng(121)
    for _ in range(25):
        m = random_model(rng, int(rng.integers(3, 10)), float(rng.uniform(0.3, 0.8)))
        p = random_path(rng, m)
        if p is None:
            continue
        assert partial_inflated_weight_explicit(m, p) == pytest.approx(
            partial_weight(m, p, kind=Measure.INFLATED_CORRELATION), rel=1e-9
        )


@pytest.mark.parametrize("n", [1200, 1199])
def test_explicit_forms_on_a_long_chain_match_the_kernel(n):
    # |varrho_PP| overflows while the edge product underflows: the explicit
    # forms go to log space as the kernel does, rather than giving 0
    m = rescaled_chain()
    p = Path(m.vertices[:n])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        explicit = inflated_weight_explicit(m, p)
        partial_explicit = partial_inflated_weight_explicit(m, p)
        kernel = weight(m, p, Measure.INFLATED_CORRELATION)
        partial_kernel = partial_weight(m, p, kind=Measure.INFLATED_CORRELATION)
    assert kernel != 0.0 and partial_kernel != 0.0
    # abs=0: at about 1e-243, the default absolute tolerance would pass a 0
    assert explicit == pytest.approx(kernel, rel=1e-9, abs=0.0)
    assert partial_explicit == pytest.approx(partial_kernel, rel=1e-9, abs=0.0)



# -- normalized weight and bounds ------------------------------------------------------------


def test_normalized_weight_triangle_has_empty_complement(triangle):
    # complement of the full path is empty: determinant convention gives 1
    assert normalized_weight(triangle, Path(("1", "2", "3"))) == pytest.approx(0.09, rel=1e-12)


def test_normalized_weight_zero_edge():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.0, ("b", "c"): 0.4})
    assert normalized_weight(m, Path(("a", "b", "c"))) == 0.0


def test_normalized_weight_edgeless_complement_is_edge_product():
    # off-path vertices mutually non-adjacent: determinant term is 1
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    m = Model.from_partial_correlations(
        g, {("a", "b"): 0.5, ("b", "c"): 0.4, ("c", "d"): 0.3}
    )
    # path a-b-c leaves only vertex d outside: (I - R)_{dd} = 1
    assert normalized_weight(m, Path(("a", "b", "c"))) == pytest.approx(0.2, rel=1e-12)


def test_normalized_weight_in_unit_interval_and_ratio():
    rng = np.random.default_rng(123)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 10)), float(rng.uniform(0.3, 0.9)))
        p = random_path(rng, m)
        if p is None:
            continue
        phi = normalized_weight(m, p)
        assert -1.0 <= phi <= 1.0
        assert phi * m.inflated.det() == pytest.approx(
            weight(m, p, Measure.INFLATED_CORRELATION), rel=1e-9, abs=1e-12
        )


def test_bounds_inflated_kind_is_global_determinant(triangle):
    lo, hi = weight_bounds(triangle, Path(("1", "3")), Measure.INFLATED_CORRELATION)
    assert hi == triangle.inflated.det()
    assert lo == -hi
    m = random_model(np.random.default_rng(124), 7, 0.6)
    for x, y in itertools.combinations(m.vertices, 2):
        for p in enumerate_paths(m.graph, x, y):
            bounds = weight_bounds(m, p, Measure.INFLATED_CORRELATION)
            assert bounds == (-m._inflated_det, m._inflated_det)


def test_bounds_dominate_weights():
    rng = np.random.default_rng(125)
    for _ in range(25):
        m = random_model(rng, int(rng.integers(2, 9)), float(rng.uniform(0.3, 0.8)))
        p = random_path(rng, m)
        if p is None:
            continue
        for kind in KINDS:
            lo, hi = weight_bounds(m, p, kind)
            w = weight(m, p, kind)
            assert lo <= w <= hi or w == pytest.approx(hi, rel=1e-12)


def test_bounds_diagonal_model():
    g = Graph(["a", "b"], [("a", "b")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.0})
    lo, hi = weight_bounds(m, Path(("a", "b")), Measure.COVARIANCE)
    assert hi == pytest.approx(1.0, rel=1e-12)  # |Varrho| = 1, unit residual variances


# -- single-edge measures -----------------------------------------------------------------------


def test_edge_measures_two_variable_model():
    g = Graph(["x", "y"], [("x", "y")])
    m = Model.from_partial_correlations(g, {("x", "y"): 0.31})
    em = edge_measures(m, ("x", "y"))
    assert em.inflation == pytest.approx(1.0, rel=1e-12)  # empty complement
    assert em.pc == pytest.approx(0.31)
    assert em.npc == pytest.approx(0.31, rel=1e-12)
    assert em.nipc == pytest.approx(0.31 / (1 - 0.31**2), rel=1e-12)


def test_edge_measures_match_single_edge_path_weight(women):
    for edge in women.graph.sorted_edges():
        em = edge_measures(women, edge)
        assert em.nipc == pytest.approx(
            weight(women, Path(edge), Measure.INFLATED_CORRELATION), rel=1e-9
        )


def test_edge_measures_women_spot_values(women):
    em = edge_measures(women, ("processed_meat", "red_meat"))
    assert em.pc == 0.31
    assert em.nipc == pytest.approx(0.46, abs=0.02)
    em = edge_measures(women, ("whole_bread", "refined_bread"))
    assert em.pc == -0.37
    assert em.nipc == pytest.approx(-0.45, abs=0.02)


def test_edge_measures_rejects_non_edges(women):
    with pytest.raises(ValueError):
        edge_measures(women, ("soup", "red_meat"))


# -- determinism -----------------------------------------------------------------------------

_SINGLE_PATH_SCRIPT = """
from pathweights import (Measure, enumerate_paths, inflated_weight_explicit, normalized_weight,
                         partial_inflated_weight_explicit, partial_weight, weight)
from pathweights.datasets import women_network
m = women_network()
out = []
for i, x in enumerate(m.vertices):
    for y in m.vertices[i + 1:]:
        for p in enumerate_paths(m.graph, x, y, max_len=4):
            out += [weight(m, p, k) for k in Measure] + [partial_weight(m, p, kind=k) for k in Measure]
            out += [f(m, p) for f in (inflated_weight_explicit, partial_inflated_weight_explicit,
                                      normalized_weight)]
print(repr(out))
"""


def test_single_path_values_do_not_depend_on_the_hash_seed():
    root = FilePath(__file__).resolve().parent.parent
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", _SINGLE_PATH_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0]) > 1000
    assert outputs[0] == outputs[1]
