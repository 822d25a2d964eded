import numpy as np
import pytest

from pathweights import (
    Graph,
    Model,
    NotConvergedError,
    NotPositiveDefiniteError,
    SymMatrix,
    ips_fit,
    is_mtp2,
    mtp2_sign_search,
)

from conftest import (
    brute_force_sign_search,
    random_decomposable_graph,
    random_graph,
    random_model,
    tree_with_chords,
    vertex_names,
)


def random_sample_covariance(rng, p):
    a = rng.normal(size=(p, 2 * p))
    s = a @ a.T / (2 * p) + 0.2 * np.eye(p)
    return SymMatrix(vertex_names(p), (s + s.T) / 2)


def constrained_mismatch(model, sample):
    """Largest moment mismatch on diagonal + edges, plus worst off-edge kappa."""
    diff = 0.0
    for v in model.vertices:
        diff = max(diff, abs(model.sigma.entry(v, v) - sample.entry(v, v)))
    for u, v in model.graph.edges:
        diff = max(diff, abs(model.sigma.entry(u, v) - sample.entry(u, v)))
    k = model.kappa.values
    off = 0.0
    labels = model.vertices
    for i, u in enumerate(labels):
        for j in range(i + 1, len(labels)):
            if not model.graph.has_edge(u, labels[j]):
                off = max(off, abs(k[i, j]))
    return diff, off


# -- iterative proportional scaling -----------------------------------------------


def test_complete_graph_reproduces_the_sample():
    rng = np.random.default_rng(401)
    p = 5
    names = vertex_names(p)
    g = Graph(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1:]])
    s = random_sample_covariance(rng, p)
    fitted = ips_fit(s, g)
    assert np.abs(fitted.sigma.values - s.values).max() <= 1e-9


def test_edgeless_graph_keeps_the_diagonal():
    rng = np.random.default_rng(403)
    p = 4
    s = random_sample_covariance(rng, p)
    fitted = ips_fit(s, Graph(vertex_names(p)))
    np.testing.assert_allclose(fitted.sigma.values, np.diag(np.diagonal(s.values)), atol=1e-9)


def test_already_consistent_input_is_a_fixed_point(triangle):
    fitted = ips_fit(triangle.sigma, triangle.graph)
    assert np.abs(fitted.sigma.values - triangle.sigma.values).max() <= 1e-8


def test_fit_is_idempotent():
    rng = np.random.default_rng(405)
    g = random_graph(rng, 6, 0.4)
    s = random_sample_covariance(rng, 6)
    first = ips_fit(s, g)
    second = ips_fit(first.sigma, g)
    assert np.abs(second.sigma.values - first.sigma.values).max() <= 1e-9


def test_fixed_point_conditions_on_random_decomposable_graphs():
    rng = np.random.default_rng(407)
    for _ in range(10):
        p = int(rng.integers(3, 9))
        g = random_decomposable_graph(rng, p)
        s = random_sample_covariance(rng, p)
        fitted = ips_fit(s, g)
        moment, off_edge = constrained_mismatch(fitted, s)
        assert moment <= 1e-8
        assert off_edge <= 1e-12  # untouched by construction


def test_fit_rejects_non_pd_sample():
    g = Graph(["a", "b"], [("a", "b")])
    with pytest.raises(NotPositiveDefiniteError):
        ips_fit(SymMatrix(["a", "b"], [[1.0, 1.0], [1.0, 1.0]]), g)


def test_fit_reports_non_convergence():
    rng = np.random.default_rng(409)
    g = random_graph(rng, 6, 0.5)
    s = random_sample_covariance(rng, 6)
    with pytest.raises(NotConvergedError) as err:
        ips_fit(s, g, max_iter=1, tol=1e-14)
    assert err.value.iterations == 1
    assert err.value.residual > 0


def test_sample_in_another_label_order_fits_the_same_model():
    rng = np.random.default_rng(415)
    g = random_graph(rng, 6, 0.5)
    s = random_sample_covariance(rng, 6)
    order = [int(i) for i in rng.permutation(6)]
    shuffled = SymMatrix([s.labels[i] for i in order], s.values[np.ix_(order, order)])
    np.testing.assert_array_equal(ips_fit(shuffled, g).sigma.values, ips_fit(s, g).sigma.values)


# -- covariance-form IPS against the full-inverse IPS it replaced -------------------


def full_inverse_ips(sample, graph, tol=1e-9, max_iter=10000):
    """The former ips_fit, kept as the reference: cliques are every singleton
    and then every edge, and each clique step inverts the whole K."""
    labels = graph.vertices
    pos = {v: i for i, v in enumerate(labels)}
    s = sample.reindexed(labels).values
    p = len(labels)
    cliques = [[i] for i in range(p)] + [sorted((pos[u], pos[v])) for u, v in graph.sorted_edges()]
    constrained = np.eye(p, dtype=bool)
    for u, v in graph.edges:
        constrained[pos[u], pos[v]] = constrained[pos[v], pos[u]] = True
    k = np.diag(1.0 / np.diagonal(s))
    for _ in range(max_iter):
        for c in cliques:
            block = np.ix_(c, c)
            fitted = np.linalg.inv(k)
            k[block] += np.linalg.inv(s[block]) - np.linalg.inv(fitted[block])
        k = (k + k.T) / 2.0
        fitted = np.linalg.inv(k)
        if np.abs((fitted - s)[constrained]).max() < tol:
            return (fitted + fitted.T) / 2.0
    raise AssertionError("reference IPS did not converge")


def differential_graphs():
    rng = np.random.default_rng(421)
    names = vertex_names(7)
    cases = []
    for density in (0.2, 0.4, 0.6):
        for _ in range(4):
            cases.append(("random", random_graph(rng, int(rng.integers(3, 11)), density)))
    for _ in range(6):
        cases.append(("decomposable", random_decomposable_graph(rng, int(rng.integers(3, 10)))))
    cases.append(("complete", Graph(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1:]])))
    cases.append(("edgeless", Graph(names)))
    cases.append(("isolated vertices", Graph(names, [("v01", "v02"), ("v02", "v04"), ("v01", "v04"),
                                                     ("v04", "v05")])))
    cases.append(("disconnected", Graph(names, [("v00", "v01"), ("v01", "v02"), ("v03", "v04"),
                                                ("v04", "v05"), ("v05", "v06"), ("v03", "v06")])))
    cases.append(("tree plus chords", tree_with_chords(rng, 60, 6)))
    return [pytest.param(g, id=f"{kind}-{i}") for i, (kind, g) in enumerate(cases)]


@pytest.mark.parametrize("graph", differential_graphs())
def test_covariance_form_matches_the_full_inverse_ips(graph):
    rng = np.random.default_rng([423, len(graph.vertices), len(graph.edges)])
    s = random_sample_covariance(rng, len(graph.vertices))
    fitted = ips_fit(s, graph)
    assert np.abs(fitted.sigma.values - full_inverse_ips(s, graph)).max() <= 1e-9
    off_edge = ~np.eye(len(graph.vertices), dtype=bool)
    for u, v in graph.edges:
        i, j = fitted.graph._index[u], fitted.graph._index[v]
        off_edge[i, j] = off_edge[j, i] = False
    assert np.all(fitted.kappa.values[off_edge] == 0.0)


# -- sign search ---------------------------------------------------------------------


def test_all_positive_edges_give_identity_assignment(triangle):
    assignment = mtp2_sign_search(triangle)
    assert assignment is not None
    assert assignment.is_identity
    assert is_mtp2(triangle)


def test_women_network_flips_one_bread(women):
    assignment = mtp2_sign_search(women)
    assert assignment is not None
    assert set(assignment.flipped) in ({"whole_bread"}, {"refined_bread"},
                                       set(women.vertices) - {"whole_bread"},
                                       set(women.vertices) - {"refined_bread"})
    assert not is_mtp2(women)


def test_men_network_is_signable(men):
    assert mtp2_sign_search(men) is not None


def test_odd_negative_triangle_is_not_signable():
    g = Graph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
    m = Model.from_partial_correlations(
        g, {("1", "2"): 0.3, ("1", "3"): 0.3, ("2", "3"): -0.3}
    )
    assert mtp2_sign_search(m) is None


def test_even_negative_cycle_is_signable():
    g = Graph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
    m = Model.from_partial_correlations(
        g, {("1", "2"): -0.3, ("1", "3"): 0.3, ("2", "3"): -0.3}
    )
    assignment = mtp2_sign_search(m)
    assert assignment is not None
    for (u, v) in g.edges:
        flipped = assignment.delta[u] * assignment.delta[v] * m.partial_corr.entry(u, v)
        assert flipped >= -1e-10


def test_a_zero_edge_imposes_no_sign_constraint():
    # taken as negative, the 0 edge would close an odd negative triangle
    g = Graph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
    m = Model.from_partial_correlations(g, {("1", "2"): 0.3, ("1", "3"): 0.3, ("2", "3"): 0.0})
    assignment = mtp2_sign_search(m)
    assert assignment is not None and assignment.is_identity
    m = Model.from_partial_correlations(g, {("1", "2"): 0.3, ("1", "3"): 0.3, ("2", "3"): -1e-3})
    assert mtp2_sign_search(m, tol=1e-2) is not None
    assert mtp2_sign_search(m, tol=1e-4) is None


def test_sign_search_agrees_with_brute_force():
    rng = np.random.default_rng(411)
    for _ in range(30):
        m = random_model(rng, int(rng.integers(2, 9)), float(rng.uniform(0.2, 0.9)))
        fast = mtp2_sign_search(m)
        slow = brute_force_sign_search(m)
        assert (fast is None) == (slow is None)
        if fast is not None:
            for (u, v) in m.graph.edges:
                prod = fast.delta[u] * fast.delta[v] * m.partial_corr.entry(u, v)
                assert prod >= -1e-10


def test_signable_model_has_same_signed_path_weights():
    # a valid assignment forces every pair's weights onto one sign
    from pathweights import decompose

    rng = np.random.default_rng(413)
    found = 0
    while found < 8:
        m = random_model(rng, int(rng.integers(3, 8)), float(rng.uniform(0.3, 0.7)))
        if mtp2_sign_search(m) is None:
            continue
        found += 1
        for x in m.vertices:
            for y in m.vertices:
                if x < y:
                    assert decompose(m, x, y).same_signed
