import copy
import dataclasses
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pathweights import (
    CustomScaling,
    DecompositionReport,
    Graph,
    Measure,
    Model,
    Path,
    UndefinedShareError,
    decompose,
    partial_weight,
    rank_paths,
    subset_share,
    weight,
)
from pathweights.graphs import PathRows

from conftest import random_model, vertex_names

DECOMP_TOL = 1e-8  # as in test_acceptance

KINDS = (Measure.COVARIANCE, Measure.CORRELATION, Measure.INFLATED_CORRELATION)


def test_triangle_report(triangle):
    report = decompose(triangle, "1", "3")
    assert [e.path.sequence for e in report.entries] == [("1", "2", "3"), ("1", "3")]
    weights = {e.path.sequence: e.weight for e in report.entries}
    assert weights[("1", "3")] == pytest.approx(0.3 / 0.676, rel=1e-12)
    assert weights[("1", "2", "3")] == pytest.approx(0.09 / 0.676, rel=1e-12)
    assert report.target == pytest.approx(0.39 / 0.676, rel=1e-12)
    assert abs(report.residual) < 1e-12
    assert report.same_signed
    shares = [e.share for e in report.entries]
    assert sum(shares) == pytest.approx(1.0)


def test_disconnected_pair_has_empty_report():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.5, ("c", "d"): 0.3})
    report = decompose(m, "a", "c")
    assert report.entries == ()
    assert report.target == pytest.approx(0.0, abs=1e-12)
    assert abs(report.residual) < 1e-12


def test_report_is_symmetric_in_the_endpoints(triangle):
    fwd = decompose(triangle, "1", "3")
    bwd = decompose(triangle, "3", "1")
    assert [e.path.sequence for e in fwd.entries] == [e.path.sequence for e in bwd.entries]
    assert fwd.target == bwd.target


def test_women_soup_cooked_vegetables(women):
    report = decompose(women, "soup", "cooked_vegetables", kind=Measure.INFLATED_CORRELATION)
    assert len(report.entries) == 9
    assert report.same_signed
    direct = ("cooked_vegetables", "legumes", "soup")
    share = subset_share(report, lambda p: p.sequence == direct)
    assert share == pytest.approx(0.814, abs=0.01)


@pytest.mark.parametrize("kind", KINDS)
def test_decomposition_identity_small_corpus(kind):
    rng = np.random.default_rng(201)
    for _ in range(10):
        m = random_model(rng, int(rng.integers(3, 8)), float(rng.uniform(0.3, 0.7)))
        for x in m.vertices:
            for y in m.vertices:
                if x < y:
                    report = decompose(m, x, y, kind=kind)
                    tol = 1e-8 * max(1.0, abs(report.target))
                    assert abs(report.residual) <= tol


def test_partial_decomposition_identity():
    rng = np.random.default_rng(203)
    for _ in range(15):
        m = random_model(rng, int(rng.integers(4, 9)), float(rng.uniform(0.3, 0.7)))
        x, y = (str(v) for v in rng.choice(m.vertices, size=2, replace=False))
        rest = [v for v in m.vertices if v not in (x, y)]
        a = {x, y} | {v for v in rest if rng.random() < 0.6}
        for kind in KINDS:
            report = decompose(m, x, y, kind=kind, restrict=a)
            tol = 1e-8 * max(1.0, abs(report.target))
            assert abs(report.residual) <= tol


def test_restriction_matches_conditional_model():
    # decompose(restrict=A) agrees with a plain decompose on the model built
    # from the conditional covariance of A
    rng = np.random.default_rng(205)
    for _ in range(10):
        m = random_model(rng, 7, 0.5)
        a = sorted(str(v) for v in rng.choice(m.vertices, size=5, replace=False))
        x, y = a[0], a[1]
        cond_sigma = m.partial_covariance(a)
        cond_model = Model.from_sigma(m.graph.induced_subgraph(a), cond_sigma)
        restricted = decompose(m, x, y, restrict=a)
        plain = decompose(cond_model, x, y)
        assert [e.path.sequence for e in restricted.entries] == [
            e.path.sequence for e in plain.entries
        ]
        for e_r, e_p in zip(restricted.entries, plain.entries):
            assert e_r.weight == pytest.approx(e_p.weight, rel=1e-9, abs=1e-12)
        assert restricted.target == pytest.approx(plain.target, rel=1e-9, abs=1e-12)


def test_custom_measure_target():
    rng = np.random.default_rng(207)
    m = random_model(rng, 5, 0.6)
    delta = dict(zip(m.vertices, rng.uniform(0.5, 2.0, size=5)))
    report = decompose(m, "v00", "v03", kind=CustomScaling(delta))
    expected = delta["v00"] * delta["v03"] * m.sigma.entry("v00", "v03")
    assert report.target == pytest.approx(expected, rel=1e-12)
    assert abs(report.residual) <= 1e-8 * max(1.0, abs(report.target))


def test_decompose_validates_endpoints(triangle):
    with pytest.raises(ValueError):
        decompose(triangle, "1", "1")
    with pytest.raises(ValueError):
        decompose(triangle, "1", "3", restrict=["1", "2"])


# -- lazy entries -------------------------------------------------------------------


def test_entries_are_built_only_when_read(monkeypatch):
    calls = []
    paths = PathRows.paths
    monkeypatch.setattr(PathRows, "paths", lambda rows, graph: calls.append(1) or paths(rows, graph))
    m = random_model(np.random.default_rng(209), 9, 0.6)
    reports = [decompose(m, x, y, kind=kind) for kind in KINDS
               for x in m.vertices for y in m.vertices if x < y]
    for r in reports:
        assert abs(r.residual) <= DECOMP_TOL * max(1.0, abs(r.target))
        assert isinstance(r.same_signed, bool)
    assert calls == []
    first = reports[0].entries
    assert reports[0].entries is first
    assert calls == [1]


def test_threads_reading_new_entries_get_one_tuple(monkeypatch):
    # both threads are inside the build at once; each must get the same tuple
    barrier = threading.Barrier(2, timeout=10)
    paths = PathRows.paths

    def meet_then_build(rows, graph):
        barrier.wait()
        return paths(rows, graph)

    monkeypatch.setattr(PathRows, "paths", meet_then_build)
    report = decompose(random_model(np.random.default_rng(213), 8, 0.6), "v00", "v07")
    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(lambda _: report.entries, range(2)))
    assert got[0] is got[1] is report.entries
    assert len(got[0]) > 1


def test_lazy_report_equals_one_built_from_its_entries():
    rng = np.random.default_rng(211)
    m = random_model(rng, 9, 0.6)
    names = m.vertices
    restrict = [v for v in names if v != names[4]]
    for kind in (*KINDS, CustomScaling(dict(zip(names, rng.uniform(0.5, 2.0, size=9))))):
        for rest in (None, restrict):
            lazy = decompose(m, names[0], names[-1], kind=kind, restrict=rest)
            eager = DecompositionReport(**{f.name: getattr(lazy, f.name)
                                           for f in dataclasses.fields(lazy)})
            assert len(eager.entries) > 10
            assert eager.total_weight == lazy.total_weight
            assert eager.to_dict() == lazy.to_dict()
            assert eager == lazy and repr(eager) == repr(lazy)
            # an equal measure built anew hashes equal too (a CustomScaling holds a dict)
            twin = dataclasses.replace(eager, measure=copy.deepcopy(kind))
            assert twin == lazy and hash(twin) == hash(eager) == hash(lazy)


@pytest.mark.parametrize("p", [127, 128])
def test_rows_of_every_length_survive_until_read(p):
    # the rows are stored in the narrowest integer type that holds a length of p
    names = vertex_names(p)
    m = Model.from_partial_correlations(Graph(names, list(zip(names, names[1:]))),
                                        {e: 0.3 for e in zip(names, names[1:])})
    report = decompose(m, names[0], names[-1])
    assert report.entries[0].path.sequence == tuple(names)
    assert report.to_dict()["paths"][0]["path"] == names


def test_constructor_takes_explicit_entries(triangle):
    entries = tuple(decompose(triangle, "1", "3").entries)
    report = DecompositionReport(x="1", y="3", measure=Measure.COVARIANCE, restrict=None,
                                 entries=entries, target=1.0, residual=0.0, same_signed=True)
    assert report.entries is entries
    assert report.total_weight == pytest.approx(0.39 / 0.676, rel=1e-12)
    assert [p["path"] for p in report.to_dict()["paths"]] == [["1", "2", "3"], ["1", "3"]]
    assert report == dataclasses.replace(report)
    assert report != dataclasses.replace(report, residual=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.entries = ()
    with pytest.raises(AttributeError):
        report.missing


# -- shares ---------------------------------------------------------------------


def test_subset_share_extremes(triangle):
    report = decompose(triangle, "1", "3")
    assert subset_share(report, lambda p: True) == pytest.approx(1.0)
    assert subset_share(report, lambda p: False) == 0.0


def test_subset_share_undefined_on_empty_report():
    g = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.5, ("c", "d"): 0.3})
    report = decompose(m, "a", "c")
    with pytest.raises(UndefinedShareError):
        subset_share(report, lambda p: True)


def test_subset_share_undefined_on_all_zero_weights():
    g = Graph(["a", "b"], [("a", "b")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.0})
    report = decompose(m, "a", "b")
    with pytest.raises(UndefinedShareError):
        subset_share(report, lambda p: True)


# -- rankings ---------------------------------------------------------------------


def test_rank_paths_women_top_three_vertex(women):
    ranked = rank_paths(women, 3)
    top = ranked[0][0].sequence
    assert set(top) == {"processed_meat", "red_meat", "poultry"}
    assert top[1] == "red_meat"


def test_rank_paths_men_top_three_vertex(men):
    ranked = rank_paths(men, 3)
    top = ranked[0][0].sequence
    assert set(top) == {"processed_meat", "red_meat", "poultry"}


def test_rank_paths_sorted_and_exact_size(women):
    ranked = rank_paths(women, 4)
    mags = [abs(w) for _, w in ranked]
    assert mags == sorted(mags, reverse=True)
    assert all(len(p) == 4 for p, _ in ranked)


def test_rank_paths_edgeless_graph():
    m = Model.from_partial_correlations(Graph(["a", "b", "c"]), {})
    assert rank_paths(m, 2) == []


def test_rank_paths_rejects_other_measures(women):
    with pytest.raises(ValueError):
        rank_paths(women, 3, kind=Measure.COVARIANCE)
    with pytest.raises(ValueError):
        rank_paths(women, 1)


def test_decompose_across_a_1200_vertex_chain():
    # the one path has |Sigma_PP| past the float range while its edge product
    # underflows; the weight is taken in log space instead of inf * 0 = nan
    names = vertex_names(1200)
    g = Graph(names, list(zip(names, names[1:])))
    m = random_model(np.random.default_rng(1200), 1200, 0.0, graph=g)
    report = decompose(m, names[0], names[-1])
    assert [len(e.path) for e in report.entries] == [1200]
    assert np.isfinite(report.entries[0].weight)
    assert abs(report.residual) <= DECOMP_TOL * max(1.0, abs(report.target))


def test_decompose_a_1200_vertex_chain_of_underflowing_edges():
    # 0.45 ** 1199 underflows to 0, but the weight, 4.7e-244, does not
    names = vertex_names(1200)
    g = Graph(names, list(zip(names, names[1:])))
    m = Model.from_partial_correlations(g, {e: 0.45 for e in g.edges})
    report = decompose(m, names[0], names[-1])
    assert abs(report.residual) <= DECOMP_TOL * abs(report.target)
    assert weight(m, report.entries[0].path) == report.entries[0].weight


def test_a_zero_edge_weighs_exactly_zero():
    g = Graph(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
    m = Model.from_partial_correlations(g, {("a", "b"): 0.0, ("a", "c"): 0.3, ("b", "c"): 0.4})
    p = Path(("a", "b", "c"))
    weights = {e.path: e.weight for e in decompose(m, "a", "c").entries}
    assert weights[p] == weight(m, p) == partial_weight(m, p) == 0.0
