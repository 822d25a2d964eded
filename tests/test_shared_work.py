"""Work that all-pairs analyses share across calls, and the exact sums of betweenness.

A model keeps the walk of its last ``decompose`` source and the determinants
of the blocks its kernels have factored; a path keeps no per-object dict;
betweenness sums its weights in exact parts. None of this may move a bit, so
every comparison here is exact: a report from a model shared by many calls
against one from a fresh model, and the part sums against ``math.fsum``.
"""

from __future__ import annotations

import math
import pickle
import sys
import threading
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathweights import (
    Graph,
    Model,
    Path,
    PathExplosionError,
    SymMatrix,
    decompose,
    enumerate_paths,
    inflated_weight_explicit,
    normalized_weight,
    partial_inflated_weight_explicit,
    weight,
)
from pathweights import decomposition, graphs, weights
from pathweights.centrality import _exact_parts, _group_sums

from conftest import random_model, vertex_names
from test_engine_differential import CORPUS, KINDS, dense_p13


def fresh(m: Model) -> Model:
    return Model(m.graph, m.sigma, kappa=m.kappa)


def outcome(m: Model, x: str, y: str, **kw):
    """A report's every bit, or the error it raised."""
    try:
        r = decompose(m, x, y, **kw)
    except PathExplosionError as exc:
        return "raised", str(exc)
    return ([(e.path.sequence, e.weight.hex(), e.share.hex()) for e in r.entries],
            r.target.hex(), r.residual.hex(), r.same_signed)


def pair_counts(m: Model) -> dict[tuple[str, str], int]:
    return {(x, y): len(enumerate_paths(m.graph, x, y)) for x, y in combinations(m.vertices, 2)}


@pytest.mark.parametrize("i", range(len(CORPUS) + 1), ids=lambda i: f"m{i}")
def test_allpairs_decompose_on_a_shared_model_equals_fresh_models(i):
    m = dense_p13() if i == len(CORPUS) else CORPUS[i]
    rng = np.random.default_rng([16, i])
    counts = pair_counts(m)
    # a cap that some pairs exceed, and that many a source's walk exceeds in all
    for cap in (decomposition.DEFAULT_PATH_CAP, max(1, max(counts.values(), default=1) // 2)):
        shared = fresh(m)
        for kind in KINDS:
            for x, y in combinations(m.vertices, 2):
                assert outcome(shared, x, y, kind=kind, cap=cap) == outcome(fresh(m), x, y, kind=kind, cap=cap)
                if rng.random() < 0.3:  # a restricted call between two from one source
                    a = [x, y] + [v for v in m.vertices if v not in (x, y) and rng.random() < 0.6]
                    assert (outcome(shared, x, y, kind=kind, restrict=a, cap=cap)
                            == outcome(fresh(m), x, y, kind=kind, restrict=a, cap=cap))


def block_on_a_tree(rng: np.random.Generator) -> Graph:
    """70 vertices: a random 61-vertex tree, and at its vertex 60 a 10-vertex
    block (a cycle with chords), the vertex indices shuffled across the labels."""
    names = [vertex_names(70)[i] for i in rng.permutation(70)]
    edges = {(names[int(rng.integers(0, i))], names[i]) for i in range(1, 61)}
    block = names[60:]
    edges |= set(zip(block, block[1:] + block[:1]))
    edges |= {(u, v) for u, v in combinations(block, 2) if rng.random() < 0.4}
    return Graph(vertex_names(70), edges)


def test_allpairs_decompose_over_two_key_words_on_a_shared_model_equals_fresh_models():
    # past 64 vertices a vertex set takes two words, so the slot's kernel call
    # keys its rows by (target, vertex set) in stacked columns
    m = random_model(np.random.default_rng(65), 70, 0.0, graph=block_on_a_tree(np.random.default_rng(65)))
    shared, words = fresh(m), set()
    for x, y in combinations(m.vertices, 2):
        assert outcome(shared, x, y) == outcome(fresh(m), x, y)
        if shared._walks[1]:  # a source walk served this call
            words.add(shared._walks[1][0].keys.shape[1])
    assert words == {2}


def test_each_source_is_walked_once_after_its_first_pair(monkeypatch):
    names = vertex_names(7)  # K7: every pair's route is the whole graph
    m = random_model(np.random.default_rng(9), 7, 0.0, graph=Graph(names, combinations(names, 2)))
    calls = {"pair": 0, "source": 0}

    def counted(graph, src, dst=-1, _walk=graphs._walk, **kw):
        calls["pair" if dst >= 0 else "source"] += 1  # a walk with a target, or without
        return _walk(graph, src, dst, **kw)
    for module in (graphs, decomposition):
        monkeypatch.setattr(module, "_walk", counted)
    for x, y in combinations(m.vertices, 2):
        decompose(m, x, y)
    n = len(m.vertices)
    # the first source's first pair is walked alone and its second walks the
    # source; each later source follows one asked for twice, so it is walked
    # at its first pair
    assert calls == {"pair": 1, "source": n - 1}
    calls.update(pair=0, source=0)
    for x, y in combinations(m.vertices, 2):  # a restricted call leaves the slot alone
        decompose(m, x, y, restrict=m.vertices)
    assert calls == {"pair": n * (n - 1) // 2, "source": 0}
    calls.update(pair=0, source=0)
    # sources that alternate never ask for one key twice in a row: pairs are walked alone
    pairs = [(m.vertices[s], y) for y in m.vertices[2:] for s in (0, 1)]
    for x, y in pairs:
        decompose(m, x, y)
    assert calls == {"pair": len(pairs), "source": 0}
    calls.update(pair=0, source=0)
    # after a repeated key, a single call walks its source; the next ones their pairs
    v = m.vertices
    for x, y in ((v[0], v[1]), (v[0], v[1]), (v[2], v[3]), (v[4], v[5]), (v[1], v[6])):
        decompose(m, x, y)
    assert calls == {"pair": 3, "source": 2}


@pytest.mark.parametrize("wide", [False, True], ids=["default", "wide-chunks-of-5"])
@pytest.mark.parametrize("i", [*range(0, len(CORPUS), 6), len(CORPUS)], ids=lambda i: f"m{i}")
def test_target_rows_of_a_grouped_source_walk_are_the_pair_walks_rows(i, wide, monkeypatch):
    if wide:  # every level expanded by numpy, 5 rows at a time
        monkeypatch.setattr(graphs, "_NARROW_ROWS", 0)
        monkeypatch.setattr(graphs, "_CHUNK_ROWS", 5)
    m = dense_p13() if i == len(CORPUS) else CORPUS[i]
    g, k, n = m.graph, m.kappa.values, len(m.vertices)
    for x in range(n):
        walked = {}  # by route: one source walk serves every target whose route it is
        for y in range(n):
            if g._rank[y] <= g._rank[x]:
                continue
            route = g._blockcut.route(x, y)
            if route.tobytes() not in walked:
                walked[route.tobytes()] = decomposition._source_rows(fresh(m), x, route, decomposition.DEFAULT_PATH_CAP)
            got, unit = decomposition._slot_rows(walked[route.tobytes()], y)
            want = graphs._pair_paths(g, x, y, edge_values=k)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()
            assert unit.tobytes() == weights._PathKernel(fresh(m)).unit(want).tobytes()


def test_reports_keep_copies_of_the_slot_rows():
    m = fresh(CORPUS[40])
    x, y = m.vertices[0], m.vertices[-1]
    decompose(m, x, y)
    report = decompose(m, x, y)  # the second call walks the source
    held = m._walks[1][0]
    rows = report._rows[1]
    assert not any(np.may_share_memory(a, b) for a in rows[:2] for b in held)
    assert [e.path for e in report.entries] == enumerate_paths(m.graph, x, y)


def k4_behind_a_square():
    """One block: the square a-b-c-d-a, and c, d in a K4 with e and f. From a,
    the vertices b, c and d have 6 paths each and e and f have 10."""
    g = Graph(list("abcdef"), [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("c", "e"),
                               ("c", "f"), ("d", "e"), ("d", "f"), ("e", "f")])
    return random_model(np.random.default_rng(6), 6, 0.0, graph=g)


def test_a_target_past_the_cap_does_not_fail_another_pair_from_its_source():
    m = k4_behind_a_square()
    for cap in range(1, 45):  # 38 paths from a in all
        shared = fresh(m)
        for y in "bcdefbcdef":
            assert outcome(shared, "a", y, cap=cap) == outcome(fresh(m), "a", y, cap=cap)
    shared = fresh(m)
    assert outcome(shared, "a", "b", cap=6) == outcome(shared, "a", "b", cap=6) != "raised"
    assert shared._walks[1] == ()  # the source walk exceeded the cap: pairs are walked alone
    assert outcome(shared, "a", "e", cap=6)[0] == "raised"
    assert outcome(shared, "a", "d", cap=6)[0] != "raised"
    # the slot never holds more than cap rows: 38 in all pass a cap of 37,
    # though no target has more than 10
    for cap, held in ((37, 0), (38, 38)):
        outcome(shared, "a", "b", cap=cap), outcome(shared, "a", "b", cap=cap)
        walked = shared._walks[1]
        assert (len(walked[0].seqs) if walked else 0) == held


def test_concurrent_decompose_calls_on_one_model_match_fresh_models():
    m = random_model(np.random.default_rng(4), 9, 0.6)
    pairs = list(combinations(m.vertices, 2))
    want = [outcome(fresh(m), x, y) for x, y in pairs]
    shared, got, errors = fresh(m), {}, []

    def run(t):
        try:
            got[t] = [outcome(shared, x, y) for x, y in pairs[t:] + pairs[:t]]
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t * 7,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and len(got) == 4
    for t, out in got.items():
        assert out == want[t:] + want[:t]


def test_the_determinant_memo_stays_within_its_bound(monkeypatch):
    m = random_model(np.random.default_rng(11), 9, 0.6)
    pairs = list(combinations(m.vertices, 2))
    want = [outcome(fresh(m), x, y) for x, y in pairs]
    assert [outcome(m, x, y) for x, y in pairs] == want
    assert 0 < len(m._dets) <= weights.DET_MEMO_SIZE
    monkeypatch.setattr(weights, "DET_MEMO_SIZE", 7)
    small = fresh(m)
    assert [outcome(small, x, y) for x, y in pairs] == want
    paths = [p for x, y in pairs[:5] for p in enumerate_paths(m.graph, x, y)]
    assert [weight(small, p) for p in paths] == [weight(fresh(m), p) for p in paths]
    assert len(small._dets) == 7


@pytest.mark.parametrize("i", range(0, len(CORPUS), 9))
def test_single_paths_read_the_memo_with_the_bits_they_compute(i):
    m = CORPUS[i]
    warm = fresh(m)
    for x, y in combinations(m.vertices, 2):
        decompose(warm, x, y)  # fills the memo in the kernel's block orders
    for x, y in combinations(m.vertices, 2):
        for p in enumerate_paths(m.graph, x, y):
            for kind in KINDS:
                assert weight(warm, p, kind).hex() == weight(fresh(m), p, kind).hex()
                assert weight(warm, p, kind).hex() == weight(warm, p, kind).hex()  # a memo hit


def test_a_memo_hit_still_takes_log_space_where_the_product_is_not_finite():
    # K = 1e-6 (I - R) on a 100-vertex chain: |Sigma_PP| of the whole chain
    # overflows and the edge product underflows, so the weight is inf * 0
    # directly and comes from det_product's logs, also when the memo holds
    # the (infinite) determinant
    names = vertex_names(100)
    g = Graph(names, list(zip(names, names[1:])))
    k = np.eye(100) - 0.3 * (np.eye(100, k=1) + np.eye(100, k=-1))
    m = Model.from_sigma(g, SymMatrix(names, np.linalg.inv(k) * 1e6))
    p = Path(tuple(names))
    first = weight(m, p)
    assert math.isfinite(first) and first != 0.0
    assert m._dets[tuple(range(100))] == math.inf
    assert weight(m, p).hex() == first.hex() == weight(fresh(m), p).hex()


@pytest.mark.parametrize("i", range(0, len(CORPUS), 7))
def test_warm_models_index_their_kept_matrices_with_the_same_bits(i):
    m = CORPUS[i]
    warm = fresh(m)
    warm.partial_corr, warm.inflated  # built and kept
    for x, y in combinations(m.vertices, 2):
        for p in enumerate_paths(m.graph, x, y):
            for f in (normalized_weight, inflated_weight_explicit, partial_inflated_weight_explicit):
                assert f(warm, p).hex() == f(fresh(m), p).hex()


def test_paths_are_slotted_and_pickle_hash_compare_and_print_as_before():
    p = Path(("a", "b", "c"))
    assert not hasattr(p, "__dict__")
    assert hash(p) == hash((("a", "b", "c"),))
    assert p == Path(["a", "b", "c"]) != Path(("c", "b", "a"))
    assert repr(p) == "Path(sequence=('a', 'b', 'c'))"
    assert p.vertex_set == frozenset("abc")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        q = pickle.loads(pickle.dumps(p, protocol))
        assert q == p and hash(q) == hash(p) and type(q) is Path

    # Path(("a", "b", "c")) pickled, protocol 2, when Path had a __dict__ and a
    # cached vertex_set: the state is that dict
    old = (b"\x80\x02cpathweights.graphs\nPath\nq\x00)\x81q\x01}q\x02(X\x08\x00\x00\x00sequenceq"
           b"\x03X\x01\x00\x00\x00aq\x04X\x01\x00\x00\x00bq\x05X\x01\x00\x00\x00cq\x06\x87q\x07X"
           b"\n\x00\x00\x00vertex_setq\x08c__builtin__\nfrozenset\nq\t]q\n(h\x06h\x04h\x05e\x85q"
           b"\x0bRq\x0cub.")
    assert pickle.loads(old) == p
    with pytest.raises(Exception):
        p.sequence = ("x", "y")


def test_path_rows_convert_to_the_paths_they_hold():
    m = CORPUS[40]
    report = decompose(m, m.vertices[0], m.vertices[-1])
    assert [e.path for e in report.entries] == enumerate_paths(m.graph, m.vertices[0], m.vertices[-1])


# -- exact sums -------------------------------------------------------------------

FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.0 ** -1022, 1e300, -1e300, 0.1, 1 / 3]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=60), st.integers(1, 4))
def test_exact_parts_sum_to_fsum_in_any_order(values, repeat):
    r = np.array(values * repeat)  # repeats give runs of equal values
    parts = _exact_parts(r)
    if parts is None:  # only where a splitting constant would pass the float range
        assert math.frexp(float(np.abs(r).max()))[1] + len(r).bit_length() + 1 > 1023
        return
    exact = math.fsum(r.tolist())
    assert math.fsum([float(q.sum()) for q in parts]) == exact
    for q in parts:
        # every order of every sub-sum is exact: forwards, backwards, pairwise
        s = math.fsum(q.tolist())
        assert float(np.add.reduce(q)) == s == float(np.cumsum(q[::-1])[-1])
        assert float(np.add.reduce(q[1::2])) == math.fsum(q[1::2].tolist())
    total = parts[-1]
    for q in parts[-2::-1]:  # each residual is the next part plus the one after, exactly
        total = q + total
    assert np.array_equal(total, r)  # no bit lost


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(FLOATS.map(abs), st.lists(st.booleans(), min_size=4, max_size=4)),
                min_size=1, max_size=40),
       st.data())
def test_group_sums_equal_fsum_per_group_and_column(rows, data):
    w = np.array([v for v, _ in rows])
    on_path = np.array([b for _, b in rows], dtype=bool)
    starts = sorted(set([0] + data.draw(st.lists(st.integers(0, len(w) - 1), max_size=5))))
    ends = starts[1:] + [len(w)]
    denoms, numers = _group_sums(w, on_path, starts)
    assert [d.hex() for d in denoms] == [math.fsum(w[lo:hi].tolist()).hex() for lo, hi in zip(starts, ends)]
    assert [[c.hex() for c in g] for g in numers] == [
        [math.fsum(w[lo:hi][on_path[lo:hi, v]].tolist()).hex() for v in range(4)]
        for lo, hi in zip(starts, ends)]


def test_group_sums_of_empty_groups_are_zero(monkeypatch):
    # betweenness passes every target's group; a target no path reaches repeats a start
    w = np.array([0.5, 0.25, 3.0])
    on_path = np.array([[True, False], [False, True], [True, True]])
    assert _group_sums(w, on_path, [0, 2, 2, 3]) == ([0.75, 0.0, 3.0, 0.0],
                                                     [[0.5, 0.25], [0.0, 0.0], [3.0, 3.0], [0.0, 0.0]])
    assert _group_sums(np.array([np.inf]), np.array([[True]]), [0, 0]) == ([0.0, math.inf], [[0.0], [math.inf]])
    assert _group_sums(np.zeros(0), np.zeros((0, 2), dtype=bool), [0, 0]) == ([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
    assert _group_sums(np.zeros(0), np.zeros((0, 2), dtype=bool), []) == ([], [])
    # a model of many components has O(p^2) unreached pairs: each costs no fsum, not p + 1
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    for w in (np.array([0.5]), np.array([np.inf])):
        calls.clear()
        denoms, numers = _group_sums(w, np.array([[True, False]]), [0] + [1] * 500)
        assert len(calls) == 3 and denoms[1:] == [0.0] * 500 and numers[1:] == [[0.0, 0.0]] * 500


def test_group_sums_of_non_finite_weights_are_fsum_over_the_entries():
    w = np.array([1.0, np.inf, 2.0, 3.0])
    on_path = np.array([[True], [False], [True], [False]])
    assert _group_sums(w, on_path, [0, 2]) == ([math.inf, 5.0], [[1.0], [2.0]])
    assert _exact_parts(np.array([1e308, 1e308])) is None
