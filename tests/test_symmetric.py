import ast
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla

from pathweights import (
    InvalidMatrixError,
    NotPositiveDefiniteError,
    SymMatrix,
    UnknownVertexError,
)
from pathweights import symmetric
from pathweights.symmetric import (_cho_factor, _cho_solve, _mean_with_transpose, chol_det, chol_dets,
                                  chol_slogdet, det_product)

from conftest import oracle_schur, random_model


def sym(values, labels=None):
    values = np.asarray(values, dtype=float)
    labels = labels or [str(i + 1) for i in range(values.shape[0])]
    return SymMatrix(labels, values)


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


# -- construction ------------------------------------------------------------


def test_constructor_rejects_non_finite():
    with pytest.raises(InvalidMatrixError):
        sym([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(InvalidMatrixError):
        sym([[np.inf, 0.0], [0.0, 1.0]])


def test_constructor_rejects_asymmetric_and_misshapen():
    with pytest.raises(InvalidMatrixError):
        sym([[1.0, 0.2], [0.4, 1.0]])
    with pytest.raises(InvalidMatrixError):
        SymMatrix(["a", "b"], np.zeros((2, 3)))
    with pytest.raises(InvalidMatrixError):
        SymMatrix(["a", "a"], np.eye(2))


def test_storage_is_exactly_symmetric():
    m = sym([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
    assert m.values[0, 1] == m.values[1, 0]
    assert m.entry("1", "2") == m.entry("2", "1")


def test_storage_keeps_entries_near_the_float_limit():
    # (a + a.T) / 2 overflowed past about 9e307 and stored inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert SymMatrix(["a"], [[1e308]]).values[0, 0] == 1e308
        m = sym([[1.7e308, 1e308 * (1 + 1e-14)], [1e308, 1.7e308]])
    assert m.values[0, 1] == m.values[1, 0] == pytest.approx(1e308, rel=1e-13)
    # exactly symmetric input is stored as given, signed zeros included;
    # otherwise halves are summed, which in the normal range is the mean's rounding
    zeros = sym([[1.0, -0.0], [-0.0, 1.0]]).values
    assert np.signbit(zeros[0, 1]) and np.signbit(zeros[1, 0])
    assert not np.signbit(sym([[1.0, 0.0], [-0.0, 1.0]]).values).any()
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        a = random_spd(rng, n)
        a = a + np.triu(rng.uniform(-1e-14, 1e-14, size=(n, n)), 1)
        assert np.array_equal(sym(a).values, (a + a.T) / 2.0)


def test_submatrix_preserves_parent_label_order():
    m = sym(np.diag([1.0, 2.0, 3.0]), labels=["a", "b", "c"])
    sub = m.submatrix(["c", "a"])
    assert sub.labels == ("a", "c")
    assert sub.values[1, 1] == 3.0


# -- positive definiteness ------------------------------------------------------


def test_pd_identity():
    assert sym(np.eye(3)).is_positive_definite()


def test_pd_singular_matrix_is_rejected():
    assert not sym([[1.0, 1.0], [1.0, 1.0]]).is_positive_definite()


def test_pd_diagonally_dominant():
    assert sym([[1.0, 0.5], [0.5, 1.0]]).is_positive_definite()


def test_pd_tiny_pivot_fails_tolerance():
    m = sym([[1.0, 0.0], [0.0, 1e-15]])
    assert not m.is_positive_definite(tol=1e-12)
    assert m.is_positive_definite(tol=1e-18)


# -- determinants ---------------------------------------------------------------


def test_det_empty_set_is_one():
    m = sym([[2.0, 0.3], [0.3, 1.0]])
    assert m.det([]) == 1.0


def test_det_identity():
    assert sym(np.eye(4)).det() == pytest.approx(1.0)


def test_det_two_by_two():
    assert sym([[1.0, 0.5], [0.5, 1.0]]).det() == pytest.approx(0.75)


def test_entry_unknown_label():
    m = sym(np.eye(2))
    for u, v in (("1", "zzz"), ("zzz", "2")):
        with pytest.raises(UnknownVertexError) as info:
            m.entry(u, v)
        assert info.value.missing == ("zzz",)


def test_unknown_vertex_error_prints_its_plain_message():
    # a KeyError would print its message in quotes
    exc = UnknownVertexError(["zzz", "q"])
    assert isinstance(exc, KeyError) and exc.missing == ("zzz", "q")
    assert str(exc) == "unknown vertex label(s): 'zzz', 'q'"


def test_det_unknown_label():
    with pytest.raises(UnknownVertexError):
        sym(np.eye(2)).det(["1", "zzz"])


def test_det_matches_numpy_on_random_submatrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        m = sym(random_spd(rng, n))
        k = int(rng.integers(1, n + 1))
        rows = list(rng.choice(m.labels, size=k, replace=False))
        expected = np.linalg.det(m.submatrix(rows).values)
        assert m.det(rows) == pytest.approx(expected, rel=1e-9)


def test_det_indefinite_fallback():
    m = sym([[1.0, 2.0], [2.0, 1.0]])
    assert m.det() == pytest.approx(-3.0)
    # a stack gives every block the bits it gets alone, with or without an
    # indefinite block among them, on both sides of each pivot reduction
    rng = np.random.default_rng(113)
    for n in range(1, 6):
        for k in sorted({1, 2, n, n + 1}):
            stack = np.array([random_spd(rng, n) for _ in range(k)])
            indefinite = stack.copy()
            indefinite[-1, 0, 0] *= -1.0
            for blocks in (stack, indefinite):
                assert chol_dets(blocks) == [chol_det(b) for b in blocks]
            assert chol_det(indefinite[-1]) == pytest.approx(np.linalg.det(indefinite[-1]), rel=1e-12)


def test_overflowing_determinant_is_inf_without_a_warning():
    big = np.diag(np.full(40, 1e10))  # det 1e400, beyond the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert chol_dets(np.array([big, big, np.eye(40)])) == [math.inf, math.inf, 1.0]
        assert chol_det(big) == math.inf
    assert chol_slogdet(big) == (1.0, pytest.approx(400 * math.log(10), rel=1e-15))
    assert chol_slogdet(np.zeros((0, 0))) == (1.0, 0.0)


def test_overflowing_pivot_product_is_inf_without_a_warning():
    # the pivot product itself (1e400) leaves the float range, not only its
    # square: one block, and a stack of more blocks than pivots
    big = np.diag(np.full(200, 1e4))[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert chol_dets(big) == [math.inf]
        assert chol_dets(np.repeat(big, 201, axis=0)) == [math.inf] * 201


def test_det_product_falls_back_to_log_determinants():
    rng = np.random.default_rng(117)
    m = sym(random_spd(rng, 5))
    direct = m.det(["1", "2"]) * m.det(["3"]) / m.det()
    assert det_product([(m.values, m.positions(["1", "2"]), 1), (m.values, m.positions(["3"]), 1),
                        (m.values, None, -1)]) == direct
    # |M| ** 2 / |M| ** 2 = 1, with both |M| ** 2 overflowing on their own
    huge = sym(np.diag(np.full(40, 1e10))).values
    assert det_product([(huge, None, 1), (huge, None, 1), (huge, None, -1), (huge, None, -1)]) == (
        pytest.approx(1.0, rel=1e-12))
    # |tiny| * |huge| = 1, with one underflowing to 0 and one overflowing
    tiny = sym(np.diag(np.full(40, 1e-10))).values
    assert det_product([(tiny, None, 1), (huge, None, 1)]) == pytest.approx(1.0, rel=1e-12)
    # 1e200 * -1e200 / 1e250 = -1e150, with the indefinite block's log from LU
    indefinite, wide = np.diag([1e50, 1e50, 1e50, -1e50]), np.diag([1e50, 1e50, 1e50, 1e100])
    assert det_product([([1e200],), (indefinite, None, 1), (wide, None, -1)]) == (
        pytest.approx(-1e150, rel=1e-12))


# -- inverse ---------------------------------------------------------------------


def test_inverse_identity_and_diagonal():
    np.testing.assert_allclose(sym(np.eye(3)).inverse().values, np.eye(3))
    np.testing.assert_allclose(
        sym(np.diag([2.0, 4.0])).inverse().values, np.diag([0.5, 0.25])
    )


def test_inverse_two_by_two_formula():
    m = sym([[1.0, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(
        m.inverse().values, np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
    )


def test_inverse_requires_pd():
    with pytest.raises(NotPositiveDefiniteError):
        sym([[1.0, 2.0], [2.0, 1.0]]).inverse()


def test_inverse_roundtrip_tolerance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 10))
        m = sym(random_spd(rng, n))
        prod = m.values @ m.inverse().values
        assert np.abs(prod - np.eye(n)).max() < 1e-10


# -- Schur complement --------------------------------------------------------------


def test_schur_empty_b_returns_a_block():
    m = sym(random_spd(np.random.default_rng(0), 4))
    out = m.schur_complement(["2", "4"], [])
    np.testing.assert_array_equal(out.values, m.submatrix(["2", "4"]).values)


def test_schur_block_diagonal_independence():
    m = sym([[2.0, 0.7, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 3.0]])
    out = m.schur_complement(["1", "2"], ["3"])
    np.testing.assert_allclose(out.values, m.submatrix(["1", "2"]).values)


def test_schur_equicorrelated_example():
    m = sym([[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]])
    out = m.schur_complement(["1", "2"], ["3"])
    np.testing.assert_allclose(out.values, [[0.91, 0.21], [0.21, 0.91]])


def test_schur_rejects_overlap():
    m = sym(np.eye(3))
    with pytest.raises(ValueError):
        m.schur_complement(["1", "2"], ["2", "3"])


def test_schur_determinant_identity():
    # |S_{AuB,AuB}| = |S_AA.B| * |S_BB| on random PD matrices
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        m = sym(random_spd(rng, n))
        labels = list(m.labels)
        rng.shuffle(labels)
        cut = int(rng.integers(1, n))
        a, b = labels[:cut], labels[cut:]
        lhs = m.det(a + b)
        rhs = m.schur_complement(a, b).det() * m.det(b)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_schur_against_inverse_block():
    # S_{AA.Abar} equals the inverse of the A-block of S^{-1}
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 13))
        m = sym(random_spd(rng, n))
        k = int(rng.integers(1, n))
        a = sorted(rng.choice(m.labels, size=k, replace=False))
        b = [lab for lab in m.labels if lab not in a]
        schur = m.schur_complement(a, b)
        block_inverse = m.inverse().submatrix(a).inverse()
        assert np.abs(schur.values - block_inverse.values).max() < 1e-9


def test_schur_matches_plain_numpy():
    rng = np.random.default_rng(5)
    m = sym(random_spd(rng, 6))
    a, b = ["1", "4", "6"], ["2", "3"]
    expected = oracle_schur(m.values, [0, 3, 5], [1, 2])
    np.testing.assert_allclose(m.schur_complement(a, b).values, expected, rtol=1e-12, atol=1e-12)


def test_hadamard_sandwich():
    # prod of residual variances <= |S| <= prod of variances
    rng = np.random.default_rng(55)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        m = sym(random_spd(rng, n))
        det = m.det()
        upper = float(np.prod(m.diagonal()))
        lower = float(np.prod(1.0 / np.diagonal(m.inverse().values)))
        assert lower <= det * (1 + 1e-12)
        assert det <= upper * (1 + 1e-12)


# -- dependencies ----------------------------------------------------------------


SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_module_imports_scipy():
    # scipy supplies only its compiled LAPACK wrapper, which symmetric.py
    # loads from its file; a switch away from scipy changes that one module
    importers, namers = set(), set()
    for source in (SRC / "pathweights").rglob("*.py"):
        text = source.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(mod.split(".")[0] == "scipy" for mod in modules):
                importers.add(source.name)
        if "scipy" in text:
            namers.add(source.name)
    assert importers == set()
    assert namers == {"symmetric.py"}


def test_cli_leaves_scipy_linalg_unloaded():
    # the package init of scipy.linalg is most of a fresh process's start-up
    code = ("import sys; from pathweights.cli import main; "
            f"status = main(['check', {str(SRC / 'pathweights' / 'data' / 'women.model')!r}]); "
            "print(status, 'scipy.linalg' in sys.modules, 'scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"


# -- the LAPACK wrapper against scipy.linalg ------------------------------------------


def spd_corpus():
    """Seeded SPD matrices, n = 1..60, each in C and in Fortran order."""
    rng = np.random.default_rng(20261019)
    for n in range(1, 61):
        a = rng.normal(size=(n, n))
        a = a @ a.T + rng.uniform(0.01, 2.0) * n * np.eye(n)
        yield rng, np.ascontiguousarray(a)
        yield rng, np.asfortranarray(a)


def test_cholesky_wrappers_match_scipy_bit_for_bit():
    for rng, a in spd_corpus():
        n = len(a)
        before = a.copy()
        c = _cho_factor(a)
        ref, lower = sla.cho_factor(a, lower=True)
        assert lower
        assert np.array_equal(np.tril(c), np.tril(ref))
        assert np.array_equal(a, before)
        for k in sorted({1, 2, n // 2 or 1, n}):
            b = rng.normal(size=(n, 2 * k))
            for rhs in (b[:, :k].copy(), np.asfortranarray(b[:, :k]), b[:, ::2]):
                x = _cho_solve(c, rhs)
                assert np.array_equal(x, sla.cho_solve((ref, True), rhs))
        assert np.array_equal(_cho_solve(c, np.eye(n)), sla.cho_solve((ref, True), np.eye(n)))


def test_cholesky_wrapper_rejects_an_indefinite_matrix_as_scipy_does():
    a = np.array([[4.0, 2.0, 0.0], [2.0, 1.0, 3.0], [0.0, 3.0, 2.0]])
    with pytest.raises(np.linalg.LinAlgError) as ours:
        _cho_factor(a)
    with pytest.raises(np.linalg.LinAlgError) as theirs:
        sla.cho_factor(a, lower=True)
    assert str(ours.value) == str(theirs.value) == "2-th leading minor of the array is not positive definite"
    m = sym(a, ["a", "b", "c"])
    with pytest.raises(NotPositiveDefiniteError, match="matrix is not positive definite: 2-th"):
        m.inverse()
    padded = np.eye(4)
    padded[1:, 1:] = a
    with pytest.raises(NotPositiveDefiniteError, match="conditioning block is not positive definite: 2-th"):
        sym(padded, ["x", "a", "b", "c"]).schur_complement(["x"], ["a", "b", "c"])


def checked_copy(m):
    """``m`` rebuilt by the checking constructor."""
    return SymMatrix(m.labels, m.values)


def test_derived_matrices_equal_their_checked_construction():
    # inverse, Schur complement and the model's partial correlation,
    # correlation and inflated correlation matrices skip the symmetry check
    # and the averaging: they are exactly symmetric, so both leave them as is
    for rng, a in spd_corpus():
        n = len(a)
        labels = [f"v{i}" for i in range(n)]
        m = SymMatrix(labels, a)
        derived = [m.inverse()]
        cut = int(rng.integers(0, n + 1))
        order = rng.permutation(labels).tolist()
        if 0 < cut < n:
            derived.append(m.schur_complement(order[:cut], order[cut:]))
        # a principal block or a permutation of m takes m's entries as they are
        for d in (m.submatrix(order[:cut]), m.reindexed(order), m.schur_complement(order[:cut], [])):
            idx = [labels.index(v) for v in d.labels]
            assert np.array_equal(d.values, m.values[np.ix_(idx, idx)])
            derived.append(d)
        for d in derived:
            assert np.array_equal(d.values, d.values.T)
            assert np.array_equal(d.values, checked_copy(d).values)
            assert not d.values.flags.writeable
    graph_rng = np.random.default_rng(7)
    for p in (2, 5, 12, 30):
        model = random_model(graph_rng, p, 0.4)
        for d in (model.sigma, model.kappa, model.partial_corr, model.omega, model.inflated):
            assert np.array_equal(d.values, d.values.T)
            assert np.array_equal(d.values, checked_copy(d).values)


@pytest.mark.parametrize("strip", [50, symmetric._STRIP_ENTRIES])
def test_inverse_keeps_the_bits_of_the_mean_of_the_solve(monkeypatch, strip):
    # K is solved in the storage of a Fortran-ordered identity and averaged
    # with its transpose in place, a strip of rows at a time; its values are
    # those of (x + x.T) / 2.0
    monkeypatch.setattr(symmetric, "_STRIP_ENTRIES", strip)
    for rng, a in spd_corpus():
        n = len(a)
        x = sla.cho_solve(sla.cho_factor(a, lower=True), np.eye(n))
        inv = sym(a).inverse().values
        assert np.array_equal(inv, (x + x.T) / 2.0)
        assert inv.flags.c_contiguous
        b = np.eye(n, order="F")
        assert _cho_solve(_cho_factor(a), b, overwrite_b=True) is b


def test_mean_with_transpose_halves_only_where_the_sum_overflows(monkeypatch):
    monkeypatch.setattr(symmetric, "_STRIP_ENTRIES", 20)  # strips of one to twenty rows
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 13, 21):
        a = rng.uniform(-1.79, 1.79, size=(n, n)) * 10.0 ** rng.integers(-320, 309, size=(n, n))
        with np.errstate(over="ignore"):
            total = a + a.T
        want = np.where(np.isinf(total), a * 0.5 + a.T * 0.5, total / 2.0)
        got = _mean_with_transpose(a.copy())
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(got.view(np.uint64), got.T.view(np.uint64))


def test_inverse_and_schur_complement_keep_entries_near_the_float_limit():
    # (x + x.T) / 2 overflowed past about 9e307, so an inverse or a Schur
    # complement whose answer is finite raised InvalidMatrixError
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tiny = sym([[1 / 1.5e308]])
        inv = tiny.inverse().values[0, 0]
        assert inv == _cho_solve(_cho_factor(tiny.values), np.eye(1))[0, 0]
        assert inv == pytest.approx(1.5e308, rel=1e-15)
        m = sym([[1.7e308, 1.6e308, 0.0], [1.6e308, 1.7e308, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(m.schur_complement(["1", "2"], ["3"]).values, m.values[:2, :2])


def test_derived_matrix_keeps_the_finiteness_check():
    with pytest.raises(InvalidMatrixError, match="finite"):
        SymMatrix._derived(("a", "b"), np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(InvalidMatrixError, match="finite"):
        sym([[1e-310, 0.0], [0.0, 1.0]]).inverse()  # 1 / 1e-310 overflows


def test_reindexed_names_a_repeated_label():
    m = SymMatrix(["a", "b"], np.eye(2))
    for labels, repeated in ((["a", "a", "b"], "a"), (["b", "a", "b"], "b"), (["a", "a"], "a")):
        with pytest.raises(InvalidMatrixError, match=f"label '{repeated}' is repeated"):
            m.reindexed(labels)
    with pytest.raises(UnknownVertexError) as info:
        m.reindexed(["a", "c"])
    assert info.value.missing == ("b", "c")


@pytest.mark.parametrize("call", [
    lambda m, labels: m.det(labels),
    lambda m, labels: m.submatrix(labels),
    lambda m, labels: m.schur_complement(labels, ["c"]),
    lambda m, labels: m.schur_complement(["c"], labels),
], ids=["det", "submatrix", "schur-a", "schur-b"])
def test_a_repeated_label_is_rejected_by_every_block_read(call):
    m = SymMatrix(["a", "b", "c"], [[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 1.0]])
    for labels, repeated in ((["a", "a"], "a"), (["b", "a", "b"], "b"), (["a", "b", "a", "b"], "a")):
        with pytest.raises(InvalidMatrixError, match=f"label '{repeated}' is repeated"):
            call(m, labels)
    assert m.det(["a"]) == 2.0
