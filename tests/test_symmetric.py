import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from pathweights import (
    InvalidMatrixError,
    NotPositiveDefiniteError,
    SymMatrix,
    UnknownVertexError,
)
from pathweights.symmetric import chol_det, chol_dets, chol_slogdet, det_product

from conftest import oracle_schur


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
    assert det_product([(m, ["1", "2"], 1), (m, ["3"], 1), (m, None, -1)]) == direct
    # |M| ** 2 / |M| ** 2 = 1, with both |M| ** 2 overflowing on their own
    huge = sym(np.diag(np.full(40, 1e10)))
    assert det_product([(huge, None, 1), (huge, None, 1), (huge, None, -1), (huge, None, -1)]) == (
        pytest.approx(1.0, rel=1e-12))
    # |tiny| * |huge| = 1, with one underflowing to 0 and one overflowing
    tiny = sym(np.diag(np.full(40, 1e-10)))
    assert det_product([(tiny, None, 1), (huge, None, 1)]) == pytest.approx(1.0, rel=1e-12)


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


def test_only_symmetric_imports_scipy():
    # keeps a switch away from scipy a change to one module
    importers = set()
    for source in (Path(__file__).resolve().parent.parent / "src" / "pathweights").rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(mod.split(".")[0] == "scipy" for mod in modules):
                importers.add(source.name)
    assert importers == {"symmetric.py"}
