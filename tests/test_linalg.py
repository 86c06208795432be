"""Tests for the dense linear algebra kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosfuse import linalg


def finite_vectors(max_len=12):
    return st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1, max_size=max_len,
    ).map(np.array)


# ---------------------------------------------------------------------------
# soft_threshold

def test_soft_threshold_componentwise():
    out = linalg.soft_threshold(np.array([2.0, -0.3, 0.7]), 0.5)
    np.testing.assert_allclose(out, [1.5, 0.0, 0.2], atol=1e-15)


def test_soft_threshold_zero_tau_is_identity():
    v = np.array([1.5, -2.0, 0.0, 3.25])
    np.testing.assert_array_equal(linalg.soft_threshold(v, 0.0), v)


def test_soft_threshold_full_shrinkage():
    v = np.array([0.5, -1.0, 0.25])
    np.testing.assert_array_equal(linalg.soft_threshold(v, 1.0), np.zeros(3))


def test_soft_threshold_rejects_negative_tau():
    with pytest.raises(ValueError):
        linalg.soft_threshold(np.array([1.0]), -0.1)


def test_soft_threshold_sign_preserved():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(100)
    out = linalg.soft_threshold(v, 0.3)
    nz = out != 0
    assert np.all(np.sign(out[nz]) == np.sign(v[nz]))
    np.testing.assert_allclose(np.abs(out), np.maximum(np.abs(v) - 0.3, 0.0))


@settings(max_examples=50, deadline=None)
@given(finite_vectors(), finite_vectors(),
       st.floats(min_value=0, max_value=10, allow_nan=False))
def test_soft_threshold_nonexpansive(a, b, tau):
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    lhs = np.linalg.norm(linalg.soft_threshold(a, tau) - linalg.soft_threshold(b, tau))
    assert lhs <= np.linalg.norm(a - b) + 1e-12


# ---------------------------------------------------------------------------
# gram

def test_gram_identity():
    np.testing.assert_array_equal(linalg.gram(np.eye(2)), np.eye(2))


def test_gram_single_column_outer_product():
    a, b = 2.0, -3.0
    M = np.array([[a], [b]])
    np.testing.assert_allclose(linalg.gram(M), [[a * a, a * b], [a * b, b * b]])


def test_gram_matches_naive_triple_loop():
    rng = np.random.default_rng(42)
    M = rng.standard_normal((5, 8))
    expected = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            acc = 0.0
            for k in range(8):
                acc += M[i, k] * M[j, k]
            expected[i, j] = acc
    np.testing.assert_allclose(linalg.gram(M), expected, rtol=1e-12)


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(10):
        G = linalg.gram(rng.standard_normal((9, 13)))
        np.testing.assert_array_equal(G, G.T)


def test_gram_positive_semidefinite():
    rng = np.random.default_rng(3)
    G = linalg.gram(rng.standard_normal((6, 4)))
    assert np.linalg.eigvalsh(G).min() > -1e-10


# ---------------------------------------------------------------------------
# sym_eig_smallest

def _shifted_power_iteration_smallest(S, iters=20_000, seed=0):
    """Independent oracle: power iteration on (shift*I - S) finds the
    smallest eigenpair of S."""
    n = S.shape[0]
    shift = np.abs(S).sum(axis=1).max() + 1.0  # Gershgorin upper bound
    T = shift * np.eye(n) - S
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = T @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v = w / nw
    lam = float(v @ S @ v)
    return lam, v


def test_sym_eig_smallest_diagonal():
    lam, vec = linalg.sym_eig_smallest(np.diag([3.0, 1.0, 2.0]))
    assert lam == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(vec), [0.0, 1.0, 0.0], atol=1e-10)


def test_sym_eig_smallest_closed_form_2x2():
    lam, vec = linalg.sym_eig_smallest(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert lam == pytest.approx(1.0, abs=1e-12)
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(vec - expected), np.linalg.norm(vec + expected)) < 1e-10


def test_sym_eig_smallest_matches_shifted_power_iteration():
    rng = np.random.default_rng(11)
    for trial in range(5):
        S = linalg.gram(rng.standard_normal((6, 9)))
        lam, vec = linalg.sym_eig_smallest(S)
        lam_ref, _ = _shifted_power_iteration_smallest(S, seed=trial)
        assert lam == pytest.approx(lam_ref, abs=1e-8 * np.linalg.norm(S))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_sym_eig_residual_up_to_64():
    rng = np.random.default_rng(5)
    for n in (3, 16, 33, 64):
        A = rng.standard_normal((n, n))
        S = (A + A.T) / 2
        lam, vec = linalg.sym_eig_smallest(S)
        resid = np.linalg.norm(S @ vec - lam * vec)
        assert resid <= 1e-8 * np.linalg.norm(S)


def test_sym_eig_smallest_is_lower_bound_on_rayleigh():
    rng = np.random.default_rng(9)
    S = linalg.gram(rng.standard_normal((12, 20)))
    lam, _ = linalg.sym_eig_smallest(S)
    U = rng.standard_normal((1000, 12))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    rayleigh = np.einsum("ij,jk,ik->i", U, S, U)
    assert np.all(rayleigh >= lam - 1e-9)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        linalg.sym_eig_smallest(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.sym_eig_smallest(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# spectral_norm_sq

def test_spectral_norm_sq_identity():
    assert linalg.spectral_norm_sq(np.eye(5)) == pytest.approx(1.0, rel=1e-9)


def test_spectral_norm_sq_diagonal():
    assert linalg.spectral_norm_sq(np.diag([3.0, 1.0])) == pytest.approx(9.0, rel=1e-9)


def test_spectral_norm_sq_matches_jacobi_on_gram():
    # Oracle route: full dense (LAPACK) eigensolve of the explicit Gram matrix.
    rng = np.random.default_rng(21)
    for _ in range(5):
        M = rng.standard_normal((10, 7))
        w, _ = linalg.sym_eig(linalg.gram(M.T))
        assert linalg.spectral_norm_sq(M) == pytest.approx(w[-1], rel=1e-6)


def test_spectral_norm_sq_transpose_invariant():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((8, 5))
    assert linalg.spectral_norm_sq(M) == pytest.approx(
        linalg.spectral_norm_sq(M.T), rel=1e-8)


# ---------------------------------------------------------------------------
# text format

def test_matrix_text_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(13)
    M = rng.standard_normal((4, 6)) * np.exp(rng.uniform(-8, 8, size=(4, 6)))
    path = tmp_path / "m.txt"
    linalg.save_matrix_text(path, M, comments=["check"])
    loaded, comments = linalg.load_matrix_text(path)
    np.testing.assert_array_equal(loaded, M)
    assert comments == ["check"]


def test_matrix_text_rejects_bad_counts(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1.0 2.0\n3.0\n")
    with pytest.raises(linalg.MatrixFormatError):
        linalg.load_matrix_text(path)


def test_matrix_text_rejects_bad_dims(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("two 2\n1.0 2.0\n")
    with pytest.raises(linalg.MatrixFormatError):
        linalg.load_matrix_text(path)
