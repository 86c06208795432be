"""Tests for the dense linear algebra kernel."""

import numpy as np
import pytest

from cosfuse import linalg


# ---------------------------------------------------------------------------
# clip_box

@pytest.mark.parametrize("tau, expected", [
    (1.0, [[-1.0, -0.5, 0.25], [1.0, 1.0, -1.0]]),
    (0.0, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
])
@pytest.mark.parametrize("transpose", [False, True], ids=["array", "view"])
def test_clip_box_clips_its_argument_in_place(tau, expected, transpose):
    """It returns its argument, clipped; the coder hands it the transposed
    view of an N-by-h buffer."""
    base = np.array([[-3.0, -0.5, 0.25], [2.0, 1.0, -1.0]])
    v = base.T if transpose else base
    assert linalg.clip_box(v, tau) is v
    np.testing.assert_array_equal(base, expected)


def test_clip_box_rejects_negative_or_nan_tau():
    v = np.array([1.0, -2.0, 0.5])
    for tau in (-0.1, -1.0, float("nan")):
        with pytest.raises(ValueError):
            linalg.clip_box(v, tau)
    np.testing.assert_array_equal(v, [1.0, -2.0, 0.5])


# ---------------------------------------------------------------------------
# sym_eig_smallest

def _gram(M):
    """M times its own transpose: one buffer, so numpy's product is BLAS
    syrk and the result is exactly symmetric."""
    return M @ M.T


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


def _rayleigh(S, vec):
    return float(vec @ S @ vec)


def test_sym_eig_smallest_diagonal():
    S = np.diag([3.0, 1.0, 2.0])
    (vec,) = linalg.sym_eig_smallest(S[None])
    assert _rayleigh(S, vec) == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-12)
    np.testing.assert_allclose(np.abs(vec), [0.0, 1.0, 0.0], atol=1e-10)


def test_sym_eig_smallest_closed_form_2x2():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    (vec,) = linalg.sym_eig_smallest(S[None])
    assert _rayleigh(S, vec) == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-12)
    expected = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(np.linalg.norm(vec - expected), np.linalg.norm(vec + expected)) < 1e-10


def test_sym_eig_smallest_matches_shifted_power_iteration():
    rng = np.random.default_rng(11)
    for trial in range(5):
        S = _gram(rng.standard_normal((6, 9)))
        (vec,) = linalg.sym_eig_smallest(S[None])
        lam_ref, _ = _shifted_power_iteration_smallest(S, seed=trial)
        lam = _rayleigh(S, vec)
        assert lam == pytest.approx(lam_ref, abs=1e-8 * np.linalg.norm(S))
        assert lam == pytest.approx(np.linalg.eigvalsh(S)[0],
                                    abs=1e-12 * np.linalg.norm(S))
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_sym_eig_residual_up_to_64():
    rng = np.random.default_rng(5)
    for n in (3, 16, 33, 64):
        A = rng.standard_normal((n, n))
        S = (A + A.T) / 2
        (vec,) = linalg.sym_eig_smallest(S[None])
        lam = _rayleigh(S, vec)
        assert lam == pytest.approx(np.linalg.eigvalsh(S)[0],
                                    abs=1e-12 * np.linalg.norm(S))
        resid = np.linalg.norm(S @ vec - lam * vec)
        assert resid <= 1e-8 * np.linalg.norm(S)


def test_sym_eig_smallest_is_lower_bound_on_rayleigh():
    rng = np.random.default_rng(9)
    S = _gram(rng.standard_normal((12, 20)))
    (vec,) = linalg.sym_eig_smallest(S[None])
    lam = _rayleigh(S, vec)
    assert lam == pytest.approx(np.linalg.eigvalsh(S)[0],
                                abs=1e-12 * np.linalg.norm(S))
    U = rng.standard_normal((1000, 12))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    rayleigh = np.einsum("ij,jk,ik->i", U, S, U)
    assert np.all(rayleigh >= lam - 1e-9)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="not symmetric"):
        linalg.sym_eig_smallest(np.array([[[1.0, 2.0], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="square"):
        linalg.sym_eig_smallest(np.ones((1, 2, 3)))
    # Only the stack the row update builds: a lone matrix is not one.
    for matrix in (np.eye(3), np.ones((2, 3))):
        with pytest.raises(ValueError, match="stack"):
            linalg.sym_eig_smallest(matrix)


@pytest.mark.parametrize("m", [25, 49])
def test_sym_eig_smallest_stack_is_bit_equal_to_per_matrix_calls(m):
    # Singular Grams of mean-subtracted columns, as the row update makes,
    # and full-rank ones of different scales.
    rng = np.random.default_rng(m)
    stack = []
    for cols in (m // 2, m, 3 * m):
        M = rng.standard_normal((m, cols))
        stack.append(_gram(M - M.mean(axis=0)))
        stack.append(_gram(M) * 10.0 ** rng.integers(-3, 4))
    vecs = linalg.sym_eig_smallest(np.stack(stack))
    assert vecs.shape == (len(stack), m)
    for S, vec in zip(stack, vecs):
        (vec_one,) = linalg.sym_eig_smallest(S[None])
        assert vec.tobytes() == vec_one.tobytes()


def test_sym_eig_smallest_stack_vectors_own_their_memory():
    """The stacked eigenvectors are a k-by-m copy, not a view that keeps
    LAPACK's k-by-m-by-m output alive."""
    rng = np.random.default_rng(9)
    stack = np.stack([_gram(rng.standard_normal((6, 10))) for _ in range(4)])
    vecs = linalg.sym_eig_smallest(stack)
    assert vecs.base is None and vecs.flags.owndata
    assert vecs.shape == (4, 6)


def test_sym_eig_smallest_stack_checks_every_matrix():
    rng = np.random.default_rng(8)
    good = _gram(rng.standard_normal((5, 9)))
    asymmetric = good.copy()
    asymmetric[0, 1] += 1e-6 * np.abs(good).max()
    non_finite = good.copy()
    non_finite[2, 2] = np.nan
    for bad in (asymmetric, non_finite):
        with pytest.raises(ValueError):
            linalg.sym_eig_smallest(np.stack([good, bad, good]))
    # Symmetry is judged against each matrix's own scale: a small matrix's
    # asymmetry is not hidden by a large neighbour.
    with pytest.raises(ValueError):
        linalg.sym_eig_smallest(np.stack([1e12 * good, asymmetric]))
    with pytest.raises(ValueError):
        linalg.sym_eig_smallest(np.ones((2, 3, 4)))
    with pytest.raises(ValueError):
        linalg.sym_eig_smallest(np.ones((0, 3, 3)))


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
        w, _ = np.linalg.eigh(_gram(M.T))
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
    text = linalg.matrix_text(M, comments=["check"])
    assert text.splitlines()[0] == "# check"
    path.write_text(text)
    np.testing.assert_array_equal(linalg.load_matrix_text(path), M)


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


@pytest.mark.parametrize("data", [
    b"+2 1\n1\n2\n",          # a signed dimension
    b"2 1\n1_0\n2\n",         # a '_' digit separator in an entry
    b"# h\xe9\n2 1\n1\n2\n",  # a non-ASCII byte
], ids=["signed-dim", "underscore", "non-ascii"])
def test_load_matrix_text_rejects_what_matrix_text_never_writes(tmp_path, data):
    path = tmp_path / "odd.txt"
    path.write_bytes(data)
    with pytest.raises(linalg.MatrixFormatError, match="odd.txt"):
        linalg.load_matrix_text(path)


def test_matrix_text_golden():
    """The exact bytes of the format: 17 significant digits, %g style, so
    -0.0 keeps its sign and integers print without a point."""
    M = np.array([[-0.0, 1 / 3, 1e-300],
                  [2.0, -7.0, 0.1],
                  [123456789012345678.0, 5e-324, -1.5]])
    assert linalg.matrix_text(M, comments=["a", "b c"]) == (
        "# a\n"
        "# b c\n"
        "3 3\n"
        "-0 0.33333333333333331 1e-300\n"
        "2 -7 0.10000000000000001\n"
        "1.2345678901234568e+17 4.9406564584124654e-324 -1.5\n"
    )
    assert linalg.matrix_text(np.array([[1.0]])) == "1 1\n1\n"


def test_load_matrix_text_reads_values_wrapped_across_lines(tmp_path):
    """Values are read in order whatever the line breaks, blank lines,
    tabs and interleaved comment lines between them."""
    path = tmp_path / "m.txt"
    path.write_text("# head\n\n   2 3  \n-0\n\t0.33333333333333331 1e-300\t2\n"
                    "  # a comment between values\n\n-7 0.10000000000000001\n")
    M = linalg.load_matrix_text(path)
    expected = np.array([[-0.0, 1 / 3, 1e-300], [2.0, -7.0, 0.1]])
    np.testing.assert_array_equal(M, expected)
    assert np.signbit(M[0, 0])
