"""Tests for cosparse coding and operator learning."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inf_in_first_column_on_third_call, make_planted_clusters
from cosfuse import imageio, learn
from cosfuse.fuse import FusionConfig
from cosfuse.linalg import sym_eig_smallest
from cosfuse.patches import build_grid, extract_matrix


def _objective(W, x, y, lam):
    return 0.5 * np.sum((x - y) ** 2) + lam * np.abs(W @ x).sum()


def admm_direct_oracle(W, y, lam, mu, max_iters, tol):
    """Reference ADMM whose x-update solves the normal equations exactly."""
    h, m = W.shape
    A = np.eye(m) + mu * (W.T @ W)
    x = y.copy()
    v = W @ x
    d = np.zeros(h)
    for _ in range(max_iters):
        x = np.linalg.solve(A, y + mu * (W.T @ (v + d)))
        Wx = W @ x
        shift = Wx - d
        v = np.sign(shift) * np.maximum(np.abs(shift) - lam / mu, 0.0)
        d = d - (Wx - v)
        if np.linalg.norm(Wx - v) <= tol:
            break
    return x


# ---------------------------------------------------------------------------
# init_operator

def test_init_operator_deterministic():
    a = learn.init_operator(64, 49, seed=7)
    b = learn.init_operator(64, 49, seed=7)
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_init_operator_unit_rows():
    op = learn.init_operator(32, 25, seed=1)
    np.testing.assert_allclose(np.linalg.norm(op.matrix, axis=1), 1.0, atol=1e-12)


def test_init_operator_full_rank_square():
    op = learn.init_operator(49, 49, seed=1)
    evals = np.linalg.eigvalsh(op.matrix @ op.matrix.T)
    assert evals.min() > 0


def test_init_operator_rejects_h_below_m():
    with pytest.raises(ValueError):
        learn.init_operator(10, 11, seed=0)


@pytest.mark.parametrize("matrix", [np.empty((0, 0)), np.ones(3),
                                    [[1.0, np.nan], [0.0, 1.0]]],
                         ids=["empty", "1-d", "nan"])
def test_operator_rejects_empty_1d_and_non_finite_matrices(matrix):
    with pytest.raises(ValueError, match="^operator "):
        learn.AnalysisOperator(matrix)


def test_operator_save_load_round_trip(tmp_path):
    op = learn.init_operator(12, 9, seed=4)
    path = tmp_path / "op.txt"
    path.write_text(op.to_text())
    loaded = learn.AnalysisOperator.load(path)
    np.testing.assert_array_equal(loaded.matrix, op.matrix)
    header = path.read_text().splitlines()[0]
    assert header == "# analysis-operator h=12 m=9"


def test_operator_load_names_the_file_once(tmp_path):
    path = tmp_path / "op.txt"
    path.write_text("2 2\n1 0\n0 2\n")  # second row is not unit-norm
    with pytest.raises(ValueError) as info:
        learn.AnalysisOperator.load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1


# ---------------------------------------------------------------------------
# cosparse_code_many on one signal (a one-column Y)

def test_code_zero_lambda_returns_signal_exactly():
    op = learn.init_operator(20, 15, seed=2)
    y = np.random.default_rng(3).standard_normal(15)
    X, _, _, resid, _ = learn.cosparse_code_many(op, y[:, None],
                                                 learn.TrainConfig(lam=0.0))
    np.testing.assert_array_equal(X[:, 0], y)
    assert resid[0] == 0.0


def test_code_identity_operator_matches_prox():
    rng = np.random.default_rng(5)
    op = learn.AnalysisOperator(np.eye(49))
    cfg = learn.TrainConfig(lam=0.3, admm_tol=1e-10, max_admm_iters=5000)
    for _ in range(5):
        y = rng.standard_normal(49)
        X, _, _, _, _ = learn.cosparse_code_many(op, y[:, None], cfg)
        prox = np.sign(y) * np.maximum(np.abs(y) - 0.3, 0.0)
        np.testing.assert_allclose(X[:, 0], prox, atol=1e-6)


def test_code_matches_direct_solve_oracle():
    rng = np.random.default_rng(6)
    op = learn.init_operator(64, 49, seed=8)
    for lam in (0.01, 0.1, 1.0):
        y = rng.standard_normal(49)
        cfg = learn.TrainConfig(lam=lam, admm_tol=1e-8, max_admm_iters=2000)
        X, _, _, _, _ = learn.cosparse_code_many(op, y[:, None], cfg)
        x_ref = admm_direct_oracle(op.matrix, y, lam, cfg.mu, 2000, 1e-8)
        f_mine = _objective(op.matrix, X[:, 0], y, lam)
        f_ref = _objective(op.matrix, x_ref, y, lam)
        assert abs(f_mine - f_ref) <= 1e-5 * abs(f_ref)


def test_code_never_worse_than_trivial_point():
    rng = np.random.default_rng(7)
    op = learn.init_operator(30, 21, seed=9)
    cfg = learn.TrainConfig(lam=0.2)
    for _ in range(10):
        y = rng.standard_normal(21)
        X, _, _, _, _ = learn.cosparse_code_many(op, y[:, None], cfg)
        assert (_objective(op.matrix, X[:, 0], y, cfg.lam)
                <= _objective(op.matrix, y, y, cfg.lam) + 1e-8)


def test_code_residual_below_tol_on_early_exit():
    op = learn.init_operator(24, 16, seed=10)
    cfg = learn.TrainConfig(lam=0.05)
    y = np.random.default_rng(11).standard_normal(16)
    _, _, _, resid, iters = learn.cosparse_code_many(op, y[:, None], cfg)
    assert iters[0] < cfg.max_admm_iters
    assert resid[0] <= cfg.admm_tol


def test_code_rejects_wrong_length():
    op = learn.init_operator(8, 6, seed=0)
    with pytest.raises(ValueError):
        learn.cosparse_code_many(op, np.zeros(5)[:, None], learn.TrainConfig())


def test_batch_coding_agrees_with_single():
    rng = np.random.default_rng(12)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    Y = rng.standard_normal((16, 7))
    X, _, _, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    for i in range(7):
        x, _, _, _, it = learn.cosparse_code_many(op, Y[:, i][:, None], cfg)
        np.testing.assert_allclose(X[:, i], x[:, 0], atol=1e-8)
        assert iters[i] == it[0]


def test_batch_columns_capped_at_max_iters_keep_last_residual():
    rng = np.random.default_rng(21)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1, max_admm_iters=3)
    Y = rng.standard_normal((16, 9))
    X, _, _, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    np.testing.assert_array_equal(iters, 3)
    assert np.all(resid > cfg.admm_tol)

    cfg = learn.TrainConfig(lam=0.1)
    X, _, _, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    assert np.all(resid <= cfg.admm_tol) and np.all(iters < cfg.max_admm_iters)


def test_batch_iteration_counts_match_single_column_solves():
    rng = np.random.default_rng(22)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    # Scaled columns converge after different numbers of iterations.
    Y = rng.standard_normal((16, 12)) * np.geomspace(0.2, 5.0, 12)
    X, _, _, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    assert len(np.unique(iters)) >= 4
    assert np.all(resid <= cfg.admm_tol)
    for i in range(Y.shape[1]):
        x, _, _, r, it = learn.cosparse_code_many(op, Y[:, i][:, None], cfg)
        assert iters[i] == it[0]
        assert resid[i] == pytest.approx(r[0], rel=1e-6, abs=1e-12)
        np.testing.assert_allclose(X[:, i], x[:, 0], atol=1e-10)


def test_batch_nan_residual_retires_column(monkeypatch):
    """A NaN residual retires its column, as a residual within tolerance
    does; the other columns are coded as without it."""
    rng = np.random.default_rng(23)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    Y = rng.standard_normal((16, 5))
    _, _, _, ref_resid, ref_iters = learn.cosparse_code_many(op, Y, cfg)

    clip_box = learn.clip_box
    calls = []

    def nan_in_first_column_once(v, tau):
        out = clip_box(v, tau)
        if not calls:
            out[:, 0] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(learn, "clip_box", nan_in_first_column_once)
    _, _, _, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    assert iters[0] == 1 and np.isnan(resid[0])
    np.testing.assert_array_equal(iters[1:], ref_iters[1:])
    np.testing.assert_allclose(resid[1:], ref_resid[1:], rtol=1e-9)


def test_batch_empty_returns_at_once(monkeypatch):
    """An empty batch runs no iteration and returns empty results."""
    op = learn.init_operator(20, 16, seed=13)
    clip_box = learn.clip_box
    calls = []

    def counted(v, tau):
        calls.append(1)
        return clip_box(v, tau)

    monkeypatch.setattr(learn, "clip_box", counted)
    X, _, _, resid, iters = learn.cosparse_code_many(op, np.zeros((16, 0)),
                                                     learn.TrainConfig())
    assert not calls
    assert [a.shape for a in (X, resid, iters)] == [(16, 0), (0,), (0,)]


def test_mu_is_a_solver_constant():
    """The ADMM penalty is 1 and the cosupport tolerance 1e-3, and neither is
    a setting: neither config has a mu or cosupport_tol field, and a
    TrainConfig takes neither as an argument."""
    fields = {f.name for cls in (learn.TrainConfig, FusionConfig)
              for f in dataclasses.fields(cls)}
    assert not fields & {"mu", "cosupport_tol"}
    assert learn.TrainConfig.mu == 1.0
    assert FusionConfig()._coding_config().mu == 1.0
    assert learn.TrainConfig.cosupport_tol == 1e-3
    with pytest.raises(TypeError):
        learn.TrainConfig(mu=2.0)
    with pytest.raises(TypeError):
        learn.TrainConfig(cosupport_tol=1e-2)


@pytest.mark.parametrize("lam,max_iters", [
    (0.1, 1000), (0.05, 1000), (0.3, 1000), (0.2, 3)])
def test_batch_columns_equal_runs_capped_at_their_iterations(lam, max_iters):
    """Each column's x and residual are those of the trip it retires on,
    not a later one's: the same batch capped at that column's iteration
    count returns them within 1e-12, for converged and capped columns
    alike. And that x is the iterate of the exact-step reference ADMM run
    for exactly as many trips."""
    rng = np.random.default_rng(26)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=lam, max_admm_iters=max_iters)
    Y = rng.standard_normal((16, 30)) * np.geomspace(0.2, 5.0, 30)
    X, _, _, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    for cap in np.unique(iters):
        capped = dataclasses.replace(cfg, max_admm_iters=int(cap))
        Xc, _, _, resid_c, _ = learn.cosparse_code_many(op, Y, capped)
        cols = iters == cap
        np.testing.assert_allclose(X[:, cols], Xc[:, cols], rtol=0, atol=1e-12)
        np.testing.assert_allclose(resid[cols], resid_c[cols], rtol=0, atol=1e-12)
    for i in range(Y.shape[1]):
        x_ref = admm_direct_oracle(op.matrix, Y[:, i], lam, cfg.mu, iters[i], 0.0)
        np.testing.assert_allclose(X[:, i], x_ref, rtol=0, atol=1e-12)


def test_batch_holds_six_working_arrays(trained_operator, texture_128):
    """The coder allocates no v or d, and no trip allocates an N-by-h
    array: coding the 1,764 centred 7x7 patches of a noisy 128x128 image
    (overlap 4) against a 64-row operator peaks at no more than 6.5 N-by-h
    float64 arrays, the five working and trip buffers plus x."""
    noisy = imageio.add_gaussian_noise(texture_128, 15.0, seed=1)
    Y = extract_matrix(noisy / 255.0, build_grid(128, 128, 7, 4))
    Y -= Y.mean(axis=0)
    cfg = FusionConfig()._coding_config()
    n_cols, h = Y.shape[1], trained_operator.h
    assert (n_cols, h) == (1764, 64)
    tracemalloc.start()
    try:
        learn.cosparse_code_many(trained_operator, Y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * n_cols * h * 8


def test_batch_column_order_does_not_matter():
    """Columns that retire at different iterations, coded in another order,
    take the same iterations and reach the same x: retired columns that
    ride along until compaction do not disturb the live ones."""
    rng = np.random.default_rng(27)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    Y = rng.standard_normal((16, 40)) * np.geomspace(0.2, 5.0, 40)
    X, _, _, _, iters = learn.cosparse_code_many(op, Y, cfg)
    assert len(np.unique(iters)) >= 4
    perm = rng.permutation(Y.shape[1])
    Xp, _, _, _, iters_p = learn.cosparse_code_many(op, Y[:, perm], cfg)
    np.testing.assert_array_equal(iters_p, iters[perm])
    np.testing.assert_allclose(Xp, X[:, perm], rtol=0, atol=1e-12)


def test_batch_divergence_mid_solve_raises(monkeypatch):
    rng = np.random.default_rng(28)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    Y = rng.standard_normal((16, 5))
    _, _, _, _, iters = learn.cosparse_code_many(op, Y, cfg)
    assert iters.min() > 3
    monkeypatch.setattr(learn, "clip_box",
                        inf_in_first_column_on_third_call(learn.clip_box))
    with pytest.raises(learn.NumericalFailure):
        learn.cosparse_code_many(op, Y, cfg)


def test_batch_divergence_after_compaction_reports_its_iteration(monkeypatch):
    """A column that turns non-finite only after the working set has been
    compacted raises ``NumericalFailure`` at the trip after: the trip its
    NaN residual retires it."""
    rng = np.random.default_rng(29)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    Y = rng.standard_normal((16, 40)) * np.geomspace(0.2, 5.0, 40)
    clip_box = learn.clip_box
    calls, injected = [], []

    def inf_after_compaction(v, tau):
        out = clip_box(v, tau)
        calls.append(1)
        if v.shape[1] < Y.shape[1] and not injected:
            out[:, 0] = np.inf
            injected.append(len(calls))
        return out

    monkeypatch.setattr(learn, "clip_box", inf_after_compaction)
    with pytest.raises(learn.NumericalFailure) as err:
        learn.cosparse_code_many(op, Y, cfg)
    assert injected[0] > 2
    assert err.value.iteration == injected[0] + 1 == len(calls)


def test_batch_over_compactions_matches_single_column_solves(monkeypatch):
    """A batch that compacts at least twice gives every column the
    iterations and x it gets coded alone."""
    rng = np.random.default_rng(30)
    op = learn.init_operator(20, 16, seed=13)
    Y = rng.standard_normal((16, 40)) * np.geomspace(0.2, 5.0, 40)
    cfg = learn.TrainConfig(lam=0.1)

    clip_box = learn.clip_box
    widths = set()

    def recording(v, tau):
        widths.add(v.shape[1])
        return clip_box(v, tau)

    monkeypatch.setattr(learn, "clip_box", recording)
    X, _, _, _, iters = learn.cosparse_code_many(op, Y, cfg)
    monkeypatch.setattr(learn, "clip_box", clip_box)
    assert len(widths) >= 3  # the full batch and at least two compactions
    assert len(np.unique(iters)) >= 4
    for i in range(Y.shape[1]):
        x, _, _, _, it = learn.cosparse_code_many(op, Y[:, [i]], cfg)
        assert iters[i] == it[0]
        np.testing.assert_allclose(X[:, i], x[:, 0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# update_row

def _row_objective(row, Y_J):
    return float(np.sum((row @ Y_J) ** 2))


def test_update_row_exact_orthogonal_complement():
    # training columns along e1 only; coded signals make row 0's J the full set
    Y = np.array([[1.0, 2.0, -1.5], [0.0, 0.0, 0.0]])
    X = np.zeros((2, 3))
    op = learn.AnalysisOperator(np.array([[1.0, 0.0], [0.0, 1.0]]))
    (row,) = learn.update_row(op, np.array([0]), Y, X, learn.TrainConfig())
    np.testing.assert_allclose(np.abs(row), [0.0, 1.0], atol=1e-10)


def test_update_row_smallest_eigendirection():
    Y = np.array([[2.0, 0.0], [0.0, 1.0]])  # gram diag(4, 1)
    X = np.zeros((2, 2))
    op = learn.AnalysisOperator(np.eye(2))
    (row,) = learn.update_row(op, np.array([1]), Y, X, learn.TrainConfig())
    np.testing.assert_allclose(np.abs(row), [0.0, 1.0], atol=1e-10)


def test_update_row_beats_random_search():
    rng = np.random.default_rng(21)
    m = 49
    Y = rng.standard_normal((m, 30))
    X = np.zeros((m, 30))  # forces J = all columns
    op = learn.init_operator(64, m, seed=22)
    cfg = learn.TrainConfig()
    (row,) = learn.update_row(op, np.array([3]), Y, X, cfg)
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-10)
    best = _row_objective(row, Y)
    R = rng.standard_normal((10_000, m))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    random_best = np.sum((R @ Y) ** 2, axis=1).min()
    assert best <= random_best + 1e-10


def test_update_row_improves_on_previous_row(monkeypatch):
    monkeypatch.setattr(learn.TrainConfig, "cosupport_tol", 0.5)
    rng = np.random.default_rng(23)
    op = learn.init_operator(16, 12, seed=24)
    Y = rng.standard_normal((12, 40))
    cfg = learn.TrainConfig()
    X = rng.standard_normal((12, 40)) * 0.3
    j = 5
    scores = op.matrix[j] @ X
    J = np.flatnonzero(np.abs(scores) <= cfg.cosupport_tol)
    assert J.size > 0
    (row,) = learn.update_row(op, np.array([j]), Y, X, cfg)
    assert _row_objective(row, Y[:, J]) <= _row_objective(op.matrix[j], Y[:, J]) + 1e-12


def test_update_row_empty_set_returns_none():
    op = learn.init_operator(6, 4, seed=25)
    Y = np.ones((4, 8))
    X = np.ones((4, 8)) * 100  # no scores near zero
    assert learn.update_row(op, np.array([2]), Y, X, learn.TrainConfig()) == [None]


def test_update_row_eigensolves_converge_on_training_grams(texture_128, cartoon_128):
    # The row-update Gram matrices of `cosfuse train` on the texture and
    # cartoon images (read back from PGM, 5x5 patches, h = 33, seed 0) are
    # singular, and a solver that stops at an iteration cap returns some of
    # them unconverged.
    images = [imageio.read_pgm(imageio.write_pgm(img))
              for img in (cartoon_128, texture_128)]
    Y = learn.sample_training_patches(images, 5, 600, 0)
    op = learn.init_operator(33, 25, 0)
    cfg = learn.TrainConfig()
    X, _, _, _, _ = learn.cosparse_code_many(op, Y, cfg)
    for j in range(op.h):
        J = np.flatnonzero(np.abs(op.matrix[j] @ X) <= cfg.cosupport_tol)
        assert J.size > 0
        YJ = Y[:, J]
        S = YJ @ YJ.T
        (vec,) = sym_eig_smallest(S[None])
        lam = vec @ S @ vec  # the Rayleigh quotient
        assert lam == pytest.approx(np.linalg.eigvalsh(S)[0],
                                    abs=1e-12 * np.linalg.norm(S))
        assert np.linalg.norm(S @ vec - lam * vec) <= 1e-12 * np.linalg.norm(S)


def test_update_row_rejects_bad_index():
    op = learn.init_operator(6, 4, seed=26)
    for j in (6, -1, 2, np.array([0, 6]), np.array([-1, 2]), np.array([[0, 1]]),
              np.array([0.0, 1.0])):
        with pytest.raises(ValueError):
            learn.update_row(op, j, np.zeros((4, 8)), np.zeros((4, 8)),
                             learn.TrainConfig())


def test_update_row_index_array_equals_integer_calls(texture_128):
    Y = learn.sample_training_patches([texture_128], 5, 300, 0)
    op = learn.init_operator(33, 25, 0)
    cfg = learn.TrainConfig()
    X, _, _, _, _ = learn.cosparse_code_many(op, Y, cfg)
    # Move every coded column on row 4's hyperplane off it: row 4's
    # orthogonal set is empty, every other row's is not.
    X = X.copy()
    X[:, np.abs(op.matrix[4] @ X) <= cfg.cosupport_tol] += op.matrix[4][:, None]
    rows = np.array([4, 0, 32, 7, 4])
    new = learn.update_row(op, rows, Y, X, cfg)
    assert isinstance(new, list) and len(new) == rows.size
    assert new[0] is None and new[4] is None
    for j, row in zip(rows, new):
        (one,) = learn.update_row(op, np.array([j]), Y, X, cfg)
        if one is None:
            assert row is None
        else:
            assert row.tobytes() == one.tobytes()
    assert sum(row is not None for row in new) == 3
    assert learn.update_row(op, np.arange(0), Y, X, cfg) == []


# ---------------------------------------------------------------------------
# sample_training_patches

def _reference_sample(images, n, count, seed):
    """The one-attempt-at-a-time sampler that the batched draw reproduces on
    a single image. On two or more images the batched draw takes all images
    of a batch before its corners, so the two differ there."""
    rng = np.random.default_rng(seed)
    m = n * n
    Y = np.empty((m, count))
    usable = [img for img in images if min(img.shape) >= n]
    if not usable:
        raise ValueError(f"no training image is at least {n}x{n} pixels")
    i = 0
    attempts = 0
    while i < count:
        attempts += 1
        if attempts > 50 * count:
            raise ValueError("training images are flat; cannot sample patches")
        img = usable[int(rng.integers(len(usable)))]
        top = int(rng.integers(img.shape[0] - n + 1))
        left = int(rng.integers(img.shape[1] - n + 1))
        block = img[top:top + n, left:left + n].reshape(m) / learn.PIXEL_SCALE
        block = block - block.mean()
        norm = np.linalg.norm(block)
        if norm < 1e-8:
            continue
        Y[:, i] = block / norm
        i += 1
    return Y


def _assert_same_sample(images, n, count, seed):
    expected = _reference_sample(images, n, count, seed)
    got = learn.sample_training_patches(images, n, count, seed)
    assert got.shape == expected.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("case", ["trained-operator-fixture", "flat-heavy-cartoon",
                                  "count-0"])
def test_sample_matches_reference_byte_for_byte(case, texture_128, cartoon_128):
    if case == "trained-operator-fixture":
        _assert_same_sample([texture_128], 7, 800, 1)
    elif case == "flat-heavy-cartoon":
        # A fifth of the cartoon windows are flat, so the draw takes several
        # batches.
        _assert_same_sample([cartoon_128], 7, 2000, 5)
    else:
        _assert_same_sample([texture_128], 7, 0, 3)


@st.composite
def _sampling_inputs(draw):
    n = draw(st.integers(2, 7))
    pixels = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(n - 2, n + 11)), draw(st.integers(n - 2, n + 11))
    img = pixels.uniform(0, 255, (rows, cols)).round()
    if draw(st.booleans()):
        img[:, :cols // 2] = 100.0
    return [img], n, draw(st.integers(0, 300)), draw(st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(_sampling_inputs())
def test_sample_matches_reference_on_random_inputs(inputs):
    try:
        _reference_sample(*inputs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            learn.sample_training_patches(*inputs)
    else:
        _assert_same_sample(*inputs)


def _normalized_windows(img, n):
    """Every n-by-n window of ``img``, scaled, mean-free and unit-norm, as
    the rows of a matrix."""
    rows = np.lib.stride_tricks.sliding_window_view(img, (n, n)).reshape(-1, n * n)
    rows = rows / learn.PIXEL_SCALE
    rows = rows - rows.mean(axis=1, keepdims=True)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _window_matches(Y, windows):
    """For each column of Y, whether it equals each row of ``windows``."""
    return np.abs(Y.T[:, None, :] - windows[None, :, :]).max(axis=2) < 1e-12


def _mixed_images(seed):
    pixels = np.random.default_rng(seed)
    return [pixels.uniform(0, 255, shape).round()
            for shape in [(9, 12), (5, 5), (11, 6), (6, 14)]]


def test_sample_columns_are_windows_of_the_images():
    images = _mixed_images(8)
    Y = learn.sample_training_patches(images, 5, 400, 2)
    hits = [_window_matches(Y, _normalized_windows(img, 5)).any(axis=1)
            for img in images]
    assert np.logical_or.reduce(hits).all()
    # Every image supplies some columns.
    assert all(hit.any() for hit in hits)


def test_sample_same_seed_same_bytes():
    images = _mixed_images(9)
    first = learn.sample_training_patches(images, 5, 300, 11)
    assert first.tobytes() == learn.sample_training_patches(images, 5, 300, 11).tobytes()
    assert first.tobytes() != learn.sample_training_patches(images, 5, 300, 12).tobytes()


def test_sample_drops_images_smaller_than_the_patch():
    images = _mixed_images(10)
    small = [np.full((4, 30), 9.0), np.full((30, 4), 200.0)]
    expected = learn.sample_training_patches(images, 5, 300, 6)
    got = learn.sample_training_patches(small[:1] + images[:2] + small[1:] + images[2:],
                                        5, 300, 6)
    assert got.tobytes() == expected.tobytes()


def test_sample_draws_images_uniformly_not_windows():
    # A 7x7 image has one window at n 7; a 40x40 one has 34 * 34. Drawn
    # uniformly over images, about half the columns are that one window;
    # drawn over windows, about 1 in 1,157 would be.
    pixels = np.random.default_rng(12)
    one, big = pixels.uniform(0, 255, (7, 7)).round(), pixels.uniform(0, 255, (40, 40)).round()
    Y = learn.sample_training_patches([one, big], 7, 4000, 3)
    share = _window_matches(Y, _normalized_windows(one, 7)).mean()
    # Five binomial standard deviations (sqrt(4000 / 4) / 4000 = 0.0079).
    assert abs(share - 0.5) < 0.04


def test_sample_flat_images_raise_like_reference():
    images = [np.full((20, 30), 128.0), np.full((12, 12), 3.0)]
    with pytest.raises(ValueError) as expected:
        _reference_sample(images, 5, 40, 7)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        learn.sample_training_patches(images, 5, 40, 7)


def test_sample_rejects_negative_count():
    with pytest.raises(ValueError, match="count must be nonnegative, got -5"):
        learn.sample_training_patches([np.zeros((9, 9))], 3, -5, 0)


# ---------------------------------------------------------------------------
# train

def _small_planted_problem(seed=30):
    planted = learn.init_operator(33, 25, seed=seed)
    Y = make_planted_clusters(planted.matrix, n_signals=150, cosupport_size=21,
                              n_clusters=8, seed=seed + 1)
    return Y


def test_train_objective_drops_on_planted_data():
    Y = _small_planted_problem()
    cfg = learn.TrainConfig(lam=0.05, sweeps=6, max_admm_iters=300, seed=31)
    op, report = learn.train(Y, cfg, h=33)
    assert len(report.objective_per_sweep) == 6
    assert np.all(np.isfinite(report.objective_per_sweep))
    assert report.objective_per_sweep[-1] < report.objective_per_sweep[0]
    # cosparsity should not degrade over training (small slack for noise)
    cosp = report.mean_cosparsity_per_sweep
    assert cosp[-1] >= cosp[0]
    assert min(np.diff(cosp)) >= -0.5


def test_train_single_sweep_control_flow():
    Y = _small_planted_problem(seed=40)
    cfg = learn.TrainConfig(lam=0.05, sweeps=1, max_admm_iters=100, seed=41)
    op, report = learn.train(Y, cfg, h=33)
    assert 1 <= report.admm_iters_max_per_sweep[0] <= cfg.max_admm_iters
    assert len(report.admm_nonconverged_per_sweep) == 1
    assert 0 <= report.rows_reinitialized_per_sweep[0] <= 33
    assert len(report.objective_per_sweep) == 1
    with pytest.raises(ValueError):
        learn.TrainConfig(sweeps=0)


def test_train_counts_empty_set_reinitialisations(monkeypatch):
    # No coded column is within 1e-300 of any row's hyperplane, so every
    # row's orthogonal set is empty and train re-initialises all 33.
    monkeypatch.setattr(learn.TrainConfig, "cosupport_tol", 1e-300)
    Y = _small_planted_problem()
    cfg = learn.TrainConfig(lam=0.05, sweeps=1, max_admm_iters=100, seed=41)
    op, report = learn.train(Y, cfg, h=33)
    assert report.rows_reinitialized_per_sweep == [33]
    np.testing.assert_allclose(np.linalg.norm(op.matrix, axis=1), 1.0, atol=1e-12)


def test_train_reports_nonconverged_columns():
    Y = _small_planted_problem(seed=40)
    cfg = learn.TrainConfig(lam=0.05, sweeps=1, max_admm_iters=1, seed=41)
    _, report = learn.train(Y, cfg, h=33)
    assert report.admm_iters_max_per_sweep == [1]
    assert 0 < report.admm_nonconverged_per_sweep[0] <= Y.shape[1]


def test_train_output_rows_unit_norm():
    Y = _small_planted_problem(seed=50)
    cfg = learn.TrainConfig(lam=0.05, sweeps=2, max_admm_iters=100, seed=51)
    op, _ = learn.train(Y, cfg, h=33)
    np.testing.assert_allclose(np.linalg.norm(op.matrix, axis=1), 1.0, atol=1e-10)


def test_train_bit_deterministic():
    Y = _small_planted_problem(seed=60)
    cfg = learn.TrainConfig(lam=0.05, sweeps=2, max_admm_iters=100, seed=61)
    op1, rep1 = learn.train(Y, cfg, h=33)
    op2, rep2 = learn.train(Y, cfg, h=33)
    np.testing.assert_array_equal(op1.matrix, op2.matrix)
    assert rep1.objective_per_sweep == rep2.objective_per_sweep


def _per_row_reference_train(Y, cfg, h):
    """``train``'s sweeps as a loop over rows: one set, one Gram matrix and
    one eigensolve per row, and the duplicate guard on a copy of the
    operator without row j. Returns the operator and the rows re-initialized
    per sweep."""
    op = learn.init_operator(h, Y.shape[0], cfg.seed)
    reinit_rng = np.random.default_rng((cfg.seed, 0x9E3779B9))
    reinitialized = []
    for _ in range(cfg.sweeps):
        X, _, _, _, _ = learn.cosparse_code_many(op, Y, cfg)
        count = 0
        for j in range(h):
            J = np.flatnonzero(np.abs(op.matrix[j] @ X) <= cfg.cosupport_tol)
            YJ = Y[:, J]  # gathered once: YJ @ YJ.T is one exactly symmetric syrk
            row = sym_eig_smallest((YJ @ YJ.T)[None])[0] if J.size else None
            if (row is None or np.abs(np.delete(op.matrix, j, axis=0) @ row).max()
                    > learn.DUPLICATE_ROW_COSINE):
                row = learn._random_unit_row(reinit_rng, Y.shape[0])
                count += 1
            op.matrix[j] = row / np.linalg.norm(row)
        reinitialized.append(count)
    return op.matrix, reinitialized


@pytest.mark.parametrize("data", ["planted", "texture"])
def test_train_matches_per_row_reference_sweep(data, texture_128):
    if data == "planted":
        Y = _small_planted_problem(seed=60)
        cfg = learn.TrainConfig(lam=0.05, sweeps=2, max_admm_iters=300, seed=61)
    else:
        Y = learn.sample_training_patches([texture_128], 5, 300, 0)
        cfg = learn.TrainConfig(sweeps=2, max_admm_iters=300, seed=2)
    op, report = learn.train(Y, cfg, h=33)
    W, reinitialized = _per_row_reference_train(Y, cfg, 33)
    assert op.matrix.tobytes() == W.tobytes()
    assert report.rows_reinitialized_per_sweep == reinitialized
    # Both kinds of row occur: accepted updates and random replacements.
    assert sum(reinitialized) > 0 and min(reinitialized) < 33


# One changed value per TrainConfig field; each must change the operator.
_CHANGED_TRAIN_FIELD_VALUES = {
    "lam": 0.05,
    "max_admm_iters": 5,
    "admm_tol": 1e-2,
    "sweeps": 3,
    "seed": 1,
}


def test_every_train_config_field_changes_the_operator(texture_128):
    assert (sorted(_CHANGED_TRAIN_FIELD_VALUES)
            == sorted(f.name for f in dataclasses.fields(learn.TrainConfig)))
    Y = learn.sample_training_patches([texture_128[:64, :64]], 5, 300, 0)
    default = learn.TrainConfig(sweeps=2)
    baseline = learn.train(Y, default, h=33)[0].matrix.tobytes()
    for name, value in _CHANGED_TRAIN_FIELD_VALUES.items():
        cfg = dataclasses.replace(default, **{name: value})
        assert learn.train(Y, cfg, h=33)[0].matrix.tobytes() != baseline, name


def test_train_rejects_too_few_signals():
    with pytest.raises(ValueError):
        learn.train(np.zeros((16, 10)), learn.TrainConfig(), h=24)
