"""Tests for cosparse coding and operator learning."""

import numpy as np
import pytest

from conftest import make_planted_clusters
from cosfuse import imageio, learn
from cosfuse.linalg import gram, soft_threshold, sym_eig_smallest


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


def test_operator_save_load_round_trip(tmp_path):
    op = learn.init_operator(12, 9, seed=4)
    path = tmp_path / "op.txt"
    path.write_text(op.to_text())
    loaded = learn.AnalysisOperator.load(path)
    np.testing.assert_array_equal(loaded.matrix, op.matrix)
    header = path.read_text().splitlines()[0]
    assert header == "# analysis-operator h=12 m=9"


# ---------------------------------------------------------------------------
# cosparse_code

def test_code_zero_lambda_returns_signal_exactly():
    op = learn.init_operator(20, 15, seed=2)
    y = np.random.default_rng(3).standard_normal(15)
    state = learn.cosparse_code(op, y, learn.TrainConfig(lam=0.0))
    np.testing.assert_array_equal(state.x, y)
    assert state.primal_residual == 0.0


def test_code_identity_operator_matches_prox():
    rng = np.random.default_rng(5)
    op = learn.AnalysisOperator(np.eye(49))
    cfg = learn.TrainConfig(lam=0.3, admm_tol=1e-10, max_admm_iters=5000)
    for _ in range(5):
        y = rng.standard_normal(49)
        state = learn.cosparse_code(op, y, cfg)
        np.testing.assert_allclose(state.x, soft_threshold(y, 0.3), atol=1e-6)


def test_code_matches_direct_solve_oracle():
    rng = np.random.default_rng(6)
    op = learn.init_operator(64, 49, seed=8)
    for lam in (0.01, 0.1, 1.0):
        y = rng.standard_normal(49)
        cfg = learn.TrainConfig(lam=lam, admm_tol=1e-8, max_admm_iters=2000)
        state = learn.cosparse_code(op, y, cfg)
        x_ref = admm_direct_oracle(op.matrix, y, lam, cfg.mu, 2000, 1e-8)
        f_mine = _objective(op.matrix, state.x, y, lam)
        f_ref = _objective(op.matrix, x_ref, y, lam)
        assert abs(f_mine - f_ref) <= 1e-5 * abs(f_ref)


def test_code_never_worse_than_trivial_point():
    rng = np.random.default_rng(7)
    op = learn.init_operator(30, 21, seed=9)
    cfg = learn.TrainConfig(lam=0.2)
    for _ in range(10):
        y = rng.standard_normal(21)
        state = learn.cosparse_code(op, y, cfg)
        assert (_objective(op.matrix, state.x, y, cfg.lam)
                <= _objective(op.matrix, y, y, cfg.lam) + 1e-8)


def test_code_residual_below_tol_on_early_exit():
    op = learn.init_operator(24, 16, seed=10)
    cfg = learn.TrainConfig(lam=0.05)
    y = np.random.default_rng(11).standard_normal(16)
    state = learn.cosparse_code(op, y, cfg)
    assert state.iterations_used < cfg.max_admm_iters
    assert state.primal_residual <= cfg.admm_tol
    assert state.v.shape == (24,)
    assert state.d.shape == (24,)


def test_code_rejects_wrong_length():
    op = learn.init_operator(8, 6, seed=0)
    with pytest.raises(ValueError):
        learn.cosparse_code(op, np.zeros(5), learn.TrainConfig())


def test_code_numerical_failure_reports_iteration():
    # mu overflows A = I + mu W^T W, whose inverse is still finite junk.
    op = learn.init_operator(8, 6, seed=0)
    cfg = learn.TrainConfig(lam=1.0, mu=1e308)
    for code, signal in ((learn.cosparse_code, np.ones(6)),
                         (learn.cosparse_code_many, np.ones((6, 3)))):
        with pytest.raises(learn.NumericalFailure) as err:
            code(op, signal, cfg)
        assert err.value.iteration == 1


def test_batch_coding_agrees_with_single():
    rng = np.random.default_rng(12)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    Y = rng.standard_normal((16, 7))
    X, V, D, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    for i in range(7):
        state = learn.cosparse_code(op, Y[:, i], cfg)
        np.testing.assert_allclose(X[:, i], state.x, atol=1e-8)
        assert iters[i] == state.iterations_used


def test_batch_columns_capped_at_max_iters_keep_last_residual():
    rng = np.random.default_rng(21)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1, max_admm_iters=3)
    Y = rng.standard_normal((16, 9))
    X, V, D, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    np.testing.assert_array_equal(iters, 3)
    assert np.all(resid > cfg.admm_tol)
    # The reported residual is that of the returned (x, v), the last iterate.
    np.testing.assert_allclose(
        resid, np.linalg.norm(op.matrix @ X - V, axis=0), rtol=1e-12)

    # The same holds for columns that converge: each x is formed when its
    # column retires, from that iteration's state, not a later one's.
    cfg = learn.TrainConfig(lam=0.1)
    X, V, D, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    assert np.all(resid <= cfg.admm_tol) and np.all(iters < cfg.max_admm_iters)
    np.testing.assert_allclose(
        resid, np.linalg.norm(op.matrix @ X - V, axis=0), rtol=0, atol=1e-12)


def test_batch_iteration_counts_match_single_column_solves():
    rng = np.random.default_rng(22)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    # Scaled columns converge after different numbers of iterations.
    Y = rng.standard_normal((16, 12)) * np.geomspace(0.2, 5.0, 12)
    X, V, D, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    assert len(np.unique(iters)) >= 4
    assert np.all(resid <= cfg.admm_tol)
    for i in range(Y.shape[1]):
        state = learn.cosparse_code(op, Y[:, i], cfg)
        assert iters[i] == state.iterations_used
        assert resid[i] == pytest.approx(state.primal_residual, rel=1e-6, abs=1e-12)
        np.testing.assert_allclose(X[:, i], state.x, atol=1e-10)


def test_warm_start_from_converged_state_retires_at_once():
    """Coding again from a converged call's own (V, D) retires every column
    within 2 iterations, at the cold result's objective."""
    rng = np.random.default_rng(24)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    # At this scale no column stops on its first iterations. A column whose
    # every |W y| exceeds lam/mu can, with a zero primal residual but off
    # the optimum, and a warm restart then lowers its objective.
    Y = 0.5 * rng.standard_normal((16, 12))
    X, V, D, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    assert iters.min() > 2
    Xw, _, _, resid_w, iters_w = learn.cosparse_code_many(op, Y, cfg,
                                                          start=(V, D))
    assert iters_w.max() <= 2
    assert np.all(resid_w <= cfg.admm_tol)
    for i in range(Y.shape[1]):
        cold = _objective(op.matrix, X[:, i], Y[:, i], cfg.lam)
        warm = _objective(op.matrix, Xw[:, i], Y[:, i], cfg.lam)
        assert warm == pytest.approx(cold, rel=1e-5)


@pytest.mark.parametrize("bad", ["shape", "nan", "inf"])
def test_warm_start_rejects_bad_start(bad):
    op = learn.init_operator(20, 16, seed=13)
    Y = np.random.default_rng(25).standard_normal((16, 4))
    V, D = np.zeros((20, 4)), np.zeros((20, 4))
    if bad == "shape":
        D = np.zeros((20, 3))
    else:
        V[3, 1] = np.nan if bad == "nan" else np.inf
    with pytest.raises(ValueError, match="start"):
        learn.cosparse_code_many(op, Y, learn.TrainConfig(), start=(V, D))


def test_batch_nan_residual_retires_column(monkeypatch):
    """A NaN residual retires its column, as a residual within tolerance
    does; the other columns are coded as without it."""
    rng = np.random.default_rng(23)
    op = learn.init_operator(20, 16, seed=13)
    cfg = learn.TrainConfig(lam=0.1)
    Y = rng.standard_normal((16, 5))
    _, _, _, ref_resid, ref_iters = learn.cosparse_code_many(op, Y, cfg)

    soft_threshold = learn.soft_threshold
    calls = []

    def nan_in_first_column_once(v, tau):
        out = soft_threshold(v, tau)
        if not calls:
            out[:, 0] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(learn, "soft_threshold", nan_in_first_column_once)
    _, _, _, resid, iters = learn.cosparse_code_many(op, Y, cfg)
    assert iters[0] == 1 and np.isnan(resid[0])
    np.testing.assert_array_equal(iters[1:], ref_iters[1:])
    np.testing.assert_allclose(resid[1:], ref_resid[1:], rtol=1e-9)


# ---------------------------------------------------------------------------
# update_row

def _row_objective(row, Y_J):
    return float(np.sum((row @ Y_J) ** 2))


def test_update_row_exact_orthogonal_complement():
    # training columns along e1 only; coded signals make row 0's J the full set
    Y = np.array([[1.0, 2.0, -1.5], [0.0, 0.0, 0.0]])
    X = np.zeros((2, 3))
    op = learn.AnalysisOperator(np.array([[1.0, 0.0], [0.0, 1.0]]))
    row = learn.update_row(op, 0, Y, X, learn.TrainConfig())
    np.testing.assert_allclose(np.abs(row), [0.0, 1.0], atol=1e-10)


def test_update_row_smallest_eigendirection():
    Y = np.array([[2.0, 0.0], [0.0, 1.0]])  # gram diag(4, 1)
    X = np.zeros((2, 2))
    op = learn.AnalysisOperator(np.eye(2))
    row = learn.update_row(op, 1, Y, X, learn.TrainConfig())
    np.testing.assert_allclose(np.abs(row), [0.0, 1.0], atol=1e-10)


def test_update_row_beats_random_search():
    rng = np.random.default_rng(21)
    m = 49
    Y = rng.standard_normal((m, 30))
    X = np.zeros((m, 30))  # forces J = all columns
    op = learn.init_operator(64, m, seed=22)
    cfg = learn.TrainConfig()
    row = learn.update_row(op, 3, Y, X, cfg)
    assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-10)
    best = _row_objective(row, Y)
    R = rng.standard_normal((10_000, m))
    R /= np.linalg.norm(R, axis=1, keepdims=True)
    random_best = np.sum((R @ Y) ** 2, axis=1).min()
    assert best <= random_best + 1e-10


def test_update_row_improves_on_previous_row():
    rng = np.random.default_rng(23)
    op = learn.init_operator(16, 12, seed=24)
    Y = rng.standard_normal((12, 40))
    cfg = learn.TrainConfig(cosupport_tol=0.5)
    X = rng.standard_normal((12, 40)) * 0.3
    j = 5
    scores = op.matrix[j] @ X
    J = np.flatnonzero(np.abs(scores) <= cfg.cosupport_tol)
    assert J.size > 0
    row = learn.update_row(op, j, Y, X, cfg)
    assert _row_objective(row, Y[:, J]) <= _row_objective(op.matrix[j], Y[:, J]) + 1e-12


def test_update_row_empty_set_returns_none():
    op = learn.init_operator(6, 4, seed=25)
    Y = np.ones((4, 8))
    X = np.ones((4, 8)) * 100  # no scores near zero
    assert learn.update_row(op, 2, Y, X, learn.TrainConfig(cosupport_tol=1e-12)) is None


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
        S = gram(Y[:, J])
        lam, vec = sym_eig_smallest(S)
        assert np.linalg.norm(S @ vec - lam * vec) <= 1e-12 * np.linalg.norm(S)


def test_update_row_rejects_bad_index():
    op = learn.init_operator(6, 4, seed=26)
    with pytest.raises(ValueError):
        learn.update_row(op, 6, np.zeros((4, 8)), np.zeros((4, 8)),
                         learn.TrainConfig())


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


def test_train_counts_empty_set_reinitialisations():
    # No coded column is within 1e-300 of any row's hyperplane, so every
    # row's orthogonal set is empty and train re-initialises all 33.
    Y = _small_planted_problem()
    cfg = learn.TrainConfig(lam=0.05, sweeps=1, max_admm_iters=100, seed=41,
                            cosupport_tol=1e-300)
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


def test_train_rejects_too_few_signals():
    with pytest.raises(ValueError):
        learn.train(np.zeros((16, 10)), learn.TrainConfig(), h=24)
