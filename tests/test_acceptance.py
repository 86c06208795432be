"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a PASS/FAIL line (run with ``pytest -s`` to see them
as they complete; the terminal summary repeats them under "acceptance
figures"). The heavyweight fixtures (trained operator, sweep CSV)
are shared across criteria via session/module scope.
"""

import time

import numpy as np
import pytest

from conftest import (ACCEPTANCE_LINES, make_planted_clusters, make_scene,
                      make_texture)
from cosfuse import imageio, metrics
from cosfuse.cli import EXIT_OK, main
from cosfuse.fuse import FusionConfig, fuse
from cosfuse.learn import (TrainConfig, cosparse_code_many, init_operator, train,
                           update_row)
from cosfuse.linalg import soft_threshold
from cosfuse.patches import build_grid, extract_matrix, overlap_add_matrix


def _report(label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] {label}: {status}" + (f"  ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"{label}: {detail}"


def _objective(W, x, y, lam):
    return 0.5 * float(np.sum((x - y) ** 2)) + lam * float(np.abs(W @ x).sum())


# ---------------------------------------------------------------------------
# 1. solver-oracle equivalence

def test_criterion_1_solver_oracle_equivalence():
    t_start = time.perf_counter()
    lams = (0.01, 0.1, 1.0)
    worst = 0.0
    for trial in range(50):
        op = init_operator(64, 49, seed=1000 + trial)
        rng = np.random.default_rng(2000 + trial)
        y = rng.standard_normal(49)
        lam = lams[trial % 3]
        cfg = TrainConfig(lam=lam, admm_tol=1e-8, max_admm_iters=2000)
        X, _, _, _, _ = cosparse_code_many(op, y[:, None], cfg)
        # oracle: ADMM with an exact x-update by direct elimination
        W = op.matrix
        A = np.eye(49) + cfg.mu * (W.T @ W)
        A_inv = np.linalg.inv(A)
        x = y.copy()
        v = W @ x
        d = np.zeros(64)
        for _ in range(2000):
            x = A_inv @ (y + cfg.mu * (W.T @ (v + d)))
            Wx = W @ x
            shift = Wx - d
            v = np.sign(shift) * np.maximum(np.abs(shift) - lam / cfg.mu, 0.0)
            d = d - (Wx - v)
            if np.linalg.norm(Wx - v) <= 1e-8:
                break
        f_mine = _objective(W, X[:, 0], y, lam)
        f_ref = _objective(W, x, y, lam)
        worst = max(worst, abs(f_mine - f_ref) / abs(f_ref))
    elapsed = time.perf_counter() - t_start
    _report("criterion 1 (solver-oracle equivalence)",
            worst <= 1e-5 and elapsed < 60.0,
            f"max rel diff {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. prox identity

def test_criterion_2_prox_identity():
    from cosfuse.learn import AnalysisOperator
    op = AnalysisOperator(np.eye(49))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        y = rng.standard_normal(49) * 2.0
        lam = float(rng.uniform(0.05, 0.8))
        cfg = TrainConfig(lam=lam, admm_tol=1e-10, max_admm_iters=5000)
        X, _, _, _, _ = cosparse_code_many(op, y[:, None], cfg)
        worst = max(worst, np.abs(X[:, 0] - soft_threshold(y, lam)).max())
    _report("criterion 2 (prox identity)", worst <= 1e-6,
            f"max linf err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. row-update optimality

def test_criterion_3_row_update_beats_random_search():
    rng = np.random.default_rng(7)
    worst_excess = -np.inf
    for trial in range(20):
        n_cols = int(rng.integers(25, 120))
        Y = rng.standard_normal((49, n_cols))
        op = init_operator(64, 49, seed=3000 + trial)
        X = np.zeros((49, n_cols))  # zero scores: J is the full column set
        row = update_row(op, int(rng.integers(64)), Y, X, TrainConfig())
        row_obj = float(np.sum((row @ Y) ** 2))
        R = rng.standard_normal((100_000, 49))
        R /= np.linalg.norm(R, axis=1, keepdims=True)
        rand_best = float(np.sum((R @ Y) ** 2, axis=1).min())
        worst_excess = max(worst_excess, row_obj - rand_best)
    _report("criterion 3 (row-update optimality)", worst_excess <= 1e-10,
            f"worst excess over 1e5 random rows {worst_excess:.2e}")


# ---------------------------------------------------------------------------
# 4. planted-operator training

def test_criterion_4_planted_operator_training():
    t_start = time.perf_counter()
    planted = init_operator(64, 49, seed=3)
    Y = make_planted_clusters(planted.matrix, n_signals=500,
                              cosupport_size=44, n_clusters=12, seed=4)
    cfg = TrainConfig(lam=0.05, sweeps=20, seed=5)
    _, report = train(Y, cfg, h=64)
    elapsed = time.perf_counter() - t_start
    obj = report.objective_per_sweep
    cosp = report.mean_cosparsity_per_sweep
    ratio = obj[-1] / obj[0]
    gain = cosp[-1] - cosp[0]
    _report("criterion 4 (planted-operator training)",
            ratio < 0.25 and gain >= 5.0 and elapsed < 600.0,
            f"objective ratio {ratio:.3f}, cosparsity gain {gain:.1f}, "
            f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. fusion correctness on a synthetic pair

def test_criterion_5_synthetic_fusion(trained_operator, texture_128):
    a, b = imageio.synth_multifocus(texture_128, 2.0, split=64)
    cfg = FusionConfig(lambda_local=0.01)
    result = fuse([a, b], trained_operator, cfg)
    p_fused = metrics.psnr(result.fused, texture_128)
    p_best = max(metrics.psnr(a, texture_128), metrics.psnr(b, texture_128))
    grid = build_grid(128, 128, 7, 1)
    centers = np.array(grid.col_offsets) + 3.0
    expected = (centers >= 64).astype(int)
    seam = np.abs(centers - 64) <= 7
    ok = total = 0
    for j in range(grid.grid_cols):
        if seam[j]:
            continue
        ok += int(np.sum(result.winner_map[:, j] == expected[j]))
        total += grid.grid_rows
    accuracy = ok / total
    _report("criterion 5 (synthetic-pair fusion)",
            p_fused >= p_best + 1.0 and accuracy >= 0.9,
            f"psnr gain {p_fused - p_best:.2f} dB, winner accuracy "
            f"{100 * accuracy:.1f}%")


# ---------------------------------------------------------------------------
# 6. noisy fusion vs naive average

def test_criterion_6_noisy_fusion_beats_average(trained_operator, texture_128):
    a0, b0 = imageio.synth_multifocus(texture_128, 2.0, split=64)
    a = imageio.add_gaussian_noise(a0, 15.0, seed=(9, 0))
    b = imageio.add_gaussian_noise(b0, 15.0, seed=(9, 1))
    naive = np.clip((a + b) / 2.0, 0.0, 255.0)
    cfg = FusionConfig(lambda_local=0.05, overlap=4)
    result = fuse([a, b], trained_operator, cfg)
    margin = metrics.psnr(result.fused, texture_128) - metrics.psnr(naive, texture_128)
    _report("criterion 6 (noisy fusion vs naive average)", margin >= 1.0,
            f"margin {margin:.2f} dB")


# ---------------------------------------------------------------------------
# 7. metric trends over the sweep

@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    truth_path = root / "truth.pgm"
    imageio.save_pgm(truth_path, make_scene(128, 128, seed=0))
    csv_path = root / "sweep.csv"
    rc = main([
        "sweep", "--truth", str(truth_path), "--out", str(csv_path),
        "--train-patches", "600", "--train-sweeps", "2",
        "--max-admm-iters", "400", "--sigma-b", "1.5", "--seed", "3",
    ])
    assert rc == EXIT_OK
    rows = {}
    for line in csv_path.read_text().strip().splitlines()[1:]:
        n, sigma, qmi, qabf, psnr_db = line.split(",")
        rows[(int(n), int(sigma))] = (float(qmi), float(qabf), float(psnr_db))
    return rows


def _trend_ok(values, slack=0.005):
    """Non-increasing, allowing at most one inversion of at most ``slack``."""
    diffs = np.diff(values)
    ups = diffs[diffs > 0]
    return len(ups) <= 1 and (len(ups) == 0 or ups[0] <= slack)


def test_criterion_7_metric_trends(sweep_rows):
    sigmas = (0, 5, 10, 15, 20)
    qmi_7 = [sweep_rows[(7, s)][0] for s in sigmas]
    qabf_7 = [sweep_rows[(7, s)][1] for s in sigmas]
    qabf_n0 = {n: sweep_rows[(n, 0)][1] for n in (5, 6, 7, 8, 9)}
    gap = max(qabf_n0.values()) - qabf_n0[7]
    ok = _trend_ok(qmi_7) and _trend_ok(qabf_7) and gap <= 0.01
    _report("criterion 7 (metric trends)", ok,
            f"qmi(7,:)={['%.4f' % v for v in qmi_7]}, "
            f"qabf(7,:)={['%.4f' % v for v in qabf_7]}, "
            f"sigma0 qabf max-vs-n7 gap {gap:.4f}")


# ---------------------------------------------------------------------------
# 8. metric unit checks

def test_criterion_8_metric_units():
    rng = np.random.default_rng(77)
    A = rng.uniform(0, 255, (16, 16))
    ok_identity = (abs(metrics.q_abf(A, A, A) - 1.0) <= 1e-9
                   and abs(metrics.q_mi(A, A, A) - 1.0) <= 1e-12)
    in_bounds = True
    for _ in range(10_000):
        a, b, f = (rng.uniform(0, 255, (6, 6)) for _ in range(3))
        qm = metrics.q_mi(a, b, f)
        qa = metrics.q_abf(a, b, f)
        if not (0.0 <= qm <= 1.0 and 0.0 <= qa <= 1.0):
            in_bounds = False
            break
    _report("criterion 8 (metric unit tests)", ok_identity and in_bounds,
            f"identity ok {ok_identity}, bounds ok {in_bounds}")


# ---------------------------------------------------------------------------
# 9. determinism of the CLI

def test_criterion_9_cli_determinism(tmp_path):
    imgdir = tmp_path / "imgs"
    imgdir.mkdir()
    imageio.save_pgm(imgdir / "t.pgm", make_texture(64, 64, seed=5))
    truth = tmp_path / "truth.pgm"
    imageio.save_pgm(truth, make_texture(64, 64, seed=5))

    op_files = []
    for name, threads in (("op1.txt", "1"), ("op2.txt", "1"), ("op8.txt", "8")):
        out = tmp_path / name
        rc = main(["train", "--images", str(imgdir), "--out", str(out),
                   "--h", "64", "--m", "49", "--patches", "200",
                   "--sweeps", "1", "--max-admm-iters", "100",
                   "--seed", "3", "--threads", threads])
        assert rc == EXIT_OK
        op_files.append(out.read_bytes())
    train_ok = op_files[0] == op_files[1] == op_files[2]

    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    rc = main(["synth", "--truth", str(truth), "--sigma-b", "2.0",
               "--out-truth", str(tmp_path / "st.pgm"),
               "--out-a", str(a), "--out-b", str(b)])
    assert rc == EXIT_OK
    fused = []
    for name, threads in (("f1", "1"), ("f2", "1"), ("f8", "8")):
        out = tmp_path / f"{name}.pgm"
        rc = main(["fuse", "--inputs", str(a), str(b),
                   "--op", str(tmp_path / "op1.txt"), "--out", str(out),
                   "--sigma", "10", "--seed", "9", "--threads", threads,
                   "--max-admm-iters", "150"])
        assert rc == EXIT_OK
        blob = out.read_bytes()
        for suffix in ("_winners.txt", "_activity.txt", "_diag.txt"):
            blob += (tmp_path / f"{name}{suffix}").read_bytes()
        fused.append(blob)
    fuse_ok = fused[0] == fused[1] == fused[2]
    _report("criterion 9 (determinism)", train_ok and fuse_ok,
            f"train identical {train_ok}, fuse identical {fuse_ok}")


# ---------------------------------------------------------------------------
# 10. round trips

def test_criterion_10_round_trips():
    rng = np.random.default_rng(31)
    worst = 0.0
    for n in (5, 6, 7, 8, 9):
        for p in (0, 1, 2):
            img = rng.uniform(0, 255, (29, 37))
            grid = build_grid(37, 29, n, p)
            out = overlap_add_matrix(extract_matrix(img, grid), grid)
            worst = max(worst, float(np.abs(out - img).max()))
    patch_ok = worst <= 1e-12
    pgm_ok = True
    for _ in range(20):
        img = rng.integers(0, 256, size=(11, 17)).astype(float)
        if not np.array_equal(imageio.read_pgm(imageio.write_pgm(img)), img):
            pgm_ok = False
            break
    _report("criterion 10 (round trips)", patch_ok and pgm_ok,
            f"patch worst err {worst:.2e}, pgm exact {pgm_ok}")
