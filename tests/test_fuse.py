"""Tests for the fusion pipeline."""

import dataclasses

import numpy as np
import pytest

import cosfuse.fuse as fuse_module
from conftest import make_texture
from cosfuse import imageio, learn, metrics
from cosfuse.fuse import (
    FusionConfig,
    activity,
    fuse,
    local_fuse,
)
from cosfuse.patches import build_grid, extract_matrix


def _sharp_side_stats(winner_map, grid, split, patch_size):
    """Fraction of cells (outside a one-patch seam band) whose winner is the
    image that is sharp at that cell's columns."""
    centers = np.array(grid.col_offsets) + (patch_size - 1) / 2.0
    expected = (centers >= split).astype(int)
    seam = np.abs(centers - split) <= patch_size
    ok = total = 0
    for j in range(grid.grid_cols):
        if seam[j]:
            continue
        ok += int(np.sum(winner_map[:, j] == expected[j]))
        total += grid.grid_rows
    return ok / total


# ---------------------------------------------------------------------------
# activity

def test_activity_constant_patch_is_zero(random_operator):
    assert activity(random_operator, np.full(49, 9.25)) == 0.0


def test_activity_matches_direct_loop(random_operator):
    data = np.random.default_rng(0).uniform(0, 1, 49)
    centered = data - data.mean()
    expected = sum(abs(float(row @ centered)) for row in random_operator.matrix)
    assert activity(random_operator, data) == pytest.approx(expected, rel=1e-12)


def test_activity_sharp_exceeds_blurred(trained_operator, texture_128):
    blurred = imageio.gaussian_blur(texture_128, 2.0)
    grid = build_grid(128, 128, 7, 1)
    sharp_patches = extract_matrix(texture_128 / 255.0, grid)
    blur_patches = extract_matrix(blurred / 255.0, grid)
    wins = 0
    for c in range(grid.cell_count):
        a_sharp = activity(trained_operator, sharp_patches[:, c])
        a_blur = activity(trained_operator, blur_patches[:, c])
        wins += int(a_sharp > a_blur)
    assert wins / grid.cell_count > 0.95


def test_activity_scale_covariance(random_operator):
    rng = np.random.default_rng(1)
    patch = rng.standard_normal(49)
    patch -= patch.mean()
    base = activity(random_operator, patch)
    assert activity(random_operator, 3.5 * patch) == pytest.approx(3.5 * base, rel=1e-10)


def test_activity_rejects_wrong_length(random_operator):
    with pytest.raises(ValueError):
        activity(random_operator, np.zeros(48))


# ---------------------------------------------------------------------------
# local_fuse

def test_local_fuse_identity_on_identical_clean_inputs(trained_operator, texture_128):
    cfg = FusionConfig(lambda_local=0.0)
    result = local_fuse(trained_operator, [texture_128, texture_128], cfg)
    assert np.abs(result.fused - texture_128).max() < 1e-8
    assert result.winner_map.shape == (22, 22)
    # Every cell is a tie, and ties go to the smallest source index.
    assert np.all(result.winner_map == 0)


def test_select_patch_tie_breaks_to_smallest_index(random_operator):
    # Patch selection lives in local_fuse: three identical textured sources
    # give equal, nonzero activities in every cell, and source 0 wins each.
    image = np.random.default_rng(3).uniform(0, 255, (25, 25))
    result = local_fuse(random_operator, [image.copy() for _ in range(3)],
                        FusionConfig())
    acts = result.activity
    assert acts.shape == (4, 4, 3)
    assert np.all(acts[..., 0] > 0.0)
    assert np.array_equal(acts[..., 0], acts[..., 1])
    assert np.array_equal(acts[..., 0], acts[..., 2])
    assert np.all(result.winner_map == 0)


def test_local_fuse_winner_map_matches_activity_oracle(trained_operator, texture_128):
    a, b = imageio.synth_multifocus(texture_128, 2.0, split=64)
    cfg = FusionConfig()
    result = local_fuse(trained_operator, [a, b], cfg)
    grid = build_grid(128, 128, 7, 1)
    # independent per-cell activity comparison
    pa = extract_matrix(a / 255.0, grid)
    pb = extract_matrix(b / 255.0, grid)
    for c in range(grid.cell_count):
        act_a = activity(trained_operator, pa[:, c])
        act_b = activity(trained_operator, pb[:, c])
        expected = 0 if act_a >= act_b else 1
        i, j = divmod(c, grid.grid_cols)
        assert result.winner_map[i, j] == expected
    # and the sharp side wins away from the seam
    assert _sharp_side_stats(result.winner_map, grid, 64, 7) >= 0.9


def test_local_fuse_denoises_identical_noisy_inputs(trained_operator, cartoon_128):
    # piecewise-smooth content is where the cosparse prior pays off
    noisy = imageio.add_gaussian_noise(cartoon_128, 15.0, seed=21)
    cfg = FusionConfig()  # default local sparsity weight
    estimate = local_fuse(trained_operator, [noisy, noisy], cfg).fused
    assert (metrics.psnr(np.clip(estimate, 0, 255), cartoon_128)
            > metrics.psnr(noisy, cartoon_128))


def test_local_fuse_rejects_bad_inputs(trained_operator, texture_128):
    cfg = FusionConfig()
    with pytest.raises(ValueError):
        local_fuse(trained_operator, [], cfg)
    with pytest.raises(ValueError):
        local_fuse(trained_operator, [texture_128, texture_128[:64]], cfg)
    with pytest.raises(ValueError):
        local_fuse(trained_operator, [texture_128], FusionConfig(patch_size=8))


# ---------------------------------------------------------------------------
# fuse

def test_fuse_degenerate_single_input(trained_operator, texture_128):
    cfg = FusionConfig(lambda_local=0.0)
    result = fuse([texture_128], trained_operator, cfg)
    assert np.abs(result.fused - texture_128).max() < 1e-6
    assert set(np.unique(result.winner_map)) == {0}


def test_fuse_beats_both_inputs_on_half_blur_pair(trained_operator, texture_128):
    a, b = imageio.synth_multifocus(texture_128, 2.0, split=64)
    cfg = FusionConfig(lambda_local=0.01)
    result = fuse([a, b], trained_operator, cfg)
    p_fused = metrics.psnr(result.fused, texture_128)
    p_inputs = max(metrics.psnr(a, texture_128), metrics.psnr(b, texture_128))
    assert p_fused > p_inputs + 1.0


def test_fuse_permutation_invariance(trained_operator, texture_128):
    a, b = imageio.synth_multifocus(texture_128, 2.0, split=64)
    cfg = FusionConfig()
    res_ab = fuse([a, b], trained_operator, cfg)
    res_ba = fuse([b, a], trained_operator, cfg)
    np.testing.assert_array_equal(res_ab.fused, res_ba.fused)
    np.testing.assert_array_equal(res_ab.winner_map, 1 - res_ba.winner_map)


def test_fuse_output_range_and_diagnostics(trained_operator, texture_128):
    a, b = imageio.synth_multifocus(texture_128, 2.0, split=64)
    a = imageio.add_gaussian_noise(a, 20.0, seed=7)
    b = imageio.add_gaussian_noise(b, 20.0, seed=8)
    result = fuse([a, b], trained_operator, FusionConfig())
    assert result.fused.min() >= 0.0 and result.fused.max() <= 255.0
    assert result.activity.shape == (22, 22, 2)
    assert np.all((result.winner_map >= 0) & (result.winner_map < 2))
    for key in ("local_l1_mean", "local_l1_max", "admm_iters_total",
                "admm_iters_max", "admm_nonconverged"):
        assert key in result.diagnostics
    assert 1 <= result.diagnostics["admm_iters_max"] <= FusionConfig().max_admm_iters
    assert result.diagnostics["admm_nonconverged"] == 0


def test_fuse_reports_capped_admm_columns(trained_operator, texture_128):
    a, b = imageio.synth_multifocus(texture_128[:48, :48], 2.0, split=24)
    a = imageio.add_gaussian_noise(a, 15.0, seed=1)
    b = imageio.add_gaussian_noise(b, 15.0, seed=2)
    result = fuse([a, b], trained_operator, FusionConfig(max_admm_iters=1))
    diag = result.diagnostics
    assert diag["admm_iters_max"] == 1
    # The one coding call codes each cell once.
    assert 0 < diag["admm_nonconverged"] <= diag["cells"]


def test_fuse_counts_nan_residual_as_nonconverged(trained_operator, texture_128,
                                                  monkeypatch):
    """A column retired by a NaN residual is reported, not taken as converged."""
    a, b = imageio.synth_multifocus(texture_128[:48, :48], 2.0, split=24)
    clip_box = learn.clip_box
    calls = []

    def nan_in_first_column_once(v, tau):
        out = clip_box(v, tau)
        if not calls:
            out[:, 0] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(learn, "clip_box", nan_in_first_column_once)
    result = fuse([a, b], trained_operator, FusionConfig())
    assert result.diagnostics["admm_nonconverged"] == 1


def test_fuse_extracts_each_image_once(trained_operator, texture_128, monkeypatch):
    """Each input is extracted once, and all cells are coded in one
    ``cosparse_code_many`` call of ``cells`` columns."""
    calls = {"extract": [], "code": []}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fuse_module, "extract_matrix",
                        counted("extract", fuse_module.extract_matrix))
    monkeypatch.setattr(fuse_module, "cosparse_code_many",
                        counted("code", fuse_module.cosparse_code_many))
    a, b = imageio.synth_multifocus(texture_128[:48, :48], 2.0, split=24)
    a = imageio.add_gaussian_noise(a, 15.0, seed=1)
    b = imageio.add_gaussian_noise(b, 15.0, seed=2)
    result = fuse([a, b], trained_operator, FusionConfig(overlap=4))
    assert len(calls["extract"]) == 2
    assert [args[1].shape[1] for args in calls["code"]] == [result.diagnostics["cells"]]


def test_fuse_is_the_clamped_local_pass(trained_operator, texture_128):
    """``fuse`` is ``local_fuse`` plus the final clamp, bit for bit; its
    diagnostics are the local ones plus three zero ``global_*`` keys that
    the benchmark's checks still read."""
    a, b = imageio.synth_multifocus(texture_128[:48, :48], 2.0, split=24)
    noisy = [imageio.add_gaussian_noise(a, 40.0, seed=1),
             imageio.add_gaussian_noise(b, 40.0, seed=2)]
    cfg = FusionConfig(overlap=4)
    local = local_fuse(trained_operator, noisy, cfg)
    result = fuse(noisy, trained_operator, cfg)
    # At this noise level the local estimate leaves [0, 255], so the clamp acts.
    assert local.fused.min() < 0.0 or local.fused.max() > 255.0
    np.testing.assert_array_equal(result.fused, np.clip(local.fused, 0, 255))
    np.testing.assert_array_equal(result.winner_map, local.winner_map)
    np.testing.assert_array_equal(result.activity, local.activity)
    assert result.diagnostics == {
        **local.diagnostics,
        "global_rounds_run": 0.0,
        "global_objective_initial": 0.0,
        "global_objective_final": 0.0,
    }


def test_fuse_paper_protocol_runs_to_completion(trained_operator):
    # 7x7 patches with overlap 1, 64x49 operator, 256x256 pair
    truth = make_texture(256, 256, seed=4)
    a, b = imageio.synth_multifocus(truth, 2.0, split=128)
    cfg = FusionConfig(patch_size=7, overlap=1, max_admm_iters=1000)
    result = fuse([a, b], trained_operator, cfg)
    assert result.fused.shape == (256, 256)
    assert np.all(np.isfinite(result.fused))
    assert metrics.psnr(result.fused, truth) > max(
        metrics.psnr(a, truth), metrics.psnr(b, truth))


# One changed value per FusionConfig field; each must change the fused image.
_CHANGED_FIELD_VALUES = {
    "lambda_local": 0.1,
    "patch_size": 5,
    "overlap": 2,
    "mu": 2.0,
    "admm_tol": 1e-3,
    "max_admm_iters": 5,
}


def test_every_fusion_config_field_changes_the_output(texture_128):
    assert (sorted(_CHANGED_FIELD_VALUES)
            == sorted(f.name for f in dataclasses.fields(FusionConfig)))
    a, b = imageio.synth_multifocus(texture_128[:48, :48], 2.0, split=24)
    noisy = [imageio.add_gaussian_noise(a, 15.0, seed=1),
             imageio.add_gaussian_noise(b, 15.0, seed=2)]
    operators = {7: learn.init_operator(64, 49, 11), 5: learn.init_operator(33, 25, 11)}
    default = FusionConfig()
    baseline = fuse(noisy, operators[default.patch_size], default).fused
    for name, value in _CHANGED_FIELD_VALUES.items():
        cfg = dataclasses.replace(default, **{name: value})
        changed = fuse(noisy, operators[cfg.patch_size], cfg).fused
        assert not np.array_equal(changed, baseline), name


def test_fuse_submodule_is_the_package_attribute():
    """``import cosfuse.fuse`` binds the submodule, not the fuse() function."""
    assert fuse_module.cosparse_code_many is learn.cosparse_code_many
    assert fuse_module.fuse is fuse
