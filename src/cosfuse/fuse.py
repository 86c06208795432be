"""Multi-focus fusion with a learned analysis operator.

The pipeline works on a shared sliding-window grid over the input images
(pixel values are scaled to [0, 1] internally and patch means are removed
before any operator is applied, matching the training preprocessing):

1. activity ranking: per grid cell, every candidate patch is scored by the
   l1 norm of its analyzed (mean-subtracted) content; the highest-activity
   candidate wins, ties going to the lowest source index.
2. local estimation: each winner patch is denoised by the same ADMM coding
   solve the learner uses, with the local sparsity weight; patch means are
   restored afterwards and the results are overlap-added into the initial
   fused estimate.
3. global reconstruction: a few outer rounds trade data fidelity against
   the summed analyzed l1 norm of all patches. Each round codes the patches
   of the current estimate, overlap-adds, and blends the result with the
   initial estimate; a round is only accepted if it does not increase the
   objective, so the final estimate never scores worse than the initial one.

Output pixels are clamped to [0, 255] at the very end only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .learn import TrainConfig, cosparse_code_many
from .linalg import spectral_norm_sq  # unused; bench/tracing.py wraps this attribute
from .patches import Patch, build_grid, extract_matrix, overlap_add_matrix

__all__ = [
    "FusionConfig",
    "FusionResult",
    "activity",
    "select_patch",
    "local_fuse",
    "global_reconstruct",
    "fuse",
    "winner_map_text",
    "activity_text",
    "diagnostics_text",
]

_PIXEL_SCALE = 255.0


@dataclass
class FusionConfig:
    """Hyperparameters of the fusion pipeline."""

    epsilon: float = 0.1
    lambda_local: float = 0.05
    lambda_global: float = 0.02
    patch_size: int = 7
    overlap: int = 1
    mu: float = 1.0
    admm_tol: float = 1e-6
    max_admm_iters: int = 1000
    global_rounds: int = 3

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.lambda_local < 0 or self.lambda_global < 0:
            raise ValueError("sparsity weights must be nonnegative")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.admm_tol <= 0:
            raise ValueError("admm_tol must be positive")
        if self.max_admm_iters < 1:
            raise ValueError("max_admm_iters must be at least 1")
        if not 0 <= self.overlap < self.patch_size:
            raise ValueError(
                f"overlap must satisfy 0 <= p < n, got p={self.overlap}, "
                f"n={self.patch_size}"
            )
        if self.global_rounds < 0:
            raise ValueError("global_rounds must be nonnegative")

    def _coding_config(self, lam):
        return TrainConfig(
            lam=lam,
            mu=self.mu,
            max_admm_iters=self.max_admm_iters,
            admm_tol=self.admm_tol,
        )


@dataclass
class FusionResult:
    """Fused image plus the provenance of every fused patch."""

    fused: np.ndarray
    winner_map: np.ndarray
    activity: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _patch_data(patch):
    data = patch.data if isinstance(patch, Patch) else patch
    return np.asarray(data, dtype=np.float64)


def activity(op, patch):
    """l1 norm of the analyzed, mean-subtracted patch."""
    data = _patch_data(patch)
    if data.ndim != 1 or data.size != op.m:
        raise ValueError(f"patch must have length {op.m}, got shape {data.shape}")
    return float(np.abs(op.matrix @ (data - data.mean())).sum())


def select_patch(op, candidates):
    """Pick the highest-activity candidate; ties go to the smallest index.

    Returns (winner index, activity array).
    """
    if len(candidates) == 0:
        raise ValueError("need at least one candidate patch")
    data = [_patch_data(c) for c in candidates]
    if len({d.size for d in data}) != 1:
        raise ValueError("candidate patches must all have the same length")
    activities = np.array([activity(op, d) for d in data])
    return int(np.argmax(activities)), activities


def _check_images(images):
    if len(images) == 0:
        raise ValueError("need at least one input image")
    arrays = [np.asarray(img, dtype=np.float64) for img in images]
    shape = arrays[0].shape
    for k, arr in enumerate(arrays):
        if arr.ndim != 2:
            raise ValueError(f"input {k} is not a 2-d image")
        if arr.shape != shape:
            raise ValueError(
                f"input {k} has shape {arr.shape}, expected {shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"input {k} contains non-finite pixels")
    return arrays


def _grid_for(op, shape, cfg):
    if op.m != cfg.patch_size ** 2:
        raise ValueError(
            f"operator signal dimension {op.m} does not match patch size "
            f"{cfg.patch_size}x{cfg.patch_size}"
        )
    return build_grid(shape[1], shape[0], cfg.patch_size, cfg.overlap)


def local_fuse(op, images, cfg):
    """Select and denoise the winner patch per grid cell.

    Returns (initial fused estimate, FusionResult carrying the winner map,
    the per-cell activities, and local-stage diagnostics). The estimate is
    not clamped.
    """
    arrays = _check_images(images)
    grid = _grid_for(op, arrays[0].shape, cfg)
    W = op.matrix
    n_cells = grid.cell_count

    candidates = [extract_matrix(img / _PIXEL_SCALE, grid) for img in arrays]
    acts = np.stack([
        np.abs(W @ (P - P.mean(axis=0))).sum(axis=0) for P in candidates
    ])  # (K, cells)
    winner = acts.argmax(axis=0)  # first max wins, i.e. smallest k

    P_win = np.empty_like(candidates[0])
    for k in range(len(candidates)):
        mask = winner == k
        P_win[:, mask] = candidates[k][:, mask]
    means = P_win.mean(axis=0)

    X, _, _, _, _ = cosparse_code_many(
        op, P_win - means, cfg._coding_config(cfg.lambda_local),
    )
    estimate = overlap_add_matrix(X + means, grid) * _PIXEL_SCALE

    patch_l1 = np.abs(W @ X).sum(axis=0)
    violations = int(np.sum(patch_l1 > cfg.epsilon))
    result = FusionResult(
        fused=estimate.copy(),
        winner_map=winner.reshape(grid.grid_rows, grid.grid_cols),
        activity=acts.T.reshape(grid.grid_rows, grid.grid_cols, len(candidates)),
        diagnostics={
            "cells": float(n_cells),
            "local_l1_mean": float(patch_l1.mean()),
            "local_l1_max": float(patch_l1.max()),
            "eps_budget": float(cfg.epsilon),
            "eps_violations": float(violations),
        },
    )
    return estimate, result


def _patchwise_l1(W, image_norm, grid):
    P = extract_matrix(image_norm, grid)
    return float(np.abs(W @ (P - P.mean(axis=0))).sum())


def _global_impl(op, initial, cfg):
    if cfg.lambda_global == 0 or cfg.global_rounds == 0:
        return initial.copy(), {
            "global_rounds_run": 0.0,
            "global_objective_initial": 0.0,
            "global_objective_final": 0.0,
        }
    grid = _grid_for(op, initial.shape, cfg)
    W = op.matrix
    lam = cfg.lambda_global
    I0 = initial / _PIXEL_SCALE

    def objective(img):
        return float(np.sum((img - I0) ** 2)) + lam * _patchwise_l1(W, img, grid)

    coding_cfg = cfg._coding_config(lam)
    blend = 1.0 / (1.0 + lam)
    best = I0
    best_obj = objective(I0)
    initial_obj = best_obj
    current = I0
    rounds_run = 0
    for _ in range(cfg.global_rounds):
        P = extract_matrix(current, grid)
        means = P.mean(axis=0)
        X, _, _, _, _ = cosparse_code_many(op, P - means, coding_cfg)
        smoothed = overlap_add_matrix(X + means, grid)
        candidate = blend * I0 + (1.0 - blend) * smoothed
        cand_obj = objective(candidate)
        if cand_obj > best_obj:
            break
        best, best_obj = candidate, cand_obj
        current = candidate
        rounds_run += 1
    diag = {
        "global_rounds_run": float(rounds_run),
        "global_objective_initial": initial_obj,
        "global_objective_final": best_obj,
    }
    return best * _PIXEL_SCALE, diag


def global_reconstruct(op, initial, cfg):
    """Analysis-regularized refinement of an initial fused estimate.

    With a zero global sparsity weight the input is returned unchanged.
    Otherwise the returned image never has a larger objective (data fidelity
    plus weighted patchwise analyzed l1 norm) than the input.
    """
    initial = np.asarray(initial, dtype=np.float64)
    if initial.ndim != 2:
        raise ValueError("initial estimate must be a 2-d image")
    out, _ = _global_impl(op, initial, cfg)
    return out


def fuse(images, op, cfg):
    """Full fusion pipeline: local selection and denoising, then global
    reconstruction, then a final clamp to [0, 255]."""
    estimate, result = local_fuse(op, images, cfg)
    refined, gdiag = _global_impl(op, estimate, cfg)
    result.diagnostics.update(gdiag)
    result.fused = np.clip(refined, 0.0, 255.0)
    return result


def _grid_text(values, fmt):
    rows, cols = values.shape[0], values.shape[1]
    flat = values.reshape(rows, -1)
    lines = [f"{rows} {cols}"]
    for row in flat:
        lines.append(" ".join(fmt % v for v in row))
    return "\n".join(lines) + "\n"


def winner_map_text(result):
    """Winner map as text: a "rows cols" header, then one line of source
    indices per grid row."""
    return _grid_text(result.winner_map, "%d")


def activity_text(result):
    """Activity grid as text: a "rows cols" header, then one line per grid
    row with the K candidate activities of each cell in order."""
    return _grid_text(result.activity, "%.9g")


def diagnostics_text(result):
    """Diagnostics as sorted key=value lines."""
    lines = [f"{k}={v:.9g}" for k, v in sorted(result.diagnostics.items())]
    return "\n".join(lines) + "\n"
