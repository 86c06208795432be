"""Multi-focus fusion with a learned analysis operator.

The pipeline works on a shared sliding-window grid over the input images
(pixel values are scaled to [0, 1] internally and patch means are removed
before any operator is applied, matching the training preprocessing):

1. activity ranking: per grid cell, every candidate patch is scored by the
   l1 norm of its analyzed (mean-subtracted) content; the highest-activity
   candidate wins, ties going to the lowest source index.
2. local estimation: the winner patches of all cells are denoised in one
   ADMM coding call, the same solve the learner uses, with the local
   sparsity weight; patch means are restored afterwards and the results
   are overlap-added into the fused estimate.

Each input is extracted once and each cell coded once. Output pixels are
clamped to [0, 255] at the very end only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .learn import (PIXEL_SCALE, TrainConfig, _admm_counters, _check_setting,
                    cosparse_code_many)
from .linalg import spectral_norm_sq  # unused; bench/tracing.py wraps this attribute
from .patches import build_grid, extract_matrix, overlap_add_matrix

__all__ = [
    "FusionConfig",
    "FusionResult",
    "activity",
    "local_fuse",
    "fuse",
    "winner_map_text",
    "activity_text",
    "diagnostics_text",
]

@dataclass
class FusionConfig:
    """Hyperparameters of the fusion pipeline. The coding solver's settings
    default to, and are checked by, ``TrainConfig``."""

    lambda_local: float = 0.05
    patch_size: int = 7
    overlap: int = 1
    mu: float = TrainConfig.mu
    admm_tol: float = TrainConfig.admm_tol
    max_admm_iters: int = TrainConfig.max_admm_iters

    def __post_init__(self):
        _check_setting("lambda_local", self.lambda_local)
        self._coding_config()  # checks the solver settings
        if not 0 <= self.overlap < self.patch_size:
            raise ValueError(
                f"overlap must satisfy 0 <= p < n, got p={self.overlap}, "
                f"n={self.patch_size}"
            )

    def _coding_config(self):
        return TrainConfig(
            lam=self.lambda_local,
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


def activity(op, patch):
    """l1 norm of the analyzed, mean-subtracted patch."""
    data = np.asarray(patch, dtype=np.float64)
    if data.ndim != 1 or data.size != op.m:
        raise ValueError(f"patch must have length {op.m}, got shape {data.shape}")
    return float(np.abs(op.matrix @ (data - data.mean())).sum())


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


def local_fuse(op, images, cfg):
    """Select and denoise the winner patch per grid cell.

    Returns a FusionResult whose ``fused`` is the initial fused estimate,
    not clamped, with the winner map, the per-cell activities and the
    local-stage diagnostics.
    """
    arrays = _check_images(images)
    if op.m != cfg.patch_size ** 2:
        raise ValueError(
            f"operator signal dimension {op.m} does not match patch size "
            f"{cfg.patch_size}x{cfg.patch_size}"
        )
    rows, cols = arrays[0].shape
    grid = build_grid(cols, rows, cfg.patch_size, cfg.overlap)
    W = op.matrix
    n_cells = grid.cell_count

    candidates = [extract_matrix(img / PIXEL_SCALE, grid) for img in arrays]
    acts = np.stack([
        np.abs(W @ (P - P.mean(axis=0))).sum(axis=0) for P in candidates
    ])  # (K, cells)
    winner = acts.argmax(axis=0)  # first max wins, i.e. smallest k

    P_win = np.empty_like(candidates[0])
    for k in range(len(candidates)):
        mask = winner == k
        P_win[:, mask] = candidates[k][:, mask]
    means = P_win.mean(axis=0)

    X, _, _, residual, iterations = cosparse_code_many(
        op, P_win - means, cfg._coding_config(),
    )
    patch_l1 = np.abs(W @ X).sum(axis=0)
    return FusionResult(
        fused=overlap_add_matrix(X + means, grid) * PIXEL_SCALE,
        winner_map=winner.reshape(grid.grid_rows, grid.grid_cols),
        activity=acts.T.reshape(grid.grid_rows, grid.grid_cols, len(candidates)),
        diagnostics={
            "cells": float(n_cells),
            "local_l1_mean": float(patch_l1.mean()),
            "local_l1_max": float(patch_l1.max()),
            **_admm_counters(residual, iterations, cfg),
        },
    )


def _global_impl(op, initial, cfg):
    """Pass-through that keeps the benchmark's readers working:
    ``bench/tracing.py`` wraps this attribute as the ``fuse.global`` span and
    reads ``global_rounds_run``, and ``bench/checks.py`` reads the two
    objective lines of ``_diag.txt``. The next benchmark refresh deletes it."""
    return initial, {
        "global_rounds_run": 0.0,
        "global_objective_initial": 0.0,
        "global_objective_final": 0.0,
    }


def fuse(images, op, cfg):
    """Full fusion pipeline: local selection and denoising, then a final
    clamp to [0, 255]."""
    result = local_fuse(op, images, cfg)
    fused, gdiag = _global_impl(op, result.fused, cfg)
    result.diagnostics.update(gdiag)
    result.fused = np.clip(fused, 0.0, 255.0)
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
