"""Multi-focus fusion with a learned analysis operator.

The pipeline works on a shared sliding-window grid over the input images
(pixel values are scaled to [0, 1] internally and patch means are removed
before any operator is applied, matching the training preprocessing):

1. activity ranking: per grid cell, every candidate patch is scored by the
   l1 norm of its analyzed (mean-subtracted) content; the highest-activity
   candidate wins, ties going to the lowest source index. The inputs are
   extracted and ranked one at a time, so only the running winner patches
   and one input's candidates are held at once.
2. local estimation: the winner patches, centred in place, are denoised in
   one ADMM coding call, the same solve the learner uses, with the local
   sparsity weight; patch means are added back into the coded patches in
   place, and the results are overlap-added into the fused estimate.

Each input is extracted once and each cell coded once. While the coder
runs, the fuse holds one patch matrix beside it, the centred winners, plus
the per-cell means, activities and winner map. Output pixels are clamped
to [0, 255] at the very end only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .learn import PIXEL_SCALE, TrainConfig, _admm_counters, cosparse_code_many
from .linalg import (
    _as_images,
    _check_setting,
    _grid_text,
    spectral_norm_sq,  # unused; bench/tracing.py wraps this attribute
)
from .patches import build_grid, extract_matrix, overlap_add_matrix, patch_side

__all__ = [
    "FusionConfig",
    "FusionResult",
    "local_fuse",
    "fuse",
    "activity_text",
    "diagnostics_text",
]

@dataclass
class FusionConfig:
    """Hyperparameters of the fusion pipeline. The patch side is not one:
    it is that of the operator's patches, sqrt(m). The coding solver's
    settings default to, and are checked by, ``TrainConfig``."""

    lambda_local: float = 0.05
    overlap: int = 1
    admm_tol: float = TrainConfig.admm_tol
    max_admm_iters: int = TrainConfig.max_admm_iters

    def __post_init__(self):
        _check_setting("lambda_local", self.lambda_local)
        self._coding_config()  # checks the solver settings

    def _coding_config(self):
        return TrainConfig(
            lam=self.lambda_local,
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


def _activities(W, P):
    """The ranking rule: the l1 norm of W times each column of P, with the
    column's mean removed first."""
    return np.abs(W @ (P - P.mean(axis=0))).sum(axis=0)


def local_fuse(op, images, cfg):
    """Select and denoise the winner patch per grid cell.

    The patches are n by n with n = sqrt(op.m), the side the operator was
    trained on; an operator whose m is not n*n, or an overlap outside
    0 <= p < n, is a ValueError.

    Each input in turn is extracted, ranked and dropped, its patches kept
    only in the cells it leads so far. The winners are then centred in place
    and coded; the coder's X gets the means back in place and is
    overlap-added as it is. So beside the coder's own arrays only the
    centred winners are held, one (n*n, cells) matrix.

    Returns a FusionResult whose ``fused`` is the initial fused estimate,
    not clamped, with the winner map, the per-cell activities and the
    local-stage diagnostics.
    """
    arrays = _as_images(images, [f"input {k}" for k in range(len(images))])
    rows, cols = arrays[0].shape
    grid = build_grid(cols, rows, patch_side(op.m), cfg.overlap)
    W = op.matrix
    n_cells = grid.cell_count

    # Input k takes the cells where it leads inputs 0..k, ties going to the
    # smallest index, so the last ranking is the winner map.
    acts = np.empty((len(arrays), n_cells))
    for k, img in enumerate(arrays):
        P = extract_matrix(img / PIXEL_SCALE, grid)
        acts[k] = _activities(W, P)
        winner = acts[:k + 1].argmax(axis=0)
        if k == 0:
            winners = P
        else:
            np.copyto(winners, P, where=winner == k)
        del P  # before the next input is extracted

    means = winners.mean(axis=0)
    winners -= means  # centred in place: the coder's Y
    X, _, _, residual, iterations = cosparse_code_many(
        op, winners, cfg._coding_config(),
    )
    patch_l1 = np.abs(W @ X).sum(axis=0)
    X += means  # X is a view that overlap_add_matrix reads without a copy
    return FusionResult(
        fused=overlap_add_matrix(X, grid) * PIXEL_SCALE,
        winner_map=winner.reshape(grid.grid_rows, grid.grid_cols),
        activity=acts.T.reshape(grid.grid_rows, grid.grid_cols, len(arrays)),
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


def activity_text(result):
    """Activity grid as text: a "rows cols" header, then one line per grid
    row with the K candidate activities of each cell in order."""
    rows, cols = result.activity.shape[:2]
    return _grid_text([f"{rows} {cols}"], result.activity.reshape(rows, -1),
                      "%.9g")


def diagnostics_text(result):
    """Diagnostics as sorted key=value lines."""
    lines = [f"{k}={v:.9g}" for k, v in sorted(result.diagnostics.items())]
    return "\n".join(lines) + "\n"
