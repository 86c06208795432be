"""Fusion quality metrics and restoration utilities.

Two source images A and B and a fused image F are compared with:

* ``q_mi``: information preservation. Pixels are quantized to 256 bins and
  mutual information is estimated from the (joint) pixel histograms. The
  score is
  I(A;F)/(H(A)+H(F)) + I(B;F)/(H(B)+H(F)), which sits in [0, 1] and equals
  1 when F reproduces identical sources.
* ``q_abf``: edge transfer. Sobel strength and orientation maps are compared
  per pixel through sigmoid preservation curves; the per-pixel scores are
  normalized so that perfect strength and orientation agreement scores
  exactly 1, then averaged with edge-strength weights.

Plain MSE/PSNR helpers are included for ground-truth comparisons. Every
metric takes 2-d images of one shape and rejects a non-finite pixel with
``ValueError``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .linalg import _as_images

__all__ = ["mse", "psnr", "q_mi", "q_abf"]

PSNR_CAP_DB = 150.0


def mse(A, B):
    """Mean squared pixel difference."""
    A, B = _as_images((A, B), ("A", "B"))
    return float(np.mean((A - B) ** 2))


def psnr(A, B):
    """Peak signal-to-noise ratio in dB against a 255 peak, capped at 150."""
    err = mse(A, B)
    if err < 1e-12:
        return PSNR_CAP_DB
    return 10.0 * math.log10(255.0 ** 2 / err)


def _quantize(A):
    """Pixel values of a checked image rounded into the 256 bins 0..255,
    flattened."""
    return np.clip(np.rint(A), 0, 255).astype(np.int64).ravel()


def _entropy(codes):
    """Shannon entropy in bits of the distribution of nonnegative integer
    codes: a quantized image, or ``a * 256 + b`` for a pixel pair."""
    counts = np.bincount(codes)
    p = counts[counts > 0] / codes.size
    return float(-(p * np.log2(p)).sum())


def q_mi(A, B, F):
    """Normalized mutual-information fusion score in [0, 1]."""
    a, b, f = (_quantize(X) for X in _as_images((A, B, F), ("A", "B", "F")))
    h_a, h_b, h_f = _entropy(a), _entropy(b), _entropy(f)
    if h_a + h_f == 0.0 or h_b + h_f == 0.0:
        warnings.warn("q_mi is degenerate for zero-entropy inputs; returning 0")
        return 0.0
    mi_af = h_a + h_f - _entropy(a * 256 + f)
    mi_bf = h_b + h_f - _entropy(b * 256 + f)
    return mi_af / (h_a + h_f) + mi_bf / (h_b + h_f)


# Xydeas-Petrovic sigmoid constants (Electronics Letters 2000): gain, slope
# and midpoint of the strength (G) and orientation (A) preservation curves.
# The weights are the edge strengths: their exponent L is 1.
_GAMMA_G, _KAPPA_G, _SIGMA_G = 0.9994, -15.0, 0.5
_GAMMA_A, _KAPPA_A, _SIGMA_A = 0.9879, -22.0, 0.8


def _edge_map(A):
    """Sobel edge strength and line orientation of a checked image, as the
    pair (strength, orientation), the orientation in radians in
    (-pi/2, pi/2]."""
    if min(A.shape) < 3:
        raise ValueError("edge maps need an image of at least 3x3 pixels")
    H, W = A.shape
    padded = np.pad(A, 1, mode="symmetric")

    def tap(i, j):
        return padded[i:i + H, j:j + W]

    # The non-zero taps of the Sobel tables, added in row-major order.
    gx = (-tap(0, 0) + tap(0, 2) - 2.0 * tap(1, 0) + 2.0 * tap(1, 2)
          - tap(2, 0) + tap(2, 2))
    gy = (-tap(0, 0) - 2.0 * tap(0, 1) - tap(0, 2) + tap(2, 0) + 2.0 * tap(2, 1)
          + tap(2, 2))
    strength = np.hypot(gx, gy)
    orientation = np.arctan2(gy, gx)
    # Fold to line orientation in (-pi/2, pi/2].
    orientation = np.where(orientation > np.pi / 2, orientation - np.pi, orientation)
    orientation = np.where(orientation <= -np.pi / 2, orientation + np.pi, orientation)
    return strength, orientation


def q_abf(A, B, F):
    """Edge-transfer fusion score in [0, 1].

    Per source image and pixel, the strength factor uses the weaker-to-
    stronger edge strength ratio and the orientation factor the normalized
    orientation agreement; both pass through sigmoids and the product is
    scaled by its value at perfect agreement so an exact copy scores 1.
    Pixels where both edges vanish count as perfectly preserved with zero
    weight.
    """
    images = _as_images((A, B, F), ("A", "B", "F"))
    (s_a, o_a), (s_b, o_b), (s_f, o_f) = (_edge_map(X) for X in images)

    def sig_g(x):
        return _GAMMA_G / (1.0 + np.exp(_KAPPA_G * (x - _SIGMA_G)))

    def sig_a(x):
        return _GAMMA_A / (1.0 + np.exp(_KAPPA_A * (x - _SIGMA_A)))

    perfect = sig_g(1.0) * sig_a(1.0)

    def preservation(s_x, o_x):
        lo = np.minimum(s_x, s_f)
        hi = np.maximum(s_x, s_f)
        ratio = np.where(hi > 0, lo / np.where(hi > 0, hi, 1.0), 1.0)
        agree = 1.0 - 2.0 * np.abs(o_x - o_f) / np.pi
        return sig_g(ratio) * sig_a(agree) / perfect

    denom = float((s_a + s_b).sum())
    if denom == 0.0:
        return 1.0  # no edges anywhere: transfer is vacuously perfect
    score = float((preservation(s_a, o_a) * s_a + preservation(s_b, o_b) * s_b).sum())
    return score / denom
