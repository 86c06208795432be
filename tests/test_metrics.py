"""Tests for the fusion quality metrics.

The reference implementations here are written independently (explicit
loops, scipy convolution) and serve as the oracles the vectorized package
code is checked against.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import ndimage

from cosfuse import metrics


def _rand_img(shape, seed):
    return np.random.default_rng(seed).uniform(0, 255, shape)


# ---------------------------------------------------------------------------
# mse / psnr

def test_mse_psnr_identical_images():
    img = _rand_img((8, 8), 0)
    assert metrics.mse(img, img) == 0.0
    assert metrics.psnr(img, img) == metrics.PSNR_CAP_DB


def test_mse_psnr_full_scale():
    A = np.zeros((4, 4))
    B = np.full((4, 4), 255.0)
    assert metrics.mse(A, B) == pytest.approx(255.0 ** 2)
    assert metrics.psnr(A, B) == pytest.approx(0.0, abs=1e-12)


def test_mse_matches_double_loop():
    A, B = _rand_img((6, 5), 1), _rand_img((6, 5), 2)
    acc = 0.0
    for i in range(6):
        for j in range(5):
            acc += (A[i, j] - B[i, j]) ** 2
    assert metrics.mse(A, B) == pytest.approx(acc / 30, rel=1e-12)


def test_mse_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        metrics.mse(np.zeros((2, 2)), np.zeros((3, 2)))


def test_psnr_decreases_with_noise():
    img = _rand_img((32, 32), 3)
    rng = np.random.default_rng(99)
    values = []
    for sigma in (2.0, 8.0, 25.0):
        values.append(metrics.psnr(img, img + rng.normal(0, sigma, img.shape)))
    assert values[0] > values[1] > values[2]


# ---------------------------------------------------------------------------
# q_mi

def _entropy_oracle(img):
    counts = {}
    for v in np.clip(np.rint(img), 0, 255).astype(int).ravel():
        counts[v] = counts.get(v, 0) + 1
    total = sum(counts.values())
    return -sum(c / total * math.log2(c / total) for c in counts.values())


def _mi_oracle(A, B):
    qa = np.clip(np.rint(A), 0, 255).astype(int).ravel()
    qb = np.clip(np.rint(B), 0, 255).astype(int).ravel()
    joint = {}
    for a, b in zip(qa, qb):
        joint[(a, b)] = joint.get((a, b), 0) + 1
    total = len(qa)
    h_joint = -sum(c / total * math.log2(c / total) for c in joint.values())
    return _entropy_oracle(A) + _entropy_oracle(B) - h_joint


# The joint-histogram computation that q_mi used before it took its five
# entropies from one bincount helper: a 256x256 joint histogram per image
# pair, with the marginal entropies taken from its sums.

def _quantized(A):
    return np.clip(np.rint(A), 0, 255).astype(np.int64).ravel()


def _h(counts, total):
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _joint_histogram_mi(A, B):
    a, b = _quantized(A), _quantized(B)
    bins = np.bincount(a * 256 + b, minlength=256 * 256).reshape(256, 256)
    return (_h(bins.sum(axis=1), a.size) + _h(bins.sum(axis=0), a.size)
            - _h(bins.ravel(), a.size))


def _joint_histogram_q_mi(A, B, F):
    h_a, h_b, h_f = (_h(np.bincount(_quantized(X), minlength=256), X.size)
                     for X in (A, B, F))
    if h_a + h_f == 0.0 or h_b + h_f == 0.0:
        return 0.0
    return (_joint_histogram_mi(A, F) / (h_a + h_f)
            + _joint_histogram_mi(B, F) / (h_b + h_f))


@pytest.mark.parametrize("shape", [(6, 6), (16, 16), (64, 64)])
def test_q_mi_and_mi_match_joint_histogram_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    for trial in range(30):
        # Out-of-range pixels too, so the clamp to [0, 255] is exercised.
        A, B, F = (rng.uniform(-30.0, 285.0, shape) for _ in range(3))
        if trial % 3 == 0:
            F = np.rint(A / 16.0) * 16.0  # F shares structure with A
        got = np.float64(metrics.q_mi(A, B, F)).tobytes()
        assert got == np.float64(_joint_histogram_q_mi(A, B, F)).tobytes()


def test_q_mi_perfect_fusion_is_one():
    A = _rand_img((16, 16), 10)
    assert metrics.q_mi(A, A, A) == pytest.approx(1.0, abs=1e-12)


def test_q_mi_constant_fused_is_zero():
    A, B = _rand_img((8, 8), 11), _rand_img((8, 8), 12)
    F = np.full((8, 8), 100.0)
    assert metrics.q_mi(A, B, F) == pytest.approx(0.0, abs=1e-12)


def test_q_mi_degenerate_inputs_warn_and_return_zero():
    const = np.full((8, 8), 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert metrics.q_mi(const, const, const) == 0.0
    assert len(caught) == 1


def test_q_mi_matches_oracle():
    A, B, F = (_rand_img((16, 16), s) for s in (13, 14, 15))
    h_a, h_b, h_f = (_entropy_oracle(x) for x in (A, B, F))
    expected = _mi_oracle(A, F) / (h_a + h_f) + _mi_oracle(B, F) / (h_b + h_f)
    assert metrics.q_mi(A, B, F) == pytest.approx(expected, abs=1e-12)


def test_q_mi_symmetric_in_sources():
    A, B, F = (_rand_img((12, 12), s) for s in (16, 17, 18))
    assert metrics.q_mi(A, B, F) == pytest.approx(metrics.q_mi(B, A, F), abs=1e-14)


# ---------------------------------------------------------------------------
# q_abf

_KX = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_KY = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])


def _q_abf_oracle(A, B, F):
    """Clean-room reference with explicit pixel loops and scipy Sobel."""

    def edges(img):
        gx = ndimage.correlate(img, _KX, mode="reflect")
        gy = ndimage.correlate(img, _KY, mode="reflect")
        strength = np.sqrt(gx ** 2 + gy ** 2)
        alpha = np.arctan2(gy, gx)
        alpha = np.where(alpha > np.pi / 2, alpha - np.pi, alpha)
        alpha = np.where(alpha <= -np.pi / 2, alpha + np.pi, alpha)
        return strength, alpha

    gA, aA = edges(np.asarray(A, float))
    gB, aB = edges(np.asarray(B, float))
    gF, aF = edges(np.asarray(F, float))

    def sig_g(x):
        return 0.9994 / (1.0 + math.exp(-15.0 * (x - 0.5)))

    def sig_a(x):
        return 0.9879 / (1.0 + math.exp(-22.0 * (x - 0.8)))

    perfect = sig_g(1.0) * sig_a(1.0)
    num = 0.0
    den = 0.0
    H, W = gA.shape
    for i in range(H):
        for j in range(W):
            for gx_, ax_, w_ in ((gA[i, j], aA[i, j], gA[i, j]),
                                 (gB[i, j], aB[i, j], gB[i, j])):
                if max(gx_, gF[i, j]) > 0:
                    ratio = min(gx_, gF[i, j]) / max(gx_, gF[i, j])
                else:
                    ratio = 1.0
                agree = 1.0 - 2.0 * abs(ax_ - aF[i, j]) / math.pi
                q = sig_g(ratio) * sig_a(agree) / perfect
                num += q * w_
                den += w_
    return 1.0 if den == 0 else num / den


def _sobel_nine_taps(image, kernel):
    """Correlation with a 3x3 table over a symmetric pad, all nine taps
    added in row-major order."""
    padded = np.pad(image, 1, mode="symmetric")
    H, W = image.shape
    out = np.zeros_like(image)
    for di in range(3):
        for dj in range(3):
            out += kernel[di, dj] * padded[di:di + H, dj:dj + W]
    return out


def test_edge_map_matches_nine_tap_sobel_bit_for_bit():
    # np.array_equal, since a zero gradient may come out with either sign.
    rng = np.random.default_rng(27)
    images = [_rand_img((6, 6), 27), _rand_img((64, 64), 28),
              rng.integers(0, 256, (16, 23)).astype(float),
              np.where(np.arange(9) >= 4, 200.0, 30.0) * np.ones((5, 1))]
    for img in images:
        gx, gy = _sobel_nine_taps(img, _KX), _sobel_nine_taps(img, _KY)
        orientation = np.arctan2(gy, gx)
        orientation = np.where(orientation > np.pi / 2, orientation - np.pi, orientation)
        orientation = np.where(orientation <= -np.pi / 2, orientation + np.pi,
                               orientation)
        strength, orientation_out = metrics._edge_map(img)
        assert np.array_equal(strength, np.hypot(gx, gy))
        assert np.array_equal(orientation_out, orientation)


def test_q_abf_perfect_fusion_is_one():
    A = _rand_img((10, 10), 20)
    assert metrics.q_abf(A, A, A) == pytest.approx(1.0, abs=1e-9)


def test_q_abf_constant_fused_is_tiny():
    yy, xx = np.mgrid[0:8, 0:8]
    step = np.where(xx >= 4, 200.0, 30.0)
    F = np.full((8, 8), 115.0)
    value = metrics.q_abf(step, step, F)
    assert 0.0 < value < 0.05


def test_q_abf_matches_clean_room_oracle():
    for seed in (21, 22, 23):
        A, B, F = (_rand_img((8, 8), seed * 10 + k) for k in range(3))
        assert metrics.q_abf(A, B, F) == pytest.approx(
            _q_abf_oracle(A, B, F), abs=1e-9)


def test_q_abf_symmetric_in_sources():
    A, B, F = (_rand_img((9, 9), s) for s in (24, 25, 26))
    assert metrics.q_abf(A, B, F) == pytest.approx(
        metrics.q_abf(B, A, F), abs=1e-12)


def test_q_abf_rejects_tiny_images():
    for shape in ((2, 2), (2, 3)):
        small = np.zeros(shape)
        with pytest.raises(ValueError, match="at least 3x3"):
            metrics.q_abf(small, small, small)
    # The smallest size edge maps take: the pixels are checked all the same.
    A = np.zeros((3, 3))
    F = A.copy()
    F[1, 1] = math.inf
    with pytest.raises(ValueError, match="non-finite"):
        metrics.q_abf(A, A, F)


# ---------------------------------------------------------------------------
# shared properties

def test_metric_bounds_random_sample():
    rng = np.random.default_rng(30)
    for _ in range(200):
        A, B, F = (rng.uniform(0, 255, (6, 6)) for _ in range(3))
        qm = metrics.q_mi(A, B, F)
        qa = metrics.q_abf(A, B, F)
        assert 0.0 <= qm <= 1.0
        assert 0.0 <= qa <= 1.0


def test_metrics_shift_invariant_away_from_clamp():
    A, B, F = (50 + 100 * np.random.default_rng(s).random((10, 10))
               for s in (31, 32, 33))
    for metric in (metrics.q_mi, metrics.q_abf):
        base = metric(A, B, F)
        shifted = metric(A + 20, B + 20, F + 20)
        assert shifted == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("metric", [metrics.q_mi, metrics.q_abf, metrics.psnr,
                                    metrics.mse],
                         ids=["q_mi", "q_abf", "psnr", "mse"])
def test_metrics_reject_non_finite_images(metric, bad):
    # One bad pixel in any argument is a ValueError, not a score.
    arity = 3 if metric in (metrics.q_mi, metrics.q_abf) else 2
    images = [_rand_img((8, 8), 40 + k) for k in range(arity)]
    for k in range(arity):
        args = [img.copy() for img in images]
        args[k][3, 4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            metric(*args)


@pytest.mark.parametrize("metric", [metrics.q_mi, metrics.q_abf],
                         ids=["q_mi", "q_abf"])
def test_metrics_reject_a_differing_shape_in_any_argument(metric):
    # The message names the first argument unlike A, or A itself when A is
    # the odd one out.
    for k, name in enumerate("ABF"):
        args = [_rand_img((8, 8), 50 + j) for j in range(3)]
        args[k] = _rand_img((8, 9), 60)
        with pytest.raises(ValueError, match=r"has shape \(8, \d\), expected") as err:
            metric(*args)
        message = str(err.value)
        assert message.startswith(f"{name} ") or message.endswith(f"like {name}")


def test_public_metrics_are_the_four_scores():
    assert metrics.__all__ == ["mse", "psnr", "q_mi", "q_abf"]
