"""Shared fixtures: synthetic images, planted cosparse data, and a trained
operator reused by the fusion and acceptance tests."""

import numpy as np
import pytest

from cosfuse import imageio
from cosfuse.learn import (TrainConfig, init_operator, sample_training_patches,
                           train)

# The [acceptance] lines of tests/test_acceptance.py, repeated in the
# terminal summary so every run shows the criterion figures.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance figures")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_texture(width, height, seed=0):
    """Deterministic textured test image with strong edges at many scales."""
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    img = (128.0
           + 52.0 * np.sin(0.35 * xx) * np.sin(0.41 * yy)
           + 45.0 * np.sign(np.sin(0.55 * xx + 0.31 * yy))
           + 28.0 * np.cos(1.4 * xx - 0.5 * yy))
    rng = np.random.default_rng(seed)
    img = img + imageio.gaussian_blur(rng.uniform(-35, 35, (height, width)), 1.0)
    return np.clip(img, 0.0, 255.0)


def make_planted_clusters(planted, n_signals, cosupport_size, n_clusters, seed):
    """Signals exactly cosparse under ``planted``: each cluster draws one
    random cosupport and its signals live in that cosupport's nullspace."""
    h, m = planted.shape
    rng = np.random.default_rng(seed)
    signals = []
    base, extra = divmod(n_signals, n_clusters)
    for c in range(n_clusters):
        idx = rng.choice(h, size=cosupport_size, replace=False)
        sub = planted[idx]
        null = np.linalg.svd(sub)[2][np.linalg.matrix_rank(sub):].T
        for _ in range(base + (1 if c < extra else 0)):
            g = null @ (null.T @ rng.standard_normal(m))
            signals.append(g / np.linalg.norm(g))
    return np.array(signals).T


def make_scene(width, height, seed=0, corridor=12, fine_amp=30.0):
    """Mixed scene for sweep experiments: fine texture and gratings on both
    sides of a low-gradient corridor at the focus split column."""
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    img = 128.0 + 45.0 * np.sin(2 * np.pi * xx / 56.0) * np.sin(2 * np.pi * yy / 47.0)
    rng = np.random.default_rng(seed)
    fine = imageio.gaussian_blur(
        rng.uniform(-2.2 * fine_amp, 2.2 * fine_amp, (height, width)), 0.8)
    grating = (25.6 * np.sign(np.sin(0.52 * xx + 0.33 * yy))
               + 20.0 * np.sin(0.3 * xx) * np.sin(0.44 * yy))
    img = np.where(xx < width / 2 - corridor, 128.0 + fine + 0.5 * grating, img)
    img = np.where(xx > width / 2 + corridor, 118.0 + 0.9 * grating + 0.55 * fine, img)
    disk = ((yy - 0.75 * height) ** 2 + (xx - 0.78 * width) ** 2
            < (0.1 * height) ** 2)
    img[disk] = 50.0
    return np.clip(img, 0.0, 255.0)


def make_cartoon(width, height):
    """Piecewise-smooth test image: flat shapes on a gentle gradient."""
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    img = 90.0 + 0.3 * xx + 0.2 * yy
    img[(yy > 0.16 * height) & (yy < 0.47 * height)
        & (xx > 0.12 * width) & (xx < 0.55 * width)] = 200.0
    disk = ((yy - 0.66 * height) ** 2 + (xx - 0.70 * width) ** 2
            < (0.22 * min(width, height)) ** 2)
    img[disk] = 40.0
    img[(yy > 0.74 * height) & (yy < 0.9 * height)
        & (xx > 0.08 * width) & (xx < 0.39 * width)] = 160.0
    return np.clip(imageio.gaussian_blur(img, 0.6), 0.0, 255.0)


def admm_direct_oracle(W, y, lam, mu, max_iters, tol):
    """Reference coder for one signal y: ADMM on min 0.5 ||x - y||^2 +
    lam ||W x||_1 with v and d formed, soft thresholding in closed form and
    an exact x-update through A^-1, A = I + mu W^T W inverted once. Stops
    after ``max_iters`` trips, or once the primal residual ||W x - v|| is at
    most ``tol``; returns x."""
    h, m = W.shape
    A_inv = np.linalg.inv(np.eye(m) + mu * (W.T @ W))
    x = y.copy()
    v = W @ x
    d = np.zeros(h)
    for _ in range(max_iters):
        x = A_inv @ (y + mu * (W.T @ (v + d)))
        Wx = W @ x
        shift = Wx - d
        v = np.sign(shift) * np.maximum(np.abs(shift) - lam / mu, 0.0)
        d = d - (Wx - v)
        if np.linalg.norm(Wx - v) <= tol:
            break
    return x


def inf_in_first_column_on_third_call(clip_box):
    """A stand-in for ``learn.clip_box`` whose third call returns +inf in
    column 0: a column that diverges in the middle of a coding solve."""
    calls = []

    def wrapped(v, tau):
        out = clip_box(v, tau)
        calls.append(1)
        if len(calls) == 3:
            out[:, 0] = np.inf
        return out

    return wrapped


@pytest.fixture(scope="session")
def texture_128():
    return make_texture(128, 128, seed=0)


@pytest.fixture(scope="session")
def cartoon_128():
    return make_cartoon(128, 128)


@pytest.fixture(scope="session")
def trained_operator(texture_128):
    """Operator learned from patches of the texture image (desk scale)."""
    Y = sample_training_patches([texture_128], n=7, count=800, seed=1)
    cfg = TrainConfig(lam=0.1, sweeps=3, max_admm_iters=300, seed=2)
    operator, _ = train(Y, cfg, h=64)
    return operator


@pytest.fixture(scope="session")
def random_operator():
    return init_operator(64, 49, seed=11)
