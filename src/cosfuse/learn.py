"""Analysis operator learning.

The learner alternates two stages over a training matrix Y (signals as
columns):

* cosparse coding: for each column y, minimize
  ``0.5 * ||x - y||^2 + lam * ||W x||_1`` over x, where W is the current
  operator. The l1 term is split off with an auxiliary variable v = W x and
  the problem is solved by ADMM with scaled multipliers d. The x-subproblem
  is a strongly convex quadratic with the fixed matrix A = I + mu * W^T W,
  inverted once per coding call. Its exact solution is the correction
  x = y - M (W y - v - d) with M = mu A^-1 W^T, so the iteration runs on
  W x = W y - W M (W y - v - d) alone, one h-by-h product per column, and
  x is formed only when its column retires. That is cheaper than iterating
  on x while h < (1 + sqrt 3) m, which holds for every operator this
  package builds. The v-subproblem is soft thresholding at lam/mu. The
  unconverged columns are kept in contiguous working arrays: a column is
  written to the result once, when its primal residual reaches the
  tolerance or the iteration cap, and then dropped from the working set, so
  each iteration touches only live columns.
* row update: for each operator row w, collect the coded columns nearly
  orthogonal to it and replace w with the unit vector minimizing the summed
  squared inner products against the corresponding training columns, i.e.
  the smallest eigenvector (LAPACK ``eigh``) of the Gram matrix of that
  column subset. ``train`` re-initializes a row at random for either of two
  reasons: its orthogonal set is empty, or its update lands on a near-copy
  of another row (``DUPLICATE_ROW_COSINE``). Both are counted per sweep.

All randomness is derived from explicit seeds (numpy PCG64), so training is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    gram,
    load_matrix_text,
    matrix_text,
    soft_threshold,
    spectral_norm_sq,  # unused; bench/tracing.py wraps this attribute
    sym_eig_smallest,
)

__all__ = [
    "AnalysisOperator",
    "TrainConfig",
    "AdmmState",
    "TrainReport",
    "NumericalFailure",
    "init_operator",
    "sample_training_patches",
    "cosparse_code",
    "cosparse_code_many",
    "update_row",
    "train",
]


class NumericalFailure(RuntimeError):
    """A solver produced non-finite values; ``iteration`` is where."""

    def __init__(self, message, iteration):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


# A row update that lands (in absolute value) this close to an existing row
# is treated like an empty orthogonal set and re-initialized at random.
# Without this guard every row converges to the single lowest-energy
# direction of smooth image-patch data and the operator collapses to rank 1.
DUPLICATE_ROW_COSINE = 0.999

# Pixel values are divided by this before any operator sees them, in
# training and in fusion alike.
PIXEL_SCALE = 255.0


def _check_setting(name, value, positive=False):
    """Reject a float setting that is not finite, is negative or, if
    ``positive``, is zero. Written so that NaN fails too."""
    low_ok = value > 0 if positive else value >= 0
    if not (math.isfinite(value) and low_ok):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")


@dataclass
class AnalysisOperator:
    """An h-by-m analysis operator with unit-norm rows, h >= m."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=np.float64)
        if M.ndim != 2:
            raise ValueError("operator must be a 2-d array")
        if M.shape[0] < M.shape[1]:
            raise ValueError(
                f"operator needs at least as many rows as columns, "
                f"got {M.shape[0]}x{M.shape[1]}"
            )
        if not np.all(np.isfinite(M)):
            raise ValueError("operator contains non-finite entries")
        norms = np.linalg.norm(M, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ValueError("operator rows must have unit l2 norm")
        self.matrix = M

    @property
    def h(self):
        return self.matrix.shape[0]

    @property
    def m(self):
        return self.matrix.shape[1]

    def to_text(self):
        """The operator file contents: the matrix text format with an
        ``analysis-operator h=.. m=..`` comment line."""
        return matrix_text(self.matrix,
                           comments=[f"analysis-operator h={self.h} m={self.m}"])

    @classmethod
    def load(cls, path):
        return cls(load_matrix_text(path))


@dataclass
class TrainConfig:
    """Hyperparameters shared by the coding and row-update stages."""

    lam: float = 0.1
    mu: float = 1.0
    max_admm_iters: int = 1000
    admm_tol: float = 1e-6
    cosupport_tol: float = 1e-3
    sweeps: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_setting("lam", self.lam)
        _check_setting("mu", self.mu, positive=True)
        _check_setting("admm_tol", self.admm_tol, positive=True)
        _check_setting("cosupport_tol", self.cosupport_tol, positive=True)
        if self.max_admm_iters < 1:
            raise ValueError("max_admm_iters must be at least 1")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be at least 1, got {self.sweeps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class AdmmState:
    """Result of one cosparse coding solve."""

    x: np.ndarray
    v: np.ndarray
    d: np.ndarray
    primal_residual: float
    iterations_used: int


@dataclass
class TrainReport:
    """Per-sweep training diagnostics."""

    objective_per_sweep: list = field(default_factory=list)
    mean_cosparsity_per_sweep: list = field(default_factory=list)
    admm_iters_max_per_sweep: list = field(default_factory=list)
    admm_nonconverged_per_sweep: list = field(default_factory=list)
    # Rows replaced with a random row: those with an empty orthogonal set
    # and those the duplicate guard rejected.
    rows_reinitialized_per_sweep: list = field(default_factory=list)


def init_operator(h, m, seed):
    """Random operator: i.i.d. standard normal rows, normalized to unit norm."""
    if h < m:
        raise ValueError(f"need h >= m, got h={h}, m={m}")
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((h, m))
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    return AnalysisOperator(M)


def sample_training_patches(images, n, count, seed):
    """``count`` random n-by-n patches of ``images`` as the columns of an
    (n*n)-by-count matrix, mean-subtracted and unit-normalized. Flat patches
    carry no analyzable structure and are resampled."""
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
        block = img[top:top + n, left:left + n].reshape(m) / PIXEL_SCALE
        block = block - block.mean()
        norm = np.linalg.norm(block)
        if norm < 1e-8:
            continue
        Y[:, i] = block / norm
        i += 1
    return Y


def cosparse_code_many(op, Y, cfg, start=None):
    """ADMM cosparse coding of every column of Y against the operator W.

    Returns (X, V, D, primal residuals, iterations used). The loop iterates
    on s = W x rather than on x. With u = v + d, the exact x-step
    x = A^-1 (y + mu W^T u), A = I + mu W^T W, is the correction
    x = y - M (z - u) with z = W y and M = mu A^-1 W^T, so
    W x = z - K (z - u) with K = W M. A, M, K and Z = W Y are formed once per
    call; an iteration then costs one h-by-h product per column, against
    2hm + 2m^2 for iterating on x, which is less whenever h < (1 + sqrt 3) m.
    A column's x is formed only when it retires: as soon as its primal
    residual ||W x - v|| drops to ``cfg.admm_tol``, or at
    ``cfg.max_admm_iters``. The unconverged columns live in contiguous
    working arrays and a retired column is dropped from them, so each column
    behaves as if it were solved on its own.

    The iteration starts cold, from V = W Y and D = 0, unless ``start`` gives
    an initial (V, D): two finite h-by-N arrays, such as the V and D a
    previous call returned for nearby signals. The call may take ownership
    of them and update D in place. From a cold start at lam = 0 the first
    iteration has z - u = 0, so x = y exactly.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-d array of column signals")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    W, lam, mu = op.matrix, cfg.lam, cfg.mu
    max_admm_iters, admm_tol = cfg.max_admm_iters, cfg.admm_tol
    h, m = W.shape
    if Y.shape[0] != m:
        raise ValueError(f"signals have dimension {Y.shape[0]}, operator expects {m}")
    n_cols = Y.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.eye(m) + mu * (W.T @ W)
    # With an overflowing mu, A^-1, M and K would still come out finite
    # junk and code every column as x = y.
    if not np.all(np.isfinite(A)):
        raise NumericalFailure("cosparse coding diverged", 1)
    M = mu * (np.linalg.inv(A) @ W.T)
    K = W @ M
    tau = lam / mu

    X = np.empty((m, n_cols))
    V = np.empty((h, n_cols))
    D = np.empty((h, n_cols))
    residual = np.empty(n_cols)
    iterations = np.empty(n_cols, dtype=np.int64)
    # Working set: original column index and the state of each live column.
    idx = np.arange(n_cols)
    Za = W @ Y
    if start is None:
        Va, Da = Za, np.zeros((h, n_cols))
    else:
        Va, Da = (np.asarray(a, dtype=np.float64) for a in start)
        if Va.shape != (h, n_cols) or Da.shape != (h, n_cols):
            raise ValueError(f"start must be two {h}x{n_cols} arrays, got "
                             f"{Va.shape} and {Da.shape}")
        if not (np.all(np.isfinite(Va)) and np.all(np.isfinite(Da))):
            raise ValueError("start contains non-finite entries")
    for t in range(1, max_admm_iters + 1):
        T = Za - Va
        T -= Da  # z - u
        with np.errstate(over="ignore", invalid="ignore"):
            S = Za - K @ T  # W x
        if not np.all(np.isfinite(S)):
            raise NumericalFailure("cosparse coding diverged", t)
        Va = soft_threshold(S - Da, tau)
        S -= Va  # the primal residual W x - v
        Da -= S
        r = np.sqrt(np.sum(S * S, axis=0))

        # Not ``r <= admm_tol``: a NaN residual retires its column too.
        done = ~(r > admm_tol) if t < max_admm_iters else np.ones(idx.size, bool)
        if not done.any():
            continue
        cols = idx[done]
        with np.errstate(over="ignore", invalid="ignore"):
            Xd = Y[:, cols] - M @ T[:, done]
        if not np.all(np.isfinite(Xd)):
            raise NumericalFailure("cosparse coding diverged", t)
        X[:, cols] = Xd
        V[:, cols] = Va[:, done]
        D[:, cols] = Da[:, done]
        residual[cols] = r[done]
        iterations[cols] = t
        keep = ~done
        if not keep.any():
            break
        idx = idx[keep]
        Za, Va, Da = Za[:, keep], Va[:, keep], Da[:, keep]
    return X, V, D, residual, iterations


def _admm_counters(residual, iterations, cfg):
    """Total and largest ADMM iteration counts of a coding call, and the
    columns whose last residual is not within ``admm_tol``: those that
    stopped at ``max_admm_iters``, and those retired by a NaN residual."""
    return {
        "admm_iters_total": float(iterations.sum()),
        "admm_iters_max": float(iterations.max(initial=0)),
        "admm_nonconverged": float(np.count_nonzero(~(residual <= cfg.admm_tol))),
    }


def cosparse_code(op, y, cfg):
    """Code a single signal against the operator; returns an AdmmState."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != op.m:
        raise ValueError(f"signal must have length {op.m}, got shape {y.shape}")
    X, V, D, residual, iterations = cosparse_code_many(op, y[:, None], cfg)
    return AdmmState(
        x=X[:, 0],
        v=V[:, 0],
        d=D[:, 0],
        primal_residual=float(residual[0]),
        iterations_used=int(iterations[0]),
    )


def _random_unit_row(rng, m):
    while True:
        w = rng.standard_normal(m)
        nrm = np.linalg.norm(w)
        if nrm > 1e-12:
            return w / nrm


def update_row(op, j, Y, X, cfg):
    """New value for operator row ``j`` given training data and coded signals.

    The orthogonal column set J is taken from the current row against the
    coded signals X. The returned row is the unit minimizer of the summed
    squared inner products with the training columns Y restricted to J, or
    None when J is empty.
    """
    if not 0 <= j < op.h:
        raise ValueError(f"row index {j} out of range for h={op.h}")
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if Y.shape[0] != op.m or X.shape != Y.shape:
        raise ValueError("Y and X must both be m-by-N with m matching the operator")
    scores = op.matrix[j] @ X
    J = np.flatnonzero(np.abs(scores) <= cfg.cosupport_tol)
    if J.size == 0:
        return None
    _, vec = sym_eig_smallest(gram(Y[:, J]))
    return vec


def train(Y, cfg, h):
    """Learn an h-row analysis operator from the columns of Y.

    Each sweep codes every training column against the current operator,
    records the total coding objective, the mean cosupport size and the
    coding call's ``_admm_counters``, then updates every operator row in
    sequence. A row with an empty orthogonal set, or whose update nearly
    copies another row, is drawn at random instead and counted. Returns the
    final operator and the per-sweep report.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-d array of column signals")
    m, n_signals = Y.shape
    if n_signals < h:
        raise ValueError(
            f"too few training signals: need at least h={h}, got {n_signals}"
        )
    op = init_operator(h, m, cfg.seed)
    reinit_rng = np.random.default_rng((cfg.seed, 0x9E3779B9))
    report = TrainReport()
    for _ in range(cfg.sweeps):
        X, _, _, residual, iterations = cosparse_code_many(op, Y, cfg)
        counters = _admm_counters(residual, iterations, cfg)
        report.admm_iters_max_per_sweep.append(int(counters["admm_iters_max"]))
        report.admm_nonconverged_per_sweep.append(int(counters["admm_nonconverged"]))
        analyzed = op.matrix @ X
        report.objective_per_sweep.append(
            0.5 * float(np.sum((X - Y) ** 2)) + cfg.lam * float(np.abs(analyzed).sum())
        )
        report.mean_cosparsity_per_sweep.append(
            float(np.mean(np.sum(np.abs(analyzed) <= cfg.cosupport_tol, axis=0)))
        )
        reinitialized = 0
        for j in range(h):
            row = update_row(op, j, Y, X, cfg)
            if (row is None or np.abs(np.delete(op.matrix, j, axis=0) @ row).max()
                    > DUPLICATE_ROW_COSINE):
                row = _random_unit_row(reinit_rng, m)
                reinitialized += 1
            op.matrix[j] = row / np.linalg.norm(row)
        report.rows_reinitialized_per_sweep.append(reinitialized)
    return op, report
