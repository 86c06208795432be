"""Analysis operator learning.

The learner alternates two stages over a training matrix Y (signals as
columns):

* cosparse coding: for each column y, minimize
  ``0.5 * ||x - y||^2 + lam * ||W x||_1`` over x, where W is the current
  operator. The l1 term is split off with an auxiliary variable v = W x and
  the problem is solved by ADMM with scaled multipliers d. The x-subproblem
  is a strongly convex quadratic with the fixed matrix A = I + mu * W^T W;
  A is inverted once per coding call, and each ADMM iteration solves the
  x-subproblem exactly as the correction x -= A^-1 (A x - b). The
  v-subproblem is soft thresholding at lam/mu. The unconverged columns are
  kept in contiguous working arrays: a column is written to the result
  once, when its primal residual reaches the tolerance or the iteration
  cap, and then dropped from the working set, so each iteration touches
  only live columns.
* row update: for each operator row w, collect the coded columns nearly
  orthogonal to it and replace w with the unit vector minimizing the summed
  squared inner products against the corresponding training columns, i.e.
  the smallest eigenvector (LAPACK ``eigh``) of the Gram matrix of that
  column subset. Rows whose orthogonal set is empty are re-initialized at
  random.

All randomness is derived from explicit seeds (numpy PCG64), so training is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    gram,
    load_matrix_text,
    matrix_text,
    soft_threshold,
    spectral_norm_sq,  # unused; bench/tracing.py wraps this attribute
    sym_eig,
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
    "cosupport",
    "cosupport_rank",
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

    def save(self, path):
        text = self.to_text()
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path):
        M, _ = load_matrix_text(path)
        return cls(M)


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
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.admm_tol <= 0 or self.cosupport_tol <= 0:
            raise ValueError("tolerances must be positive")
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
    rows_updated_per_sweep: list = field(default_factory=list)


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
        block = img[top:top + n, left:left + n].reshape(m) / 255.0
        block = block - block.mean()
        norm = np.linalg.norm(block)
        if norm < 1e-8:
            continue
        Y[:, i] = block / norm
        i += 1
    return Y


def _code_batch(W, Y, lam, mu, max_admm_iters, admm_tol):
    """ADMM cosparse coding of every column of Y against operator W.

    Returns (X, V, D, primal residuals, iterations used). The unconverged
    columns live in contiguous working arrays; a column is written to the
    result and dropped from them as soon as its primal residual
    ||W x - v|| drops to admm_tol (or at max_admm_iters, which must be at
    least 1), so each column behaves as if it were solved on its own.
    """
    h, m = W.shape
    if Y.shape[0] != m:
        raise ValueError(f"signals have dimension {Y.shape[0]}, operator expects {m}")
    n_cols = Y.shape[1]
    # With an overflowing mu, A and its inverse hold junk; the finiteness
    # check on the x-step gradient below reports the failure.
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.eye(m) + mu * (W.T @ W)
        A_inv = np.linalg.inv(A)
        tau = lam / mu

    X = np.empty((m, n_cols))
    V = np.empty((h, n_cols))
    D = np.empty((h, n_cols))
    residual = np.empty(n_cols)
    iterations = np.empty(n_cols, dtype=np.int64)
    # Working set: original column index and the state of each live column.
    idx = np.arange(n_cols)
    Xa = Y.copy()
    Ya = Y
    Va = W @ Xa
    Da = np.zeros((h, n_cols))
    for t in range(1, max_admm_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            B = W.T @ (Va + Da)
            B *= mu
            B += Ya
            G = A @ Xa
            G -= B
            norms = np.sqrt(np.sum(G * G, axis=0))
            if not np.all(np.isfinite(norms)):
                raise NumericalFailure("cosparse coding diverged", t)
            # Columns whose x-step gradient is already negligible are left
            # untouched, which keeps lam = 0 returning the signal exactly.
            live = norms > admm_tol
            # Most iterations have every column live; skipping the boolean
            # gather and scatter then saves about a tenth of coding time.
            if live.all():
                Xa -= A_inv @ G
            else:
                Xa[:, live] -= A_inv @ G[:, live]
        if not np.all(np.isfinite(Xa)):
            raise NumericalFailure("cosparse coding diverged", t)
        WX = W @ Xa
        Va = soft_threshold(WX - Da, tau)
        WX -= Va  # the primal residual W x - v
        Da -= WX
        r = np.sqrt(np.sum(WX * WX, axis=0))

        # Not ``r <= admm_tol``: a NaN residual retires its column too.
        done = ~(r > admm_tol) if t < max_admm_iters else np.ones(idx.size, bool)
        if not done.any():
            continue
        cols = idx[done]
        X[:, cols] = Xa[:, done]
        V[:, cols] = Va[:, done]
        D[:, cols] = Da[:, done]
        residual[cols] = r[done]
        iterations[cols] = t
        keep = ~done
        if not keep.any():
            break
        idx = idx[keep]
        Xa, Ya, Va, Da = Xa[:, keep], Ya[:, keep], Va[:, keep], Da[:, keep]
    return X, V, D, residual, iterations


def cosparse_code(op, y, cfg):
    """Code a single signal against the operator; returns an AdmmState."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != op.m:
        raise ValueError(f"signal must have length {op.m}, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("signal contains non-finite entries")
    X, V, D, residual, iterations = _code_batch(
        op.matrix, y[:, None], cfg.lam, cfg.mu, cfg.max_admm_iters, cfg.admm_tol,
    )
    return AdmmState(
        x=X[:, 0],
        v=V[:, 0],
        d=D[:, 0],
        primal_residual=float(residual[0]),
        iterations_used=int(iterations[0]),
    )


def cosparse_code_many(op, Y, cfg):
    """Code every column of Y; returns (X, V, D, residuals, iterations)."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-d array of column signals")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    return _code_batch(
        op.matrix, Y, cfg.lam, cfg.mu, cfg.max_admm_iters, cfg.admm_tol,
    )


def cosupport(op, x, eps):
    """Indices of operator rows with |<row, x>| <= eps."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (op.m,):
        raise ValueError(f"signal must have length {op.m}, got shape {x.shape}")
    return np.flatnonzero(np.abs(op.matrix @ x) <= eps)


def cosupport_rank(op, lambda_set):
    """Numerical rank of the row submatrix selected by ``lambda_set``.

    Counted from the eigenvalues of the submatrix Gram: entries above
    1e-10 times the largest eigenvalue.
    """
    idx = np.asarray(lambda_set, dtype=np.int64)
    if idx.size == 0:
        return 0
    if idx.min() < 0 or idx.max() >= op.h:
        raise ValueError("row indices out of range")
    sub = op.matrix[idx]
    S = gram(sub) if sub.shape[0] <= sub.shape[1] else gram(sub.T)
    w, _ = sym_eig(S)
    top = w[-1]
    if top <= 0:
        return 0
    return int(np.sum(w > 1e-10 * top))


def _random_unit_row(rng, m):
    while True:
        w = rng.standard_normal(m)
        nrm = np.linalg.norm(w)
        if nrm > 1e-12:
            return w / nrm


def update_row(op, j, Y, X, cfg, rng=None):
    """New value for operator row ``j`` given training data and coded signals.

    The orthogonal column set J is taken from the current row against the
    coded signals X. The returned row is the unit minimizer of the summed
    squared inner products with the training columns Y restricted to J, or a
    fresh random unit row when J is empty.
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
        if rng is None:
            rng = np.random.default_rng((cfg.seed, j))
        return _random_unit_row(rng, op.m)
    _, vec = sym_eig_smallest(gram(Y[:, J]))
    return vec


def train(Y, cfg, h):
    """Learn an h-row analysis operator from the columns of Y.

    Each sweep codes every training column against the current operator,
    records the total coding objective and the mean cosupport size, then
    updates every operator row in sequence. Returns the final operator and
    the per-sweep report.
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
        X, _, _, _, _ = cosparse_code_many(op, Y, cfg)
        analyzed = op.matrix @ X
        report.objective_per_sweep.append(
            0.5 * float(np.sum((X - Y) ** 2)) + cfg.lam * float(np.abs(analyzed).sum())
        )
        report.mean_cosparsity_per_sweep.append(
            float(np.mean(np.sum(np.abs(analyzed) <= cfg.cosupport_tol, axis=0)))
        )
        for j in range(h):
            row = update_row(op, j, Y, X, cfg, rng=reinit_rng)
            duplicates = np.abs(np.delete(op.matrix, j, axis=0) @ row)
            if duplicates.max() > DUPLICATE_ROW_COSINE:
                row = _random_unit_row(reinit_rng, m)
            op.matrix[j] = row / np.linalg.norm(row)
        report.rows_updated_per_sweep.append(h)
    return op, report
