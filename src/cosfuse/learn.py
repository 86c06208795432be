"""Analysis operator learning.

The learner alternates two stages over a training matrix Y (signals as
columns):

* cosparse coding (``cosparse_code_many``, the one coding entry point; a
  single signal is a one-column Y): for each column y, minimize
  ``0.5 * ||x - y||^2 + lam * ||W x||_1`` over x, where W is the current
  operator. The l1 term is split off with an auxiliary variable v = W x and
  the problem is solved by ADMM with scaled multipliers d and the penalty
  mu = 1 (``TrainConfig.mu``, a solver constant: it moves the path, not the
  optimum). The x-subproblem is a strongly convex quadratic with the fixed
  matrix A = I + mu * W^T W, inverted once per coding call. Its exact
  solution is the correction
  x = y - M (W y - v - d) with M = mu A^-1 W^T, so the iteration runs on
  W x = W y - W M (W y - v - d) alone, one h-by-h product per column, and
  x is formed only when its column retires. That is cheaper than iterating
  on x while h < (1 + sqrt 3) m, which holds for every operator this
  package builds. The v-step (soft thresholding at lam/mu) and the d-step
  reduce to one projection: the new -d is W x - d clipped to the box
  [-lam/mu, lam/mu], v is what the clip cut off, and the primal residual
  W x - v is the change in -d. So the loop carries only W y - v - d and the
  clipped dual, and never forms v or d: a column returns x, its last primal
  residual and its iteration count when it retires, as soon as its primal
  residual reaches the tolerance, or at the iteration cap. The working
  state is signal-major: one C-ordered N-by-h array per quantity, a row per
  signal, kept in that order for the whole call and written into buffers
  that are reused from trip to trip, the clip included, so no trip
  allocates an N-by-h array. Retired columns ride along in the
  working arrays until fewer than half of them are live, and are then
  dropped in one compaction, a gather of the live rows.
* row update: for each operator row w, collect the coded columns nearly
  orthogonal to it and replace w with the unit vector minimizing the summed
  squared inner products against the corresponding training columns, i.e.
  the smallest eigenvector of the Gram matrix of that column subset
  (``linalg.sym_eig_smallest``, LAPACK ``eigh``). A row's set depends only
  on that row, which no other row's update changes, so ``train`` computes
  every row's update in one ``update_row`` call per sweep: one product of
  the operator with the coded signals gives all the sets, and one stacked
  ``eigh`` solves their Gram matrices. It then writes the rows in order,
  re-initializing a row at random for either of two reasons: its
  orthogonal set is empty, or its update lands on a near-copy of another
  row of the operator as it stands at that point (``DUPLICATE_ROW_COSINE``).
  Both are counted per sweep.

All randomness is derived from explicit seeds (numpy PCG64), so training is
bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    _as_matrix,
    _check_setting,
    clip_box,
    load_matrix_text,
    matrix_text,
    spectral_norm_sq,  # unused; bench/tracing.py wraps this attribute
    sym_eig_smallest,
)

__all__ = [
    "AnalysisOperator",
    "TrainConfig",
    "TrainReport",
    "NumericalFailure",
    "init_operator",
    "sample_training_patches",
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


@dataclass
class AnalysisOperator:
    """An h-by-m analysis operator with unit-norm rows, h >= m."""

    matrix: np.ndarray

    def __post_init__(self):
        M = _as_matrix(self.matrix, "operator")
        if M.shape[0] < M.shape[1]:
            raise ValueError(
                f"operator needs at least as many rows as columns, "
                f"got {M.shape[0]}x{M.shape[1]}"
            )
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
        """Load an operator file. A malformed or invalid one raises a
        ValueError whose message starts with the path."""
        matrix = load_matrix_text(path)
        try:
            return cls(matrix)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


@dataclass
class TrainConfig:
    """Hyperparameters shared by the coding and row-update stages. The ADMM
    penalty ``mu`` and the cosupport tolerance ``cosupport_tol`` are solver
    constants, not fields."""

    mu = 1.0
    cosupport_tol = 1e-3
    lam: float = 0.1
    max_admm_iters: int = 1000
    admm_tol: float = 1e-6
    sweeps: int = 20
    seed: int = 0

    def __post_init__(self):
        _check_setting("lam", self.lam)
        _check_setting("admm_tol", self.admm_tol, positive=True)
        if self.max_admm_iters < 1:
            raise ValueError("max_admm_iters must be at least 1")
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be at least 1, got {self.sweeps}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


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
    """Random operator: i.i.d. standard normal rows, normalized to unit
    norm. ``AnalysisOperator`` rejects h < m."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((h, m))
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    return AnalysisOperator(M)


def sample_training_patches(images, n, count, seed):
    """``count`` random n-by-n patches of ``images`` as the columns of an
    (n*n)-by-count matrix, mean-subtracted and unit-normalized.

    The draw contract: the images at least n pixels on each side are kept,
    K of them, and ``numpy.random.default_rng(seed)`` draws each batch of
    attempts in two calls: ``image = integers(K, size=size)``, then the
    (top, left) corners ``integers(0, highs[image])``, where ``highs`` holds
    each kept image's (rows - n + 1, cols - n + 1). So images are drawn
    uniformly over K, not over windows. The patch is divided by
    ``PIXEL_SCALE`` and its mean subtracted; one whose l2 norm is below 1e-8
    is flat and rejected. The columns are the first ``count`` accepted
    patches in attempt order, each divided by its norm, and the images are
    flat (``ValueError``) when 50 * count attempts do not find them. For one
    image, ``integers(1, ...)`` consumes none of the stream, so the sample
    equals drawing ``integers(1)``, the top and the left per attempt.
    """
    if count < 0:
        raise ValueError(f"patch count must be nonnegative, got {count}")
    m = n * n
    Y = np.empty((m, count))
    usable = [img for img in images if min(img.shape) >= n]
    if not usable:
        raise ValueError(f"no training image is at least {n}x{n} pixels")
    views = [np.lib.stride_tricks.sliding_window_view(img, (n, n))
             for img in usable]
    highs = np.array([view.shape[:2] for view in views])
    rng = np.random.default_rng(seed)
    found = attempts = 0
    while found < count:
        if attempts == 50 * count:
            raise ValueError("training images are flat; cannot sample patches")
        # As many attempts as the share of flat patches seen so far says are
        # still needed, at most count at a time. Attempts drawn past the
        # last patch needed are discarded: the generator is private.
        size = -(-(count - found) * attempts // found) if found else count
        size = min(size, count, 50 * count - attempts)
        image = rng.integers(len(views), size=size)
        top, left = rng.integers(0, highs[image]).T
        attempts += size
        P = np.empty((size, m))
        for k, view in enumerate(views):
            sel = np.flatnonzero(image == k)
            P[sel] = view[top[sel], left[sel]].reshape(sel.size, m)
        P /= PIXEL_SCALE
        P -= P.mean(axis=1, keepdims=True)
        # sqrt of a 1-by-1 matmul per row is bit-equal to the 1-d
        # np.linalg.norm; norm(axis=1) and einsum are not.
        norm = np.sqrt(P[:, None, :] @ P[:, :, None]).reshape(size)
        # Not ``norm >= 1e-8``: only a norm below 1e-8 is rejected, and NaN
        # is not below it.
        keep = np.flatnonzero(~(norm < 1e-8))[:count - found]
        Y[:, found:found + keep.size] = (P[keep] / norm[keep, None]).T
        found += keep.size
    return Y


def cosparse_code_many(op, Y, cfg):
    """ADMM cosparse coding of every column of Y against the operator W.

    Returns (X, None, None, primal residuals, iterations used). The two
    None slots hold nothing: they stay only while ``bench/tracing.py``
    unpacks five fields, and ROADMAP item 10 removes them when it refreshes
    the tracer. The loop iterates on s = W x rather than on x. With
    u = v + d and mu = ``cfg.mu`` = 1, the exact x-step
    x = A^-1 (y + mu W^T u), A = I + mu W^T W, is the correction
    x = y - M T with T = z - u, z = W y and M = mu A^-1 W^T, so
    W x = z - K T with K = W M. A, M, K and Z = W Y are formed once per call.

    The v- and d-steps (Boyd et al., *Distributed Optimization via ADMM*,
    2011, section 6.4) are one projection onto the box [-tau, tau],
    tau = lam / mu. With C = -d and P = W x + C, the new C is clip(P), the
    new v is P - C and the primal residual W x - v is C - C_prev. The loop
    therefore carries (T, C) alone, never forms v or d, and the next T is
    K T + C + (C - C_prev). A trip costs one h-by-h product per working
    column, against 2hm + 2m^2 for iterating on x (less whenever
    h < (1 + sqrt 3) m), and seven elementwise passes over the h-wide
    working arrays: P twice, the clip, the residual, its norms, and T twice.

    The working state is signal-major: Z, T, C and the trip buffers are
    C-ordered N-by-h arrays, one row per working column, so every pass runs
    over contiguous memory and the product is T K^T, written into a buffer
    with ``np.matmul(..., out=)``. ``clip_box`` clips the h-by-N view P^T
    in place, so P's buffer holds the new C; the residual goes into the old
    C's buffer, which then takes the next trip's P. With the T and K T
    buffers swapping roles each trip, the loop holds five N-by-h arrays
    (Z, T, C, K T, P) plus X, and no trip allocates another. The first trip
    has T = 0 and skips the product.

    A column retires as soon as its primal residual ||W x - v|| drops to
    ``cfg.admm_tol``, or at ``cfg.max_admm_iters``. Its x = y - M T is
    written then, from that trip's state, found by one ``flatnonzero`` and
    gathered row by row. A retired column rides along in the working
    arrays, its further trips unread, until fewer than half of the working
    columns are live; then the live rows are gathered into new, smaller
    arrays, which keep the same memory order. So each column behaves as if
    it were solved on its own, and the gathers happen a few times per call,
    not at every retirement. X is the m-by-N view of an N-row array, so a
    retiring column is one row write, and a retiring batch's y - M T is
    formed in the buffer of its product.
    A column whose state turns non-finite keeps a non-finite T (K has a
    positive diagonal), so its x at retirement is non-finite and raises
    ``NumericalFailure``.

    The iteration starts from v = W y and d = 0 (T = 0, C = 0), so at
    lam = 0 the first trip gives x = y exactly. An empty Y returns empty
    results at once.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim != 2:
        raise ValueError("Y must be a 2-d array of column signals")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    W, lam, mu = op.matrix, cfg.lam, cfg.mu
    max_admm_iters, admm_tol = cfg.max_admm_iters, cfg.admm_tol
    m = W.shape[1]
    if Y.shape[0] != m:
        raise ValueError(f"signals have dimension {Y.shape[0]}, operator expects {m}")
    n_cols = Y.shape[1]
    X = np.empty((n_cols, m)).T
    residual = np.empty(n_cols)
    iterations = np.empty(n_cols, dtype=np.int64)
    if n_cols == 0:
        return X, None, None, residual, iterations
    A = np.eye(m) + mu * (W.T @ W)
    M = mu * (np.linalg.inv(A) @ W.T)
    K = W @ M
    tau = lam / mu

    # Working set, signal-major: row i of the C-ordered N-by-h arrays holds
    # the state of column idx[i]. T is z - u, the x-step's right-hand side;
    # C is -d, the dual clipped to the box [-tau, tau]. KT and P are trip
    # buffers; T and KT swap roles every trip, and so do C and P.
    idx = np.arange(n_cols)
    live = np.ones(n_cols, bool)
    n_live = n_cols
    Za = Y.T @ W.T
    T, C, KT = (np.zeros(Za.shape) for _ in range(3))
    P = np.empty_like(Za)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, max_admm_iters + 1):
            # The first T is 0, and so is K T.
            if t > 1:
                np.matmul(T, K.T, out=KT)  # z - W x
            np.subtract(Za, KT, out=P)
            P += C  # W x - d
            Cn = clip_box(P.T, tau).T  # in P's buffer
            R = np.subtract(Cn, C, out=C)  # the primal residual W x - v
            r = np.sqrt(np.einsum("ij,ij->i", R, R))

            # Not ``r <= admm_tol``: a NaN residual retires its column too.
            done = np.flatnonzero(live & ~(r > admm_tol)
                                  if t < max_admm_iters else live)
            if done.size:
                cols = idx[done]
                # Where a column's state went non-finite, so did its T.
                Xd = T[done] @ M.T
                np.subtract(Y.T[cols], Xd, out=Xd)
                if not np.isfinite(Xd).all():
                    raise NumericalFailure("cosparse coding diverged", t)
                X.T[cols] = Xd
                residual[cols] = r[done]
                iterations[cols] = t
                live[done] = False
                n_live -= done.size
                if not n_live:
                    break
            KT += Cn
            KT += R
            # The new C stays in P's buffer; the next P goes in the
            # residual's.
            T, KT, C, P = KT, T, Cn, R
            # Retired columns ride along until fewer than half are live.
            if 2 * n_live < idx.size:
                keep = np.flatnonzero(live)
                del KT, P, R, Cn  # free the trip buffers before the gathers
                idx, Za, T, C = idx[keep], Za[keep], T[keep], C[keep]
                KT, P = np.empty_like(T), np.empty_like(T)
                live = np.ones(n_live, bool)
    return X, None, None, residual, iterations


def _admm_counters(residual, iterations, cfg):
    """Total and largest ADMM iteration counts of a coding call, and the
    columns whose last residual is not within ``admm_tol``: those that
    stopped at ``max_admm_iters``, and those retired by a NaN residual."""
    return {
        "admm_iters_total": float(iterations.sum()),
        "admm_iters_max": float(iterations.max(initial=0)),
        "admm_nonconverged": float(np.count_nonzero(~(residual <= cfg.admm_tol))),
    }


def _random_unit_row(rng, m):
    while True:
        w = rng.standard_normal(m)
        nrm = np.linalg.norm(w)
        if nrm > 1e-12:
            return w / nrm


def update_row(op, j, Y, X, cfg):
    """New values for the operator rows whose indices are the 1-d integer
    array ``j``, given training data and coded signals, as a list in the
    order of ``j``.

    Row j's orthogonal column set J holds the columns x of the coded signals
    X with |row . x| <= ``cfg.cosupport_tol`` (1e-3) for the current row.
    Its new value is the unit minimizer of the summed squared inner products
    with the training columns Y restricted to J, or None when J is empty.
    All the sets come from one ``op.matrix[j] @ X`` product, and one
    ``sym_eig_smallest`` call solves the stacked Gram matrices of the
    non-empty ones.
    """
    rows = np.asarray(j)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"row indices must be a 1-d integer array, got {j!r}")
    bad = rows[(rows < 0) | (rows >= op.h)]
    if bad.size:
        raise ValueError(f"row index {bad[0]} out of range for h={op.h}")
    Y = np.asarray(Y, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if Y.shape[0] != op.m or X.shape != Y.shape:
        raise ValueError("Y and X must both be m-by-N with m matching the operator")
    # Row k of ``orthogonal`` marks the columns of the k-th row's set.
    orthogonal = np.abs(op.matrix[rows] @ X) <= cfg.cosupport_tol
    full = np.flatnonzero(orthogonal.any(axis=1))
    new = [None] * len(orthogonal)
    if full.size:
        grams = np.empty((full.size, op.m, op.m))
        for g, k in zip(grams, full):
            # One gathered buffer times its own transpose: numpy computes
            # that with BLAS syrk, which returns it exactly symmetric.
            Yk = Y[:, orthogonal[k]]
            g[...] = Yk @ Yk.T
        for k, vec in zip(full, sym_eig_smallest(grams)):
            new[k] = vec
    return new


def train(Y, cfg, h):
    """Learn an h-row analysis operator from the columns of Y.

    Each sweep codes every training column against the current operator,
    records the total coding objective, the mean cosupport size and the
    coding call's ``_admm_counters``, then computes every row's update in
    one ``update_row`` call and writes the rows in order. A row with an
    empty orthogonal set, or whose update nearly copies another row (those
    already written this sweep included), is drawn at random instead and
    counted. Returns the final operator and the per-sweep report.
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
        for j, row in enumerate(update_row(op, np.arange(h), Y, X, cfg)):
            if row is not None:
                # |cos| against every other row of the live operator; row
                # j's own old value is left out.
                cosines = np.abs(op.matrix @ row)
                cosines[j] = 0.0
            if row is None or cosines.max() > DUPLICATE_ROW_COSINE:
                row = _random_unit_row(reinit_rng, m)
                reinitialized += 1
            op.matrix[j] = row / np.linalg.norm(row)
        report.rows_reinitialized_per_sweep.append(reinitialized)
    return op, report
