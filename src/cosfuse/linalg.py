"""Minimal dense linear algebra for the solvers.

Matrices and vectors are plain numpy float64 arrays (row-major). The few
routines here are exactly what the coding and row-update stages need:
soft thresholding, Gram products, a symmetric eigensolver (LAPACK ``eigh``
behind an input check), a power-iteration estimate of the squared spectral
norm, and the matrix text format.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "soft_threshold",
    "gram",
    "sym_eig",
    "sym_eig_smallest",
    "spectral_norm_sq",
    "matrix_text",
    "save_matrix_text",
    "load_matrix_text",
    "MatrixFormatError",
]

class MatrixFormatError(ValueError):
    """Raised when a matrix text file cannot be parsed."""


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_vector(v, name="vector"):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def soft_threshold(v, tau):
    """Componentwise shrinkage: sign(v) * max(|v| - tau, 0).

    Accepts arrays of any shape; ``tau`` must be a nonnegative scalar.
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def gram(M):
    """Return M @ M.T, symmetrized exactly.

    The averaging with the transpose removes any rounding asymmetry from the
    underlying matrix product, so ``gram(M) == gram(M).T`` holds bitwise.
    """
    M = _as_matrix(M)
    G = M @ M.T
    return (G + G.T) / 2.0


def _check_symmetric(S):
    S = _as_matrix(S, "symmetric matrix")
    if S.shape[0] != S.shape[1]:
        raise ValueError(f"matrix must be square, got shape {S.shape}")
    scale = np.abs(S).max()
    if scale > 0 and np.abs(S - S.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric within 1e-10 relative tolerance")
    return S


def sym_eig(S):
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Returns (eigenvalues ascending, orthonormal eigenvectors as matching
    columns). Raises ``numpy.linalg.LinAlgError`` if LAPACK does not
    converge.
    """
    return np.linalg.eigh(_check_symmetric(S))


def sym_eig_smallest(S):
    """Smallest eigenpair of a symmetric matrix.

    Returns (eigenvalue, unit eigenvector). For degenerate spectra any
    minimizing eigenvector may be returned.
    """
    w, V = sym_eig(S)
    return float(w[0]), V[:, 0]


def spectral_norm_sq(M):
    """Largest eigenvalue of M.T @ M (the squared spectral norm of M).

    Power iteration on the smaller Gram matrix with a residual-based stop;
    the Bauer-Fike bound for symmetric matrices makes the residual a direct
    error bound on the returned eigenvalue (well inside 1e-6 relative).
    """
    M = _as_matrix(M)
    S = gram(M) if M.shape[0] <= M.shape[1] else gram(M.T)
    n = S.shape[0]
    scale = np.abs(S).max()
    if scale == 0.0:
        return 0.0
    v = np.full(n, 1.0 / np.sqrt(n))
    rng = np.random.default_rng(0)
    for restart in range(4):
        w = S @ v
        lam = 0.0
        for _ in range(20_000):
            nw = np.linalg.norm(w)
            if nw == 0.0:
                break
            v = w / nw
            w = S @ v
            lam = float(v @ w)
            if np.linalg.norm(w - lam * v) <= 1e-8 * max(lam, 1e-300 * scale):
                return lam
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
    # Pathological spectra only; fall back to the dense eigensolver.
    w_all, _ = sym_eig(S)
    return float(w_all[-1])


def matrix_text(M, comments=()):
    """A matrix in the text format: optional '#' comment lines, then a
    "rows cols" line, then one line of 17-significant-digit reals per row."""
    M = _as_matrix(M)
    lines = [f"# {c}" for c in comments]
    lines.append(f"{M.shape[0]} {M.shape[1]}")
    for row in M:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def save_matrix_text(path, M, comments=()):
    """Write :func:`matrix_text` of ``M`` to ``path``."""
    text = matrix_text(M, comments)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_matrix_text(path):
    """Read a matrix written by :func:`save_matrix_text`.

    Returns (matrix, comment lines without the leading '#')."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    comments = []
    body = []
    for line in raw:
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if not body:
                comments.append(stripped[1:].strip())
            continue
        body.append(stripped)
    if not body:
        raise MatrixFormatError(f"{path}: no dimension line found")
    dims = body[0].split()
    if len(dims) != 2:
        raise MatrixFormatError(f"{path}: dimension line must be 'rows cols'")
    try:
        rows, cols = int(dims[0]), int(dims[1])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: bad dimension line {body[0]!r}") from exc
    if rows <= 0 or cols <= 0:
        raise MatrixFormatError(f"{path}: dimensions must be positive")
    values = []
    for line in body[1:]:
        values.extend(line.split())
    if len(values) != rows * cols:
        raise MatrixFormatError(
            f"{path}: expected {rows * cols} values, found {len(values)}"
        )
    try:
        M = np.array([float(x) for x in values], dtype=np.float64).reshape(rows, cols)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-numeric matrix entry") from exc
    if not np.all(np.isfinite(M)):
        raise MatrixFormatError(f"{path}: non-finite matrix entry")
    return M, comments
