"""Minimal dense linear algebra for the solvers.

Matrices and vectors are plain numpy float64 arrays (row-major). The few
routines here are exactly what the coding and row-update stages need:
the box clip, which clips its argument in place, the eigenvector of the
smallest eigenvalue of each matrix in a stack of symmetric matrices (LAPACK
``eigh`` behind an input check), the squared spectral norm, and the matrix
text format.

It is also the one home of the three input checks the other modules share:
``_as_matrix`` (a nonempty, finite, 2-d float array: an image, an
operator), ``_as_images`` (a nonempty list of such images, all of one
shape: the fuse inputs, the metric arguments) and ``_check_setting`` (a
finite, nonnegative or positive float setting).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "clip_box",
    "sym_eig_smallest",
    "spectral_norm_sq",
    "matrix_text",
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


def _as_images(images, names):
    """Each image through ``_as_matrix`` under its name in ``names``, as a
    list. An empty list is a ``ValueError``, and so is an image whose shape
    differs from the first image's: the message names both, with shapes."""
    if len(images) == 0:
        raise ValueError("need at least one input image")
    arrays = [_as_matrix(img, name) for img, name in zip(images, names)]
    for arr, name in zip(arrays[1:], names[1:]):
        if arr.shape != arrays[0].shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected "
                             f"{arrays[0].shape} like {names[0]}")
    return arrays


def _check_setting(name, value, positive=False):
    """Reject a float setting that is not finite, is negative or, if
    ``positive``, is zero. Written so that NaN fails too."""
    low_ok = value > 0 if positive else value >= 0
    if not (math.isfinite(value) and low_ok):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")


def clip_box(v, tau):
    """Componentwise projection of the float array ``v`` onto the box
    [-tau, tau], in place; returns ``v``. Accepts arrays of any shape and
    memory order; ``tau`` must be a nonnegative scalar (NaN is rejected
    too)."""
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    return np.clip(v, -tau, tau, out=v)


def _check_symmetric(S):
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 3 or S.size == 0:
        raise ValueError("symmetric matrices must be a nonempty k-by-m-by-m "
                         f"stack, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("symmetric matrix contains non-finite entries")
    if S.shape[1] != S.shape[2]:
        raise ValueError(f"matrices must be square, got shape {S.shape}")
    # Each matrix against its own scale; an all-zero one is symmetric.
    scale = np.abs(S).max(axis=(1, 2))
    if np.any(np.abs(S - S.transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-10 * scale):
        raise ValueError("matrix is not symmetric within 1e-10 relative tolerance")
    return S


def sym_eig_smallest(S):
    """Eigenvector of the smallest eigenvalue of each matrix in a
    k-by-m-by-m stack of symmetric matrices (one LAPACK ``eigh`` call).

    Returns a k-by-m array, in its own memory, whose row i is matrix i's
    unit eigenvector, bit-equal to a call on a stack of that matrix alone.
    The eigenvalues are not returned: the row update, the one caller, needs
    only the vectors. For degenerate spectra any minimizing
    eigenvector may be returned. Raises ``ValueError`` if ``S`` is not such
    a stack or any matrix is non-finite or asymmetric (relative to its own
    largest entry), and ``numpy.linalg.LinAlgError`` if LAPACK does not
    converge.
    """
    S = _check_symmetric(S)
    _, V = np.linalg.eigh(S)
    return V[:, :, 0].copy()  # a view would pin all of V


def spectral_norm_sq(M):
    """Largest eigenvalue of M.T @ M (the squared spectral norm of M)."""
    return float(np.linalg.norm(_as_matrix(M), 2) ** 2)


def _grid_text(header_lines, M, fmt):
    """The ``header_lines``, then one line per row of the 2-d array ``M``:
    its entries in the printf format ``fmt``, separated by spaces."""
    row_format = " ".join([fmt] * M.shape[1])
    lines = [*header_lines, *(row_format % tuple(row) for row in M.tolist())]
    return "\n".join(lines) + "\n"


def matrix_text(M, comments=()):
    """A matrix in the text format: optional '#' comment lines, then a
    "rows cols" line, then one line of 17-significant-digit reals per row."""
    M = _as_matrix(M)
    header = [*(f"# {c}" for c in comments), f"{M.shape[0]} {M.shape[1]}"]
    return _grid_text(header, M, "%.17g")


def load_matrix_text(path):
    """Read a matrix in the :func:`matrix_text` format; comment lines are
    skipped."""
    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    body = [s for s in map(str.strip, raw) if s and not s.startswith("#")]
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
    values = " ".join(body[1:]).split()
    if len(values) != rows * cols:
        raise MatrixFormatError(
            f"{path}: expected {rows * cols} values, found {len(values)}"
        )
    try:
        M = np.array(values, dtype=np.float64).reshape(rows, cols)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-numeric matrix entry") from exc
    if not np.all(np.isfinite(M)):
        raise MatrixFormatError(f"{path}: non-finite matrix entry")
    return M
