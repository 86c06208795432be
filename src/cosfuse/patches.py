"""Sliding-window patch extraction and overlap-add reconstruction.

A grid describes where n-by-n windows sit on an image: windows step by
``n - overlap`` pixels and the final window on each axis is clamped to the
image edge when the stride does not tile the dimension exactly.

Images are 2-d float64 arrays indexed [row, col]. The patches of an image
are the columns of one (n*n, cells) matrix, cells in grid row-major order,
each column the window flattened row-major. ``overlap_add_matrix`` averages
every patch contribution per pixel, so ``extract_matrix`` followed by
``overlap_add_matrix`` is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PatchGrid", "patch_side", "build_grid", "extract_matrix",
           "overlap_add_matrix"]


@dataclass(frozen=True)
class PatchGrid:
    """Geometry of a sliding-window decomposition of one image."""

    patch_size: int
    grid_rows: int
    grid_cols: int
    row_offsets: tuple
    col_offsets: tuple
    image_width: int
    image_height: int

    @property
    def cell_count(self):
        return self.grid_rows * self.grid_cols

    @property
    def patch_dim(self):
        return self.patch_size * self.patch_size


def patch_side(m):
    """The side n of the n-by-n patches that an operator with signal
    dimension ``m`` analyzes. ``m`` must be n*n for some n >= 1."""
    n = math.isqrt(max(m, 0))
    if n < 1 or n * n != m:
        raise ValueError(
            f"signal dimension m={m} is not n*n for a patch side n >= 1")
    return n


def _axis_offsets(dim, n, stride):
    offsets = list(range(0, dim - n + 1, stride))
    if offsets[-1] != dim - n:
        offsets.append(dim - n)
    return tuple(offsets)


def build_grid(width, height, n, p):
    """Build the patch grid for a width-by-height image.

    ``n`` is the patch side, ``p`` the overlap between neighbouring patches
    (stride is n - p). Requires n <= min(width, height) and 0 <= p < n.
    """
    if n <= 0:
        raise ValueError(f"patch size must be positive, got {n}")
    if n > min(width, height):
        raise ValueError(
            f"patch size {n} exceeds image dimensions {width}x{height}"
        )
    if not 0 <= p < n:
        raise ValueError(f"overlap must satisfy 0 <= p < n, got p={p}, n={n}")
    stride = n - p
    row_offsets = _axis_offsets(height, n, stride)
    col_offsets = _axis_offsets(width, n, stride)
    return PatchGrid(
        patch_size=n,
        grid_rows=len(row_offsets),
        grid_cols=len(col_offsets),
        row_offsets=row_offsets,
        col_offsets=col_offsets,
        image_width=width,
        image_height=height,
    )


def _check_image(image, grid):
    image = np.asarray(image, dtype=np.float64)
    if image.shape != (grid.image_height, grid.image_width):
        raise ValueError(
            f"image shape {image.shape} does not match grid "
            f"({grid.image_height}, {grid.image_width})"
        )
    return image


def extract_matrix(image, grid):
    """Extract all patches as the columns of a new C-ordered (n*n, cells)
    matrix.

    Columns are ordered row-major over grid cells; each column is the window
    flattened row-major.
    """
    image = _check_image(image, grid)
    n = grid.patch_size
    windows = np.lib.stride_tricks.sliding_window_view(image, (n, n))
    rows = np.asarray(grid.row_offsets)
    cols = np.asarray(grid.col_offsets)
    # One index on both axes gathers just the grid's windows; indexing the
    # rows first would copy every column offset of them.
    blocks = windows[rows[:, None], cols]  # (grid_rows, grid_cols, n, n)
    return blocks.reshape(grid.cell_count, grid.patch_dim).T.copy()


def _pixel_index(grid):
    """Flat image index of every patch pixel, cell-major: the n*n pixels of
    cell 0 (window row-major), then those of cell 1, in grid row-major
    order."""
    n, width = grid.patch_size, grid.image_width
    corners = (np.asarray(grid.row_offsets)[:, None] * width
               + np.asarray(grid.col_offsets)).ravel()
    window = (np.arange(n)[:, None] * width + np.arange(n)).ravel()
    return (corners[:, None] + window).ravel()


def overlap_add_matrix(P, grid):
    """Reassemble an image from a (n*n, cells) patch matrix by averaging.

    ``bincount`` adds the contributions to each pixel in cell order, the
    order of a loop over the cells, so the sums are exactly those of
    adding the patches one by one. Each pixel's sum is divided by the
    number of windows covering it, the product of its row's and its
    column's window counts. It reads P cell-major, so P given as the
    transposed view of a C-ordered (cells, n*n) array is read without a
    copy.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.shape != (grid.patch_dim, grid.cell_count):
        raise ValueError(
            f"patch matrix shape {P.shape} does not match grid "
            f"({grid.patch_dim}, {grid.cell_count})"
        )
    n, height, width = grid.patch_size, grid.image_height, grid.image_width
    accum = np.bincount(_pixel_index(grid), weights=P.T.ravel(),
                        minlength=height * width)
    row_cover, col_cover = (
        np.bincount((np.asarray(offsets)[:, None] + np.arange(n)).ravel(),
                    minlength=dim)
        for offsets, dim in ((grid.row_offsets, height), (grid.col_offsets, width)))
    return accum.reshape(height, width) / np.outer(row_cover, col_cover)
