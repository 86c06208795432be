"""Tests for patch extraction and overlap-add reconstruction."""

import numpy as np
import pytest

from cosfuse import patches


def test_build_grid_exact_tiling():
    g = patches.build_grid(13, 13, n=7, p=1)
    assert g.row_offsets == (0, 6)
    assert g.col_offsets == (0, 6)
    assert (g.grid_rows, g.grid_cols) == (2, 2)


def test_build_grid_clamped_last_offset():
    g = patches.build_grid(12, 12, n=7, p=1)
    assert g.row_offsets == (0, 5)
    assert g.col_offsets == (0, 5)


def test_build_grid_single_patch():
    g = patches.build_grid(7, 7, n=7, p=1)
    assert (g.grid_rows, g.grid_cols) == (1, 1)
    assert g.row_offsets == (0,)


def test_build_grid_rejects_oversized_patch():
    with pytest.raises(ValueError):
        patches.build_grid(5, 9, n=7, p=1)


def test_build_grid_rejects_bad_overlap():
    with pytest.raises(ValueError):
        patches.build_grid(10, 10, n=4, p=4)
    with pytest.raises(ValueError):
        patches.build_grid(10, 10, n=4, p=-1)


def test_patch_side_is_the_square_root_of_m():
    assert [patches.patch_side(m) for m in (1, 25, 49)] == [1, 5, 7]
    for m in (-4, 0, 10, 48):
        with pytest.raises(ValueError, match=f"m={m}"):
            patches.patch_side(m)


def test_extract_constant_image():
    g = patches.build_grid(10, 8, n=3, p=1)
    P = patches.extract_matrix(np.full((8, 10), 4.5), g)
    assert P.shape == (9, g.grid_rows * g.grid_cols)
    np.testing.assert_array_equal(P, np.full(P.shape, 4.5))


def test_extract_indexing_on_ramp():
    img = np.arange(13 * 13, dtype=float).reshape(13, 13)
    g = patches.build_grid(13, 13, n=7, p=1)
    P = patches.extract_matrix(img, g)
    assert P[0, 0] == img[0, 0]
    # cell (1, 1) is column grid_cols + 1 in row-major cell order
    assert P[0, g.grid_cols + 1] == img[6, 6]
    # row-major vectorization inside the patch
    np.testing.assert_array_equal(P[:7, 0], img[0, :7])


def test_extract_matches_cell_loop_on_clamped_nonsquare_image():
    img = np.random.default_rng(4).standard_normal((19, 27))
    g = patches.build_grid(27, 19, n=5, p=2)
    # Neither 19 - 5 nor 27 - 5 is a multiple of the stride 3, so the last
    # offset on each axis is clamped to the edge.
    assert g.row_offsets[-1] - g.row_offsets[-2] < 3
    assert g.col_offsets[-1] - g.col_offsets[-2] < 3
    expected = np.empty((g.patch_dim, g.cell_count))
    cell = 0
    for r in g.row_offsets:
        for c in g.col_offsets:
            expected[:, cell] = img[r:r + 5, c:c + 5].ravel()
            cell += 1
    P = patches.extract_matrix(img, g)
    assert P.flags.c_contiguous
    assert P.tobytes() == expected.tobytes()


def test_extract_rejects_mismatched_image():
    g = patches.build_grid(10, 10, n=3, p=0)
    with pytest.raises(ValueError):
        patches.extract_matrix(np.zeros((9, 10)), g)


def test_overlap_add_single_patch_reshape():
    g = patches.build_grid(4, 4, n=4, p=1)
    data = np.arange(16, dtype=float)
    out = patches.overlap_add_matrix(data[:, None], g)
    np.testing.assert_array_equal(out, data.reshape(4, 4))


def test_overlap_add_two_cover_average():
    # width 3, n=2, p=1: two patches share the middle column.
    g = patches.build_grid(3, 2, n=2, p=1)
    assert (g.grid_rows, g.grid_cols) == (1, 2)
    P = np.column_stack([np.zeros(4), np.full(4, 2.0)])
    out = patches.overlap_add_matrix(P, g)
    np.testing.assert_array_equal(out[:, 0], [0.0, 0.0])
    np.testing.assert_array_equal(out[:, 1], [1.0, 1.0])
    np.testing.assert_array_equal(out[:, 2], [2.0, 2.0])


def test_overlap_add_rejects_missing_cell():
    g = patches.build_grid(6, 6, n=3, p=1)
    P = patches.extract_matrix(np.zeros((6, 6)), g)
    with pytest.raises(ValueError, match="does not match grid"):
        patches.overlap_add_matrix(P[:, :-1], g)


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_round_trip_identity(n, p):
    rng = np.random.default_rng(n * 10 + p)
    img = rng.uniform(0, 255, size=(23, 31))
    g = patches.build_grid(31, 23, n=n, p=p)
    out = patches.overlap_add_matrix(patches.extract_matrix(img, g), g)
    assert np.abs(out - img).max() <= 1e-12


@pytest.mark.parametrize("n,p", [(3, 0), (5, 2), (7, 1), (4, 3)])
def test_coverage_at_least_one(n, p):
    # Every pixel is covered: averaging all-ones patches gives exactly 1.
    g = patches.build_grid(17, 11, n=n, p=p)
    out = patches.overlap_add_matrix(np.ones((g.patch_dim, g.cell_count)), g)
    assert np.all(out == 1.0)


def test_extract_is_linear():
    rng = np.random.default_rng(8)
    g = patches.build_grid(14, 12, n=5, p=2)
    i1 = rng.standard_normal((12, 14))
    i2 = rng.standard_normal((12, 14))
    a, b = 2.5, -1.25
    lhs = patches.extract_matrix(a * i1 + b * i2, g)
    rhs = a * patches.extract_matrix(i1, g) + b * patches.extract_matrix(i2, g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def _loop_overlap_add(P, grid):
    """The cell-by-cell overlap-add that ``overlap_add_matrix`` replaced."""
    n = grid.patch_size
    accum = np.zeros((grid.image_height, grid.image_width))
    counts = np.zeros_like(accum)
    cell = 0
    for r in grid.row_offsets:
        for c in grid.col_offsets:
            accum[r:r + n, c:c + n] += P[:, cell].reshape(n, n)
            counts[r:r + n, c:c + n] += 1.0
            cell += 1
    return accum / counts


@pytest.mark.parametrize("side,p", [(61, 3), (64, 4)])
def test_overlap_add_matrix_matches_loop_bit_for_bit(side, p):
    g = patches.build_grid(side, side, n=7, p=p)
    # The last window on each axis is clamped to the edge when the stride
    # does not tile the image (61 at stride 4).
    clamped = (side - 7) % (7 - p) != 0
    assert clamped == (side == 61)
    P = np.random.default_rng(side).standard_normal((g.patch_dim, g.cell_count))
    expected = _loop_overlap_add(P, g)
    assert patches.overlap_add_matrix(P, g).tobytes() == expected.tobytes()


def test_overlap_add_matrix_reads_a_transposed_view():
    # The coder returns X as the (m, N) view of an (N, m) array.
    g = patches.build_grid(27, 19, n=5, p=2)
    rows = np.random.default_rng(6).standard_normal((g.cell_count, g.patch_dim))
    view = rows.T
    assert not view.flags.c_contiguous
    copy = np.ascontiguousarray(view)
    assert (patches.overlap_add_matrix(view, g).tobytes()
            == patches.overlap_add_matrix(copy, g).tobytes())
