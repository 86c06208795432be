"""Tests for PGM I/O, noise injection, blur, and the multi-focus generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cosfuse import imageio, metrics


# ---------------------------------------------------------------------------
# PGM round trips

def test_pgm_round_trip_small():
    img = np.array([[0.0, 64.0], [128.0, 255.0]])
    out = imageio.read_pgm(imageio.write_pgm(img))
    np.testing.assert_array_equal(out, img)


def test_pgm_rejects_ascii_magic():
    data = b"P2\n2 2\n255\n0 0 0 0\n"
    with pytest.raises(imageio.PgmFormatError):
        imageio.read_pgm(data)


def test_pgm_rejects_wrong_maxval():
    data = b"P5\n1 1\n65535\n" + bytes(2)
    with pytest.raises(imageio.PgmFormatError):
        imageio.read_pgm(data)


def test_pgm_truncated_payload_reports_offset():
    good = imageio.write_pgm(np.zeros((4, 4)))
    with pytest.raises(imageio.PgmFormatError) as err:
        imageio.read_pgm(good[:-3])
    assert err.value.offset == len(good) - 3


def test_pgm_bad_maxval_offset_is_the_token_start():
    # The token "0256" is four bytes long, and str(256) three.
    with pytest.raises(imageio.PgmFormatError) as err:
        imageio.read_pgm(b"P5\n2 2\n0256\n" + bytes(4))
    assert err.value.offset == 7


@pytest.mark.parametrize("data, name, offset", [
    (b"P5\n1_6 1\n255\n" + bytes(16), "width", 3),
    (b"P5\n+2 2\n255\n" + bytes(4), "width", 3),
    (b"P5\n2 2\n0_255\n" + bytes(4), "maxval", 7),
], ids=["separator-in-width", "signed-width", "separator-in-maxval"])
def test_pgm_header_numbers_are_ascii_digits_only(data, name, offset):
    """As in netpbm, a header number is a run of ASCII digits: no sign and
    no '_' separators, which Python's ``int`` would accept."""
    with pytest.raises(imageio.PgmFormatError, match=f"invalid {name} token") as err:
        imageio.read_pgm(data)
    assert err.value.offset == offset


def test_pgm_write_clamps_and_rounds():
    img = np.array([[-4.0, 920.0], [1.4, 1.5]])
    out = imageio.read_pgm(imageio.write_pgm(img))
    np.testing.assert_array_equal(out, [[0.0, 255.0], [1.0, 2.0]])


_INTEGER_IMAGES = hnp.arrays(
    np.int64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.integers(min_value=0, max_value=255))

# One of the six PGM whitespace bytes, and a '#' comment: any bytes but CR
# and LF, then the CR or LF that ends it.
_PGM_SPACE = st.sampled_from([bytes([c]) for c in b" \t\n\r\x0b\x0c"])
_PGM_COMMENT = st.tuples(
    st.binary(max_size=8), st.sampled_from([b"\n", b"\r"]),
).map(lambda parts: (b"#" + parts[0].replace(b"\n", b"").replace(b"\r", b"")
                     + parts[1]))
# What may stand between two header tokens: any nonempty run of whitespace
# and comments. A comment ends a token, so it may follow one directly.
_PGM_SEPARATOR = st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT),
                          min_size=1, max_size=5).map(b"".join)


@settings(max_examples=30, deadline=None)
@given(_INTEGER_IMAGES)
def test_pgm_round_trip_random_integer_images(values):
    img = values.astype(np.float64)
    np.testing.assert_array_equal(imageio.read_pgm(imageio.write_pgm(img)), img)


@settings(max_examples=100, deadline=None)
@given(_INTEGER_IMAGES, st.lists(_PGM_SEPARATOR, min_size=3, max_size=3),
       _PGM_SPACE)
def test_pgm_header_separators_and_comments(values, separators, last):
    """Whitespace runs and comment lines between the header tokens, and any
    one whitespace byte before the payload, decode to the image that
    ``write_pgm``'s canonical header gives."""
    canonical = imageio.write_pgm(values.astype(np.float64))
    height, width = values.shape
    tokens = [b"P5", b"%d" % width, b"%d" % height, b"255"]
    header = b"".join(t + sep for t, sep in zip(tokens, [*separators, last]))
    payload = canonical[-values.size:]
    np.testing.assert_array_equal(imageio.read_pgm(header + payload),
                                  imageio.read_pgm(canonical))


@pytest.mark.parametrize("data", [
    b"P5 2#c\n2 255\n" + bytes([1, 2, 3, 4]),
    b"P5\n2 2\n255#c\n" + bytes([1, 2, 3, 4]),
    b"P5\n#c\r2 2\n255\n" + bytes([1, 2, 3, 4]),
    b"P5#c\r2\r\n#\n2#\n255#c\r" + bytes([1, 2, 3, 4]),
], ids=["in-width", "after-maxval", "ended-by-cr", "after-every-token"])
def test_pgm_comment_inside_a_token_or_ended_by_cr(data):
    """As in netpbm, a comment runs from '#' to the next CR or LF, even
    inside a token, which it ends; after maxval, its CR or LF is the byte
    before the payload."""
    np.testing.assert_array_equal(imageio.read_pgm(data), [[1.0, 2.0], [3.0, 4.0]])


def test_pgm_comment_after_maxval_needs_its_line_end():
    data = b"P5\n2 2\n255#c" + bytes(4)
    with pytest.raises(imageio.PgmFormatError, match="missing whitespace") as err:
        imageio.read_pgm(data)
    assert err.value.offset == len(data)


def test_pgm_comment_running_to_the_end_of_the_data():
    data = b"P5\n2 2\n# no newline, no maxval"
    with pytest.raises(imageio.PgmFormatError, match="unexpected end of header") as err:
        imageio.read_pgm(data)
    assert err.value.offset == len(data)


def test_pgm_file_helpers(tmp_path):
    img = np.arange(12, dtype=float).reshape(3, 4)
    path = tmp_path / "img.pgm"
    imageio.save_pgm(path, img)
    np.testing.assert_array_equal(imageio.load_pgm(path), img)


def test_load_pgm_names_the_file_once(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n0256\n" + bytes(4))
    with pytest.raises(ValueError) as info:
        imageio.load_pgm(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1
    assert "byte offset 7" in message


# ---------------------------------------------------------------------------
# noise

def test_noise_zero_sigma_is_identity():
    img = np.random.default_rng(0).uniform(0, 255, (16, 16))
    np.testing.assert_array_equal(imageio.add_gaussian_noise(img, 0.0, 1), img)


def test_noise_moments_sigma_15():
    img = np.full((256, 256), 100.0)
    noisy = imageio.add_gaussian_noise(img, 15.0, seed=1234)
    delta = noisy - img
    assert abs(delta.mean()) < 0.4
    assert abs(delta.std() - 15.0) < 0.5


def test_noise_deterministic_per_seed():
    img = np.zeros((8, 8))
    a = imageio.add_gaussian_noise(img, 5.0, seed=7)
    b = imageio.add_gaussian_noise(img, 5.0, seed=7)
    np.testing.assert_array_equal(a, b)
    c = imageio.add_gaussian_noise(img, 5.0, seed=8)
    assert not np.array_equal(a, c)


def test_noise_rejects_negative_seed_at_zero_sigma():
    with pytest.raises(ValueError):
        imageio.add_gaussian_noise(np.zeros((2, 2)), 0.0, -1)


def test_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        imageio.add_gaussian_noise(np.zeros((2, 2)), -1.0, 0)


def test_noise_uncorrelated_with_clean_image():
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 255, (64, 64))
    noise = imageio.add_gaussian_noise(img, 10.0, seed=5) - img
    rho = np.corrcoef(img.ravel(), noise.ravel())[0, 1]
    assert abs(rho) < 0.05


# ---------------------------------------------------------------------------
# blur

def test_blur_zero_sigma_identity():
    img = np.random.default_rng(1).uniform(0, 255, (10, 12))
    np.testing.assert_array_equal(imageio.gaussian_blur(img, 0.0), img)


def test_blur_constant_unchanged():
    img = np.full((9, 9), 77.0)
    np.testing.assert_allclose(imageio.gaussian_blur(img, 1.5), img, atol=1e-12)


def test_blur_impulse_reproduces_kernel():
    sigma = 1.0
    # independent kernel construction
    radius = int(np.ceil(3 * sigma))
    offs = np.arange(-radius, radius + 1)
    k = np.exp(-offs ** 2 / (2 * sigma ** 2))
    k /= k.sum()
    size = 4 * radius + 1
    img = np.zeros((size, size))
    img[size // 2, size // 2] = 1.0
    out = imageio.gaussian_blur(img, sigma)
    lo, hi = size // 2 - radius, size // 2 + radius + 1
    np.testing.assert_allclose(out[lo:hi, lo:hi], np.outer(k, k), atol=1e-12)


def test_blur_preserves_mean():
    rng = np.random.default_rng(4)
    img = rng.uniform(0, 255, (21, 17))
    out = imageio.gaussian_blur(img, 2.0)
    assert out.mean() == pytest.approx(img.mean(), rel=1e-9)


# ---------------------------------------------------------------------------
# synthetic multi-focus pairs

def _texture(width, height, seed=0):
    yy, xx = np.mgrid[0:height, 0:width]
    img = (120 + 55 * np.sin(0.31 * xx) * np.sin(0.37 * yy)
           + 35 * np.sin(0.83 * xx + 0.29 * yy)
           + 25 * np.cos(1.61 * xx - 0.57 * yy))
    rng = np.random.default_rng(seed)
    img = img + imageio.gaussian_blur(rng.uniform(-20, 20, (height, width)), 1.0)
    return np.clip(img, 0, 255)


def test_synth_zero_blur_returns_truth():
    truth = _texture(24, 20)
    a, b = imageio.synth_multifocus(truth, 0.0, split=12)
    np.testing.assert_array_equal(a, truth)
    np.testing.assert_array_equal(b, truth)


def test_synth_sharp_sides_exact():
    truth = _texture(40, 30)
    a, b = imageio.synth_multifocus(truth, 2.0, split=20)
    np.testing.assert_array_equal(a[:, :20], truth[:, :20])
    np.testing.assert_array_equal(b[:, 20:], truth[:, 20:])
    assert not np.array_equal(a[:, 20:], truth[:, 20:])


def test_synth_psnr_finite_below_cap():
    truth = _texture(64, 64)
    a, b = imageio.synth_multifocus(truth, 2.0, split=32)
    for img in (a, b):
        value = metrics.psnr(img, truth)
        assert np.isfinite(value) and value < metrics.PSNR_CAP_DB


def test_synth_rejects_bad_split():
    truth = _texture(16, 16)
    for split in (0, 16, -3):
        with pytest.raises(ValueError):
            imageio.synth_multifocus(truth, 1.0, split)
