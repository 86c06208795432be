"""Grayscale image I/O, noise injection, and the synthetic multi-focus pair
generator used by the test harness.

Images are 2-d float64 arrays with a nominal pixel range of [0, 255]. Only
binary PGM (P5, maxval 255) is supported; writing rounds to nearest (ties to
even) and clamps, so integer-valued in-range images round-trip exactly.

Randomness uses numpy's default generator (PCG64) seeded explicitly, so every
noisy operation is reproducible from its seed argument.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .linalg import _as_matrix, _check_setting

__all__ = [
    "PgmFormatError",
    "read_pgm",
    "write_pgm",
    "load_pgm",
    "save_pgm",
    "add_gaussian_noise",
    "gaussian_blur",
    "synth_multifocus",
]


class PgmFormatError(ValueError):
    """Malformed PGM data; ``offset`` is the byte position of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# As in netpbm, a '#' comment runs to the next CR or LF wherever it starts
# in the header, even inside a token, which it ends.
_COMMENT = rb"#[^\r\n]*"
# One header token: any run of whitespace and comments, then a run of bytes
# that are neither whitespace nor '#', empty only at the end of the data. In
# a bytes pattern, \s is the six ASCII whitespace bytes " \t\n\r\v\f", the
# set ``bytes.isspace`` tests.
_TOKEN = re.compile(rb"(?:\s+|" + _COMMENT + rb")*([^\s#]*)")
# What may follow maxval before the one whitespace byte ahead of the payload.
_MAXVAL_END = re.compile(rb"(?:" + _COMMENT + rb")?")


def _next_token(data, pos):
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise PgmFormatError("unexpected end of header", match.end())
    return match[1], match.end()


def read_pgm(data):
    """Decode binary PGM (P5, maxval 255) bytes into an image array."""
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("read_pgm expects bytes")
    data = bytes(data)
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmFormatError(f"unsupported magic {magic!r}, only P5 accepted", 0)
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        # ASCII digits only: int() would also take a sign and '_' separators.
        if not token.isdigit():
            raise PgmFormatError(f"invalid {name} token {token!r}",
                                 pos - len(token))
        value = int(token)
        if value <= 0:
            raise PgmFormatError(f"{name} must be positive, got {value}",
                                 pos - len(token))
        fields.append(value)
    width, height, maxval = fields
    if maxval != 255:
        raise PgmFormatError(f"unsupported maxval {maxval}, only 255 accepted",
                             pos - len(token))
    # A comment straight after maxval: its CR or LF precedes the payload.
    pos = _MAXVAL_END.match(data, pos).end()
    if not data[pos:pos + 1].isspace():
        raise PgmFormatError("missing whitespace before pixel payload", pos)
    pos += 1
    expected = width * height
    payload = data[pos:pos + expected]
    if len(payload) < expected:
        raise PgmFormatError(
            f"truncated payload: expected {expected} bytes, found {len(payload)}",
            len(data),
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    return pixels.reshape(height, width)


def write_pgm(image):
    """Encode an image as binary PGM bytes (rounded and clamped to 0..255)."""
    image = _as_matrix(image, "image")
    height, width = image.shape
    arr = np.clip(np.rint(image), 0.0, 255.0).astype(np.uint8)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + arr.tobytes()


def load_pgm(path):
    """Read a binary PGM file. Malformed data raises a ValueError whose
    message starts with the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return read_pgm(data)
    except PgmFormatError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_pgm(path, image):
    with open(path, "wb") as fh:
        fh.write(write_pgm(image))


def add_gaussian_noise(image, sigma, seed):
    """Add i.i.d. zero-mean Gaussian noise with standard deviation ``sigma``.

    No clamping is applied; downstream solvers see the unclamped values.
    """
    image = _as_matrix(image, "image")
    _check_setting("sigma", sigma)
    rng = np.random.default_rng(seed)  # a bad seed is bad input at every sigma
    if sigma == 0:
        return image.copy()
    return image + rng.normal(0.0, sigma, size=image.shape)


def gaussian_kernel(sigma):
    """Normalized truncated Gaussian kernel with radius ceil(3*sigma)."""
    _check_setting("sigma", sigma)
    if sigma == 0:
        return np.ones(1)
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return kernel / kernel.sum()


def _convolve_axis(image, kernel, axis):
    radius = (kernel.size - 1) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    padded = np.pad(image, pad, mode="symmetric")
    out = np.zeros_like(image)
    length = image.shape[axis]
    for k, w in enumerate(kernel):
        if axis == 0:
            out += w * padded[k:k + length, :]
        else:
            out += w * padded[:, k:k + length]
    return out


def gaussian_blur(image, sigma_b):
    """Separable Gaussian blur with symmetric (reflective) boundary handling.

    ``sigma_b = 0`` returns a copy of the input unchanged.
    """
    image = _as_matrix(image, "image")
    kernel = gaussian_kernel(sigma_b)
    if kernel.size == 1:
        return image.copy()
    return _convolve_axis(_convolve_axis(image, kernel, 0), kernel, 1)


def synth_multifocus(truth, sigma_b, split):
    """Produce a two-image multi-focus pair from a ground-truth image.

    The whole image is blurred once, then composited by a column mask: the
    first output is sharp left of ``split`` and blurred from ``split`` on,
    the second is the opposite. Returns (focus_left, focus_right).
    """
    truth = _as_matrix(truth, "image")
    width = truth.shape[1]
    if not 0 < split < width:
        raise ValueError(f"split must be inside (0, {width}), got {split}")
    blurred = gaussian_blur(truth, sigma_b)
    focus_left = truth.copy()
    focus_left[:, split:] = blurred[:, split:]
    focus_right = blurred.copy()
    focus_right[:, split:] = truth[:, split:]
    return focus_left, focus_right
