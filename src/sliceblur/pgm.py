"""Binary PGM (P5) grayscale image I/O.

Pixels map linearly to [0, 1] floats on read: by default float32 for
8-bit files and float64 for 16-bit files.  ``sliceblur filter`` asks for
float32 at both depths, and its float32 filter keeps 16-bit output within
about a level of the float64 result (see the ``filtering`` module).  Writing
quantizes with round-to-nearest and rejects NaN and infinite pixels.  Both
8-bit and 16-bit (big-endian) maxvals are supported.  Headers are written
in a fixed form so equal images produce byte-identical files.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .filtering import _empty, as_float


# One header field: skip whitespace and # comments, then take one run of
# non-space bytes that does not start with #.  A comment must run to the end
# of its line or of the data, so backtracking cannot start a field inside it.
_FIELD = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)")


def _number(token: bytes) -> int | None:
    """A header number of plain ASCII digits, else None."""
    try:
        return int(token) if token.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def _sample_type(maxval: int) -> np.dtype:
    """The raw sample type: one byte up to maxval 255, else two, big-endian."""
    return np.dtype(">u2" if maxval > 255 else np.uint8)


def read_pgm(path, *, pixels=None) -> tuple[np.ndarray, int]:
    """Read a P5 file; returns (float image in [0, 1], maxval).

    ``pixels`` is the image's float type; by default float32 for maxval up
    to 255 and float64 above.  Width, height and maxval must be plain ASCII
    digits.  The image is a new writeable C-contiguous array that starts on
    a cache line (``filtering._empty``) and shares its memory with nothing
    else, so ``sliceblur filter`` writes its output into it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fields, end = [], 0
    for _ in range(4):
        field = _FIELD.match(data, end)
        if field is None:
            raise ValueError(f"{path}: truncated PGM header")
        if not fields and field[1] != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        fields.append(field[1])
        end = field.end()
    _, w, h, m = fields
    width, height, maxval = _number(w), _number(h), _number(m)
    if width is None or height is None:
        raise ValueError(f"{path}: bad image size {(w + b' ' + h).decode('latin-1')!r}")
    if maxval is None:
        raise ValueError(f"{path}: bad maxval {m.decode('latin-1')!r}")
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: bad image size {width}x{height}")
    if not (0 < maxval < 65536):
        raise ValueError(f"{path}: bad maxval {maxval}")
    dtype = _sample_type(maxval)
    count = width * height
    if len(data) - (end + 1) < count * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=end + 1)
    if pixels is None:
        pixels = np.float32 if maxval <= 255 else np.float64
    image = _empty((height, width), pixels)
    np.divide(raw.reshape(height, width), maxval, out=image, dtype=pixels)
    return image, maxval


def write_pgm(path, image, maxval: int = 255):
    """Quantize a [0, 1] float image and write it as P5.

    A float32 image is quantized in float32, anything else in float64.  At
    an exact half-level tie x * maxval may round the other way in float32,
    so a float32 image writes within 1 level of its float64 upcast.
    """
    image = as_float(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("need a non-empty 2D image")
    if not (0 < maxval < 65536):
        raise ValueError(f"bad maxval {maxval}")
    # Round first, then bound: rint(x * maxval) is rint(clip(x, 0, 1) * maxval)
    # for x in [0, 1], and clipping the rounded value to [0, maxval] gives the
    # same integer for x outside it, so in-range images need no clip pass.  A
    # huge finite pixel overflows the multiply to an infinity of its own sign,
    # which the clip also maps to maxval or 0.
    with np.errstate(over="ignore"):
        q = np.multiply(image, maxval, out=np.empty(image.shape, image.dtype))
    np.rint(q, out=q)
    lo, hi = float(q.min()), float(q.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = image.size - np.count_nonzero(np.isfinite(image))
        if bad:
            raise ValueError(f"cannot quantize {bad} non-finite pixel(s) (NaN or inf)")
    if lo < 0.0 or hi > maxval:
        np.clip(q, 0.0, maxval, out=q)
    dtype = _sample_type(maxval)
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (w, h, maxval))
        fh.write(q.astype(dtype))
