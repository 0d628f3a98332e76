"""Binary PGM (P5) grayscale image I/O.

Pixels map linearly to [0, 1] floats on read: float32 for 8-bit files,
so that the filters run in float32, and float64 for 16-bit files, whose
levels a float32 filter would miss by several steps at 2048².  Writing
quantizes with round-to-nearest and rejects NaN and infinite pixels.  Both
8-bit and 16-bit (big-endian) maxvals are supported.  Headers are written
in a fixed form so equal images produce byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .filtering import as_float


def _tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    while True:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            return
        yield data[start:i], i


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a P5 file; returns (float image in [0, 1], maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    toks = _tokens(data)
    try:
        magic, _ = next(toks)
        if magic != b"P5":
            raise ValueError(f"{path}: not a binary PGM (P5) file")
        width, _ = next(toks)
        height, _ = next(toks)
        maxval, end = next(toks)
    except StopIteration:
        raise ValueError(f"{path}: truncated PGM header") from None
    try:
        width, height = int(width), int(height)
    except ValueError:
        size = (width + b" " + height).decode("latin-1")
        raise ValueError(f"{path}: bad image size {size!r}") from None
    try:
        maxval = int(maxval)
    except ValueError:
        raise ValueError(f"{path}: bad maxval {maxval.decode('latin-1')!r}") from None
    if width <= 0 or height <= 0:
        raise ValueError(f"{path}: bad image size {width}x{height}")
    if not (0 < maxval < 65536):
        raise ValueError(f"{path}: bad maxval {maxval}")
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    count = width * height
    if len(data) - (end + 1) < count * dtype.itemsize:
        raise ValueError(f"{path}: truncated pixel data")
    raw = np.frombuffer(data, dtype=dtype, count=count, offset=end + 1)
    pixel_type = np.float32 if maxval <= 255 else np.float64
    return np.divide(raw.reshape(height, width), maxval, dtype=pixel_type), maxval


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
    dtype = np.dtype(">u2") if maxval > 255 else np.uint8
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (w, h, maxval))
        fh.write(q.astype(dtype))
