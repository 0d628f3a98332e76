"""Seeded workload inputs and the benchmark's own binary PGM codec.

The benchmark generates and parses images itself instead of calling
``sliceblur.synth`` and ``sliceblur.pgm``: a change to either module must
not silently change the inputs a workload feeds the program, nor the
parser that checks the program's output files.
"""

from __future__ import annotations

import os

import numpy as np


def one_over_f(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Float image in [0, 1] whose amplitude spectrum falls off as 1/|u|."""
    noise = np.fft.rfft2(rng.standard_normal((height, width)))
    fy = np.fft.fftfreq(height)[:, None] * height
    fx = np.fft.rfftfreq(width)[None, :] * width
    freq = np.hypot(fy, fx)
    freq[0, 0] = np.inf  # drop the DC term
    image = np.fft.irfft2(noise / freq, s=(height, width))
    lo, hi = image.min(), image.max()
    return (image - lo) / (hi - lo)


def _dtype(maxval: int) -> np.dtype:
    return np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)


def quantize(image: np.ndarray, maxval: int) -> np.ndarray:
    """Round a [0, 1] float image to integer levels 0..maxval."""
    return np.rint(np.clip(image, 0.0, 1.0) * maxval).astype(np.int64)


def write_pgm(path, levels: np.ndarray, maxval: int):
    """Write integer levels as a P5 file (16-bit samples are big-endian).

    The file is synced so that its write-back does not fall into the timed
    loop that reads it.
    """
    h, w = levels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (w, h, maxval))
        fh.write(levels.astype(_dtype(maxval)).tobytes())
        fh.flush()
        os.fsync(fh.fileno())


def read_pgm_levels(path) -> tuple[np.ndarray, int]:
    """Parse a P5 file into (integer levels, maxval); raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            pos = data.find(b"\n", pos)
            if pos < 0:
                raise ValueError(f"{path}: truncated PGM header")
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a P5 file")
    width, height, maxval = (int(f) for f in fields[1:])
    count = width * height
    dtype = _dtype(maxval)
    pixels = data[pos + 1 :]
    if len(pixels) != count * dtype.itemsize:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for {width}x{height}")
    levels = np.frombuffer(pixels, dtype=dtype).reshape(height, width)
    return levels.astype(np.int64), maxval
