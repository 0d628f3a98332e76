"""Ground-truth dense convolutions, quality metrics and operation counts.

Used as the reference against which the running-sum fast path is measured:
dense Gaussian filtering with the same replicate boundary and the same
truncation radius ceil(pi * sigma), so differences reflect only the
piecewise-constant approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import SliceKernel
from .filtering import _block_rows, _empty

#: PSNR reported for identical images (MSE = 0).
PSNR_INF = math.inf


@dataclass(frozen=True)
class OpCounter:
    """Arithmetic totals over the pixels of one filtering run."""

    additions: int
    multiplications: int
    pixels: int

    @property
    def adds_per_px(self) -> float:
        return self.additions / self.pixels

    @property
    def muls_per_px(self) -> float:
        return self.multiplications / self.pixels


def _correlate(a: np.ndarray, dense_kernel, axis: int) -> np.ndarray:
    """Correlate the rows (``axis`` 1) or columns (``axis`` 0) of a 2D
    float64 array with an odd-length kernel, replicate boundary.

    The output is built a cache-sized block of rows at a time
    (``filtering._block_rows``); each tap adds its product into the zeroed
    block in index order, so no result depends on the block size.  The
    column pass reads contiguous row windows, with no transpose.
    """
    taps = np.asarray(dense_kernel, dtype=np.float64)
    if taps.ndim != 1 or taps.size % 2 == 0:
        raise ValueError("dense kernel must be 1D and odd-length")
    r = taps.size // 2
    h, w = a.shape
    pad = ((0, 0), (r, r)) if axis else ((r, r), (0, 0))
    padded = np.pad(a, pad, mode="edge")
    out = np.zeros_like(a)
    step = _block_rows(h, padded.shape[1], a.dtype)
    tmp = _empty((step, w), a.dtype)
    for y0 in range(0, h, step):
        y1 = min(y0 + step, h)
        block, term = out[y0:y1], tmp[: y1 - y0]
        for j, c in enumerate(taps):
            window = padded[y0:y1, j : j + w] if axis else padded[y0 + j : y1 + j]
            np.multiply(window, c, out=term)
            block += term
    return out


def direct_convolve_1d(signal, dense_kernel) -> np.ndarray:
    """Dense centered correlation, replicate boundary:
    out[x] = sum_j kern[j+r] * f(x+j), f clamped at the ends."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("need a 1D signal")
    return _correlate(signal[None, :], dense_kernel, 1)[0]


def dense_separable_2d(image, dense_kernel) -> np.ndarray:
    """Reference separable filter for any odd-length dense kernel: every
    row, then every column, correlated with it, replicate boundary."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("need a 2D image")
    return _correlate(_correlate(image, dense_kernel, 1), dense_kernel, 0)


def gaussian_taps(sigma: float) -> np.ndarray:
    """Dense 1D Gaussian with truncation radius ceil(pi * sigma), sum 1."""
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not math.pi * sigma < 2.0**63:
        raise ValueError(f"sigma {sigma} is too large: its radius overflows int64")
    r = math.ceil(math.pi * sigma)
    t = np.arange(-r, r + 1, dtype=np.float64)
    v = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return v / v.sum()


def exact_gaussian_2d(image, sigma: float) -> np.ndarray:
    """Reference Gaussian filtering: :func:`dense_separable_2d` with the
    taps of :func:`gaussian_taps`."""
    return dense_separable_2d(image, gaussian_taps(sigma))


def mse(a, b) -> float:
    """Mean squared pixel difference."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("image dimensions must agree")
    d = a - b
    return float(np.mean(d * d))


def psnr(a, b) -> float:
    """-10 log10(MSE) for images in [0, 1]; PSNR_INF when identical."""
    err = mse(a, b)
    if err == 0.0:
        return PSNR_INF
    return -10.0 * math.log10(err)


def count_ops(image, kernel: SliceKernel) -> OpCounter:
    """Count the per-pixel arithmetic of the 2D fast path.

    The counts follow from the cost model and the image shape; the filter
    is not run.  Every sample of a 1D pass, at the boundary too, costs one
    cumulative-sum addition, k multiplications, k subtractions and k-1
    accumulating additions: 2k additions and k multiplications.  Rows plus
    columns double that, over all h * w pixels.
    """
    shape = np.shape(image)
    if len(shape) != 2 or 0 in shape:
        raise ValueError("need a non-empty 2D image")
    pixels = shape[0] * shape[1]
    k = kernel.k
    return OpCounter(
        additions=4 * k * pixels, multiplications=2 * k * pixels, pixels=pixels
    )
