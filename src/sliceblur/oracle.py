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


def direct_convolve_1d(signal, dense_kernel, boundary: str = "replicate") -> np.ndarray:
    """Dense centered correlation: out[x] = sum_j kern[j+r] * f(x+j).

    ``boundary`` is "replicate" (clamp) or "zero".
    """
    signal = np.asarray(signal, dtype=np.float64)
    kernel = np.asarray(dense_kernel, dtype=np.float64)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError("dense kernel must be 1D and odd-length")
    if boundary not in ("replicate", "zero"):
        raise ValueError(f"unknown boundary policy: {boundary}")
    r = kernel.size // 2
    mode = "edge" if boundary == "replicate" else "constant"
    padded = np.pad(signal, r, mode=mode)
    # np.convolve flips its kernel; flip back to get correlation
    return np.convolve(padded, kernel[::-1], mode="valid")


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
    """Reference Gaussian filtering: dense separable, replicate boundary."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("need a 2D image")
    taps = gaussian_taps(sigma)
    r = taps.size // 2

    def one_pass(arr):
        n = arr.shape[1]
        padded = np.pad(arr, ((0, 0), (r, r)), mode="edge")
        out = np.zeros_like(arr)
        for j in range(taps.size):
            out += taps[j] * padded[:, j : j + n]
        return out

    return one_pass(one_pass(image).T).T


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
