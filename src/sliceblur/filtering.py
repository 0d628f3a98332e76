"""Running-sum slice filtering in 1D and separable 2D.

Each output sample is

    out[x] = sum_i w_i * (I(x + p_i) - I(x - p_i - 1))

where I is the cumulative sum of the input, so the cost per sample is
2k additions and k multiplications regardless of the kernel width.

Boundaries use replicate (clamp) padding.  Each pass builds I once for
j in [-P-1, n+P-1], P the largest slice radius: the plain cumulative sum
in the middle, and the analytic ramps I(j) = (j + 1) * f[0] for j < 0 and
I(j) = I(n-1) + (j - n + 1) * f[n-1] for j >= n.  Every slice term is then
the difference of two contiguous views of it.  All arithmetic is float64.
"""

from __future__ import annotations

import numpy as np

from .approx import SliceKernel

_DC_TOL = 1e-6


class KernelTooLargeError(ValueError):
    """A slice radius reaches or exceeds the filtered extent."""


def _check_kernel(kernel: SliceKernel, n: int):
    if kernel.max_radius >= n:
        raise KernelTooLargeError(
            f"slice radius {kernel.max_radius} does not fit extent {n}"
        )
    if abs(kernel.dc_gain - 1.0) > _DC_TOL:
        raise ValueError("kernel must have unit DC gain; call normalized()")


def _ext_cumsum(arr: np.ndarray, pad: int, axis: int) -> np.ndarray:
    """Cumulative sum of ``arr`` clamp-extended by ``pad`` along ``axis``.

    The result has length ``n + 2 * pad + 1`` along ``axis``; index
    ``pad + 1 + j`` holds I(j) for j in [-pad-1, n+pad-1], so I(-1) = 0
    sits at index ``pad``.
    """
    n = arr.shape[axis]
    shape = list(arr.shape)
    shape[axis] = n + 2 * pad + 1
    ext = np.empty(shape)
    # work along axis 0 of views; every write lands in ``ext``
    e = np.moveaxis(ext, axis, 0)
    a = np.moveaxis(arr, axis, 0)
    along = (slice(None),) + (None,) * (a.ndim - 1)
    np.cumsum(a, axis=0, out=e[pad + 1 : pad + 1 + n])
    # left ramp (j + 1) * f[0] for j = -pad-1 .. -1
    np.multiply(np.arange(-pad, 1.0)[along], a[0], out=e[: pad + 1])
    # right ramp I(n-1) + (j - n + 1) * f[n-1] for j = n .. n+pad-1
    right = e[pad + 1 + n :]
    np.multiply(np.arange(1, pad + 1.0)[along], a[-1], out=right)
    right += e[pad + n]
    return ext


def _sum_slices(e: np.ndarray, kernel: SliceKernel, out: np.ndarray):
    """Set ``out`` to the sum of the slice terms along axis 0 of ``e``,
    an extended cumulative sum with ``len(out) + 2P + 1`` entries."""
    n = out.shape[0]
    pad = kernel.max_radius
    term = np.empty_like(out)
    out.fill(0.0)
    for p, w in zip(kernel.radii, kernel.weights):
        hi, lo = e[pad + 1 + p : pad + 1 + p + n], e[pad - p : pad - p + n]
        np.subtract(hi, lo, out=term)
        term *= w
        out += term


def _pass(arr: np.ndarray, kernel: SliceKernel, axis: int, out=None) -> np.ndarray:
    """Slice-filter ``arr`` along ``axis`` into ``out``, which may be ``arr``."""
    e = np.moveaxis(_ext_cumsum(arr, kernel.max_radius, axis), axis, 0)
    out = np.empty_like(arr) if out is None else out
    _sum_slices(e, kernel, np.moveaxis(out, axis, 0))
    return out


def slice_filter_1d(signal, kernel: SliceKernel) -> np.ndarray:
    """Filter a 1D signal with a unit-gain slice kernel."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1 or signal.size < 1:
        raise ValueError("need a non-empty 1D signal")
    _check_kernel(kernel, signal.size)
    return _pass(signal, kernel, 0)


def separable_filter_2d(image, kernel: SliceKernel) -> np.ndarray:
    """Filter a 2D image: slice-filter every row, then every column."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("need a 2D image")
    h, w = image.shape
    _check_kernel(kernel, w)
    _check_kernel(kernel, h)
    rows = _pass(image, kernel, 1)
    # Writing the column pass over the row pass's output saves an
    # image-sized buffer; with it, repeated calls at changing sigma stopped
    # faulting in fresh pages.
    return _pass(rows, kernel, 0, out=rows)


def filter_at(image, kernel: SliceKernel, points) -> np.ndarray:
    """Evaluate the separable filter at selected (x, y) points only.

    The row cumulative sums are built once; the row-filtered values are
    read from them only at the requested columns, then each touched column
    is slice-filtered once.  Values are identical to the corresponding
    pixels of :func:`separable_filter_2d`.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("need a 2D image")
    h, w = image.shape
    _check_kernel(kernel, w)
    _check_kernel(kernel, h)
    pts = [(int(x), int(y)) for x, y in points]
    for x, y in pts:
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"point ({x}, {y}) outside {w}x{h} image")

    pad = kernel.max_radius
    e = np.moveaxis(_ext_cumsum(image, pad, 1), 1, 0)
    columns = {}
    for x in sorted({x for x, _ in pts}):
        row_filtered = np.empty((1, h))
        _sum_slices(e[x : x + 2 * pad + 2], kernel, row_filtered)
        columns[x] = _pass(row_filtered[0], kernel, 0)
    return np.array([columns[x][y] for x, y in pts])
