"""Running-sum slice filtering in 1D and separable 2D.

Each output sample is

    out[x] = sum_i w_i * (I(x + p_i) - I(x - p_i - 1))

where I is the cumulative sum of the input, so the cost per sample is
2k additions and k multiplications regardless of the kernel width.

Boundaries use replicate (clamp) padding.  Each pass builds I for j in
[-P-1, n+P-1], P the largest slice radius: the plain cumulative sum in the
middle, and the analytic ramps I(j) = (j + 1) * f[0] for j < 0 and
I(j) = I(n-1) + (j - n + 1) * f[n-1] for j >= n (``_fill_ramps``, the only
code that knows the boundary).  P may be n or more, since the ramps extend
I as far as any slice reaches.  Every slice term is then the difference of
two contiguous views of it.  The buffers start on a cache line
(``_empty``).

A float32 input is filtered in float32; any other input is converted to
float64 first (``as_float``).  Each pass is bound by the bytes it moves,
so float32 runs about 1.6-1.8x faster at 1024² and 2048².  The running
sums of a row or column of n samples in [0, 1] reach n, so the float32
error grows about linearly with n: on 8-bit 1/f images at sigma 2 the
largest difference from the float64 result was 2.2e-5 at n = 1024,
5.1e-5 at 2048 and 1.1e-4 at 4096, under 0.03 of an 8-bit step.

A NaN or infinite pixel would spread through every later running sum of
its row, so all three entry points reject one with a ``ValueError``
(``_row_blocks``).

Both passes stream through blocks of about ``_BLOCK`` bytes, so that a
block's running sum, its slice terms and its output stay in the L2 cache:

* The row pass takes the rows a block at a time, writes the block's
  extended cumulative sum into one reused buffer and sums its slice terms
  into the output rows.  The first term is written straight into them,
  so a block takes 3k - 1 whole-block passes (k subtractions, k
  multiplications, k - 1 accumulations) and no zero fill.  The number of
  rows per block depends on the image width only, so the number of blocks
  does not change with sigma.
* The column pass needs I down every column.  ``separable_filter_2d``
  writes the row pass's output into the middle of an image-sized extended
  buffer and builds I there in place, adding each row's running sum into
  the next row.  These are the additions of ``np.cumsum(axis=0)``, in the
  same order, but each is one contiguous row add, where ``np.cumsum``
  walks every column with a whole row's stride and is several times
  slower.  The column slice terms are then summed into the output a block
  of rows at a time, the same way.

``filter_at`` runs the same row blocks but keeps the row-filtered values
only at the probed columns: per block, one ``np.take`` gathers the 2k
running-sum columns every probed column's slice terms read into a reused
buffer, and the terms are views of it.  It then filters those columns as
the rows of their transpose, so it needs no image-sized buffer.
"""

from __future__ import annotations

import math

import numpy as np

from .approx import SliceKernel

_DC_TOL = 1e-6
# bytes per block (256 KiB: 2**15 float64 or 2**16 float32 values): a block
# with its running sum and its slice-term scratch stays in a 1-2 MiB L2 cache
_BLOCK = 1 << 18


def as_float(a) -> np.ndarray:
    """``a`` as the array the filters compute in: a float32 array as it
    is, anything else converted to float64."""
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def _check_kernel(kernel: SliceKernel):
    if abs(kernel.dc_gain - 1.0) > _DC_TOL:
        raise ValueError("kernel must have unit DC gain; call normalized()")


def _empty(shape, dtype) -> np.ndarray:
    """An uninitialised array whose data starts on a 64-byte (cache line)
    boundary.  ``np.empty`` data is only 16-byte aligned under glibc's
    malloc; vector stores into a block that starts off a line straddle two
    lines, and a subtraction into an L2-resident block ran about half as
    fast."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = np.empty(nbytes + 63, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + nbytes].view(dtype).reshape(shape)


def _block_rows(h: int, n: int, dtype) -> int:
    """Rows per block of an ``h`` x ``n`` array of ``dtype``."""
    return max(1, min(h, _BLOCK // (n * np.dtype(dtype).itemsize)))


def _fill_ramps(e: np.ndarray, first, last, pad: int):
    """Fill the clamp-extension ramps of ``e``, an extended cumulative sum
    along axis 0 with ``n + 2 * pad + 1`` entries.

    Index ``pad + 1 + j`` holds I(j), so I(-1) = 0 sits at index ``pad``;
    ``e[pad + 1 : pad + 1 + n]`` must already hold I(0) .. I(n-1), and
    ``first`` and ``last`` are the signal's samples f[0] and f[n-1].
    """
    n = e.shape[0] - 2 * pad - 1
    along = (slice(None),) + (None,) * (e.ndim - 1)
    # left ramp (j + 1) * f[0] for j = -pad-1 .. -1
    np.multiply(np.arange(-pad, 1, dtype=e.dtype)[along], first, out=e[: pad + 1])
    # right ramp I(n-1) + (j - n + 1) * f[n-1] for j = n .. n+pad-1
    right = e[pad + 1 + n :]
    np.multiply(np.arange(1, pad + 1, dtype=e.dtype)[along], last, out=right)
    right += e[pad + n]


def _sum_slices(window, kernel: SliceKernel, out: np.ndarray, term: np.ndarray):
    """Set ``out`` to the sum of the slice terms, where ``window(i)`` is the
    block of the extended cumulative sum that starts at index ``i`` and has
    the shape of ``out``; ``term`` is scratch of that shape."""
    pad = kernel.max_radius
    (p, w), *rest = zip(kernel.radii.tolist(), kernel.weights.tolist())
    np.subtract(window(pad + 1 + p), window(pad - p), out=out)
    out *= w
    for p, w in rest:
        np.subtract(window(pad + 1 + p), window(pad - p), out=term)
        term *= w
        out += term


def _row_blocks(a: np.ndarray, pad: int):
    """Yield ``(rows, e)`` for consecutive blocks of rows of the 2D ``a``:
    the slice of rows, and their cumulative sum along axis 1, clamp-extended
    by ``pad``.  ``e`` is one buffer, overwritten for every block.

    A NaN or infinite pixel, or a row sum that overflows, makes its row's
    total I(n-1) non-finite, and raises ``ValueError``.  The cumulative sum
    that finds it would warn first, so the pass, the caller's work on each
    block included, runs with invalid and overflow warnings off."""
    h, n = a.shape
    step = _block_rows(h, n, a.dtype)
    buf = _empty((step, n + 2 * pad + 1), a.dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        for r0 in range(0, h, step):
            block = a[r0 : r0 + step]
            e = buf[: len(block)]
            np.cumsum(block, axis=1, out=e[:, pad + 1 : pad + 1 + n])
            if not np.isfinite(e[:, pad + n]).all():
                bad = a.size - np.count_nonzero(np.isfinite(a))
                if not bad:
                    raise ValueError(f"cannot filter: a row sum overflows {a.dtype}")
                raise ValueError(f"cannot filter {bad} non-finite pixel(s) (NaN or inf)")
            _fill_ramps(e.T, block[:, 0], block[:, -1], pad)
            yield slice(r0, r0 + len(block)), e


def _row_pass(a: np.ndarray, kernel: SliceKernel, out: np.ndarray):
    """Slice-filter every row of the 2D ``a`` into ``out``."""
    h, n = a.shape
    term = _empty((_block_rows(h, n, a.dtype), n), a.dtype)
    for rows, e in _row_blocks(a, kernel.max_radius):
        o = out[rows]
        _sum_slices(lambda i: e[:, i : i + n], kernel, o, term[: len(o)])


def slice_filter_1d(signal, kernel: SliceKernel) -> np.ndarray:
    """Filter a 1D signal with a unit-gain slice kernel."""
    signal = as_float(signal)
    if signal.ndim != 1 or signal.size < 1:
        raise ValueError("need a non-empty 1D signal")
    _check_kernel(kernel)
    out = _empty(signal.shape, signal.dtype)
    _row_pass(signal[None, :], kernel, out[None, :])
    return out


def separable_filter_2d(image, kernel: SliceKernel) -> np.ndarray:
    """Filter a 2D image: slice-filter every row, then every column."""
    image = as_float(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("need a non-empty 2D image")
    _check_kernel(kernel)
    h, w = image.shape
    pad = kernel.max_radius
    dtype = image.dtype

    # the column pass's extended cumulative sum; the row pass fills its middle
    ext = _empty((h + 2 * pad + 1, w), dtype)
    mid = ext[pad + 1 : pad + 1 + h]
    _row_pass(image, kernel, mid)
    last = mid[-1].copy()
    # I down the columns, one contiguous row add per row
    prev = mid[0]
    for cur in mid[1:]:
        cur += prev
        prev = cur
    _fill_ramps(ext, mid[0], last, pad)

    out = _empty(image.shape, dtype)
    step = _block_rows(h, w, dtype)
    term = _empty((step, w), dtype)
    for r0 in range(0, h, step):
        o = out[r0 : r0 + step]
        nb = len(o)
        _sum_slices(lambda i: ext[r0 + i : r0 + i + nb], kernel, o, term[:nb])
    return out


def filter_at(image, kernel: SliceKernel, points) -> np.ndarray:
    """Evaluate the separable filter at selected (x, y) points only.

    The rows are slice-filtered a block at a time, keeping only the
    requested columns; those columns are then slice-filtered together as
    the rows of their transpose.  Values are identical to the
    corresponding pixels of :func:`separable_filter_2d`.
    """
    image = as_float(image)
    if image.ndim != 2 or image.size == 0:
        raise ValueError("need a non-empty 2D image")
    _check_kernel(kernel)
    h, w = image.shape
    dtype = image.dtype
    pts = [(int(x), int(y)) for x, y in points]
    for x, y in pts:
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"point ({x}, {y}) outside {w}x{h} image")

    xs = np.array(sorted({x for x, _ in pts}), dtype=np.intp)
    pad = kernel.max_radius
    # the window starts of every slice term, and the running-sum columns
    # they read at the probed columns, gathered once per block
    starts = [i for p in kernel.radii.tolist() for i in (pad + 1 + p, pad - p)]
    slot = {i: j for j, i in enumerate(starts)}
    idx = np.add.outer(starts, xs)
    step = _block_rows(h, w, dtype)
    gathered = _empty((step,) + idx.shape, dtype)
    cols = _empty((h, xs.size), dtype)
    term = _empty((step, xs.size), dtype)
    for rows, e in _row_blocks(image, pad):
        c = cols[rows]
        g = gathered[: len(c)]
        # every index is in range; mode="raise" would buffer the output
        np.take(e, idx, axis=1, out=g, mode="clip")
        _sum_slices(lambda i: g[:, slot[i]], kernel, c, term[: len(c)])
    columns = np.ascontiguousarray(cols.T)
    _row_pass(columns, kernel, columns)
    index = {x: i for i, x in enumerate(xs.tolist())}
    return np.array([columns[index[x], y] for x, y in pts], dtype=dtype)
