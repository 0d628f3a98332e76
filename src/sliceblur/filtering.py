"""Running-sum slice filtering in 1D and separable 2D.

Each output sample is

    out[x] = sum_i w_i * (I(x + p_i) - I(x - p_i - 1))

where I is the cumulative sum of the input, so the cost per sample is
2k additions and k multiplications regardless of the kernel width.

Boundaries use replicate (clamp) padding.  I is extended to j in
[-P-1, n+P-1], P the largest slice radius: the plain cumulative sum in the
middle, and the analytic ramps I(j) = (j + 1) * f[0] for j < 0 and
I(j) = I(n-1) + (j - n + 1) * f[n-1] for j >= n.  P may be n or more, since
the ramps extend I as far as any slice reaches.  The full passes build it
in buffers whose ramps ``_left_ramp`` and ``_right_ramp`` fill, so every
slice term is the difference of two contiguous views of one; the buffers
start on a cache line (``_empty``).  ``filter_at``'s column pass keeps no
such buffer and computes the few I(j) outside the image that its terms
read from the same formulas.

A float32 input is filtered in float32; any other input is converted to
float64 first (``as_float``).  Each pass is bound by the bytes it moves,
so float32 runs about 1.6-2.2x faster at 1024² and 2048².  The float32
error grows with the running sums, and the sums of a row or column of n
samples in [0, 1] reach n.  So float32 sums are taken of f - 1/2
(``_centre``), whose sums stay far smaller on images that use their
range: a unit-gain kernel commutes with an offset, filter(f - c) + c =
filter(f), and the ramps of f - c are as linear as those of f.  The
column passes subtract c as they copy the image into their running-sum
buffer or scratch, and the row pass adds c back to each block of its
output while the block is in the cache.  float64 sums stay uncentred (c
= 0) and so are unchanged, bit for bit.  The largest difference from the
float64 result, in 16-bit levels, on 16-bit 1/f images (k=5, two images
per size) was 0.35, 0.77 and 1.77 at n = 1024, 2048 and 4096 at sigma 1,
and 0.10, 0.40 and 0.60 at sigma 8.  On 8-bit images at sigma 2, k=3, it
was 2.8e-6, 7.9e-6 and 1.6e-5, under 0.005 of an 8-bit step.  A float32
constant image filters to the constant only within 1/2 * |DC gain - 1|
(at most 5e-7).

Every running sum that the row pass reads is checked before its slice
terms are: the two end entries of its clamp extension, I(-P-1) and
I(n+P-1), must be finite (``_check_sums``).  The ramps are linear, so that
bounds the whole extension, and in a sum built in one chain of additions,
a NaN or infinite pixel, or a prefix sum that overflows, makes I(n+P-1)
non-finite.  (A row block whose two-lane sum, see below, overflows is
summed again in one chain before the check.  A non-finite pixel reaches
the end of its lane, and so I(n-1), either way.)  The row pass is the
last stage of all three entry points, and it makes every refusal of
theirs.  The column pass checks nothing itself: a non-finite pixel, or a
column sum or term that overflows, leaves a non-finite value in the row
pass's input, since row 0's widest column term reads I(-P-1) and row
h-1's reads I(h+P-1), and the row sums through that value fail the check.
The row pass's slice terms run with numpy raising on overflow, so a term
I(hi) - I(lo) that overflows between finite ends is refused too.  Each
refusal is a ``ValueError`` that counts the non-finite pixels of the
caller's input, or else names the row or column sum that overflows: the
column sums when the row pass's input holds a non-finite value that the
caller's input lacks.  The cumulative sums, the ramps and the column
slice terms run with numpy's overflow and invalid warnings off.
(``filter_at``'s column pass also checks its ramp ends and every image
row's sum, see below, which cover sums that no probed row reads.)

``separable_filter_2d`` filters the columns first, then the rows of the
result in place.  Both passes stream through blocks of about ``_BLOCK``
bytes, so that a block's running sum, its slice terms and its output stay
in the L2 cache:

* The column pass (``_column_pass``) streams I down every column through
  one buffer, in one loop over blocks of image rows.  Output row r reads
  the 2P + 2 rows I(r - P - 1) .. I(r + P), so each block is summed into
  the buffer, and output rows are written a block at a time once their
  I(r + P) is summed (a one-block image's all at once, after the ramps).
  The buffer holds at most 3(2P + 1) rows, or 2(2P + 1) plus a block when
  a block is more, and never more than the h + 2P + 1 rows of the whole
  extended sum.  When the next block does not fit, the 2P + 1 rows that
  the next output row reads move to its front, in one copy that does not
  overlap itself.  The left ramp is filled first and the right one after
  the last block.  At 1024², k=3, float32, the buffer is 178 rows at sigma
  12 and 717 at sigma 50 (P = 119), where the extended sum has 1263, and
  it moves 239 rows twice.  Each block is centred, its first row gets the
  previous block's last sum added, and its rows are summed while the block
  is in the cache.  A row of more than ``_NARROW`` (256) samples is
  centred into the buffer, and each row gets the previous row added: one
  contiguous row add each, where ``np.cumsum(axis=0)`` walks every column
  with a whole row's stride.  On narrower rows numpy's cost per call,
  about 1 µs a row add, is most of the work, so the block is centred into
  scratch instead, and one ``np.cumsum(axis=0)`` writes its sums into the
  buffer (in place, numpy would first copy an odd width's operand).
  Pairs of columns are viewed as complex numbers, so that one value
  carries two columns, each down its own chain, and an odd width's last
  column is summed on its own.
  Both ways make the same additions in the same order, so the sums agree
  bit for bit.  Over whole column passes at k=5 the crossover was
  320-384 samples per row in float64 and 256-320 in float32; at 128²
  float64 the pass took 179 against 276 µs.  The column slice terms are
  summed into the output at most a block of rows at a time (for narrow
  rows, in the scratch), and the buffer is freed before the row pass
  starts.  Output row r is written only after image row r + P is read,
  and the ramps' rows f[0] and f[h-1] are copied first, so the output may
  be the image itself: ``sliceblur filter`` has ``separable_filter_2d``
  write into the image it read, and a request holds one image-sized array
  and the buffer, not two arrays and the buffer.
* The row pass (``_row_pass``) takes the rows a block at a time, writes
  the block's extended cumulative sum into one reused buffer and sums its
  slice terms into the output rows.  ``np.cumsum`` along a row is one
  chain of dependent additions, a store and a reload per sample, so
  the pass halves the chain: it views each row's sample pairs as
  complex numbers, and one ``np.cumsum`` over them carries two interleaved
  lanes, lane[j] the sum of the samples of j's parity up to j.  The lanes
  go to the start of the running-sum buffer, and one flat add over the
  block, I(j) = lane[j] + lane[j-1], writes I into the block's scratch,
  from which it is copied into place.  On integer-valued rows this is
  exactly ``np.cumsum``; otherwise it rounds differently, and each lane
  holds about half of the sum.  If a lane or a sum of two overflows,
  numpy raises on the overflow flag and the block falls back to
  ``np.cumsum``, so a row is refused only when its sum in one chain would
  be, and other input pays no extra pass for the check.  The rows it
  reads must be contiguous, which every caller's are.  The first term is
  written straight into them, so a block takes 3k - 1 whole-block passes
  (k subtractions, k multiplications, k - 1 accumulations) and no zero
  fill, and in float32 one more, the addition of c.  The number of rows
  per block depends on the image width only, so the number of blocks
  does not change with sigma.

``filter_at`` needs the column pass at the probed rows only.  It streams
the same column running sum through one w-wide accumulator, one image row
at a time, and works only at the 2k indices of I that each probed row's
column slice terms read, in increasing order.  A term opens at its lower
index, where it keeps a copy of I, and closes at its upper one, where it
subtracts that copy in place and goes into its row in ``_sum_slices``'
order.  Indices outside the image take I from the ramp formulas.  A
float32 block of image rows is first centred into one block of scratch.
The row pass then runs on the probed rows alone, so the values are
bit-identical to ``separable_filter_2d``'s.  A call reads every pixel
once, whatever sigma is, and holds the probed rows and one row per open
term, not an image.  As it streams, it also sums every image row, a block at a time
while the block is in the cache, so that an image row whose sum
overflows is refused although no probe reads it.  (``separable_filter_2d``
checks the running sums of the rows it filters, those of the
column-filtered image, whose sums are weighted means of the input's.)
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .approx import SliceKernel

_DC_TOL = 1e-6
# bytes per block (256 KiB: 2**15 float64 or 2**16 float32 values): a block
# with its running sum and its slice-term scratch stays in a 1-2 MiB L2 cache
_BLOCK = 1 << 18
# rows of at most this many samples take their column running sums from
# np.cumsum, wider ones from row adds (see the module docstring)
_NARROW = 256


def as_float(a) -> np.ndarray:
    """``a`` as the array the filters compute in: a float32 array as it
    is, anything else converted to float64.  A complex array is refused,
    not cut to its real part."""
    a = np.asarray(a)
    if a.dtype == np.float32:
        return a
    if a.dtype.kind == "c":
        raise ValueError(f"need real pixels, got {a.dtype}: pass the real part or the modulus")
    return a.astype(np.float64, copy=False)


def _centre(dtype) -> float:
    """The offset c that the running sums of a ``dtype`` input subtract:
    they sum f - c, and the row pass adds c back to its output.  A constant,
    not a statistic of the image: centred on its own mean, a one-pixel
    image would sum to 0, and so never be refused, whatever its value."""
    return 0.5 if dtype == np.float32 else 0.0


def _checked(a, kernel: SliceKernel, ndim: int) -> np.ndarray:
    """``a`` as ``as_float`` gives it, refused unless it is a non-empty
    ``ndim``-D (1 or 2) array and ``kernel`` has unit DC gain."""
    a = as_float(a)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"need a non-empty {'1D signal' if ndim == 1 else '2D image'}")
    # written so that a NaN gain fails it too
    if not abs(kernel.dc_gain - 1.0) <= _DC_TOL:
        raise ValueError("kernel must have unit DC gain; call normalized()")
    return a


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


def _left_ramp(e: np.ndarray, first, pad: int):
    """Write the left clamp-extension ramp I(j) = (j + 1) * f[0], j = -pad-1
    .. -1, into the first ``pad + 1`` rows of ``e``, the extended cumulative
    sums down its columns; ``first`` is the row of samples f[0]."""
    np.multiply(np.arange(-pad, 1, dtype=e.dtype)[:, None], first, out=e[: pad + 1])


def _right_ramp(e: np.ndarray, last, pad: int):
    """Write the right clamp-extension ramp I(j) = I(n-1) + (j - n + 1) *
    f[n-1], j = n .. n+pad-1, into the last ``pad`` rows of ``e``, whose
    row before them holds I(n-1); ``last`` is the row of samples f[n-1]."""
    right = e[len(e) - pad :]
    np.multiply(np.arange(1, pad + 1, dtype=e.dtype)[:, None], last, out=right)
    right += e[-pad - 1]


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


def _check_sums(image: np.ndarray, ends, what: str, rows=None):
    """Refuse ``image``, the caller's input, unless ``ends``, end entries of
    running sums computed from it, are all finite; ``what`` names the sums,
    "row" or "column".  ``rows`` are the row pass's input rows whose sums
    ``ends`` ends: a non-finite value there, from a finite ``image``, comes
    from a column sum or slice term that overflowed."""
    if not np.isfinite(ends).all():
        bad = image.size - np.count_nonzero(np.isfinite(image))
        if bad:
            raise ValueError(f"cannot filter {bad} non-finite pixel(s) (NaN or inf)")
        if rows is not None and not np.isfinite(rows).all():
            what = "column"
        raise ValueError(f"cannot filter: a {what} sum overflows {image.dtype}")


def _row_pass(a: np.ndarray, kernel: SliceKernel, out: np.ndarray, image: np.ndarray):
    """Slice-filter every row of the 2D ``a``, centred by ``_centre``, into
    ``out``, which may be ``a`` itself, and add the centre back.  ``a``'s
    rows must be contiguous.  A refusal counts the non-finite pixels of
    ``image``, the caller's input; a slice term that overflows is refused.

    Each block of rows gets its cumulative sum, clamp-extended by P and
    checked, in one reused buffer, from two interleaved lanes, lane[j] the
    sum of the samples of j's parity up to j, so I(j) = lane[j] +
    lane[j-1].  One ``np.cumsum`` over the rows viewed as complex numbers
    carries both lanes, which halves its sequential chain.  A block in
    which one of these additions overflows is summed again by a plain
    ``np.cumsum``."""
    h, n = a.shape
    pad = kernel.max_radius
    c = _centre(a.dtype)
    step = _block_rows(h, n, a.dtype)
    buf = _empty((step, n + 2 * pad + 1), a.dtype)
    term = _empty((step, n), a.dtype)
    pair = np.dtype(f"c{2 * a.itemsize}")  # two lanes in one value
    even = n - n % 2  # the samples that pair up
    try:
        with np.errstate(over="raise", invalid="raise"):
            for r0 in range(0, h, step):
                block = a[r0 : r0 + step]
                e, t = buf[: len(block)], term[: len(block)]
                # the lanes go to the first t.size values of e, free until I
                # is placed in its middle; I goes to t first
                flat = e.reshape(-1)[: t.size]
                lanes = flat.reshape(t.shape)
                try:
                    # numpy raises after any of these additions that overflows
                    with np.errstate(over="raise", invalid="ignore"):
                        np.cumsum(block[:, :even].view(pair), axis=1,
                                  out=lanes[:, :even].view(pair))
                        if n % 2 and n > 1:  # the last sample has no pair
                            np.add(lanes[:, -3], block[:, -1], out=lanes[:, -1])
                        np.add(flat[1:], flat[:-1], out=t.reshape(-1)[1:])
                except FloatingPointError:
                    # sum the block in one chain instead, whose I(n-1) is
                    # finite unless some prefix sum is not
                    with np.errstate(invalid="ignore", over="ignore"):
                        np.cumsum(block, axis=1, out=t)
                # each row start took the previous row's lane; at n = 1 this
                # alone sets I
                t[:, 0] = block[:, 0]
                np.copyto(e[:, pad + 1 : pad + 1 + n], t)
                with np.errstate(invalid="ignore", over="ignore"):
                    _left_ramp(e.T, block[:, 0], pad)
                    _right_ramp(e.T, block[:, -1], pad)
                _check_sums(image, e[:, :: n + 2 * pad], "row", block)
                # the block was read for the last time above, so out may be
                # a, and t is scratch from here on
                o = out[r0 : r0 + step]
                _sum_slices(lambda i: e[:, i : i + n], kernel, o, t)
                if c:  # while the block is in the cache
                    o += c
    except FloatingPointError:
        raise ValueError(f"cannot filter: a row sum overflows {a.dtype}") from None


def _column_pass(image: np.ndarray, kernel: SliceKernel, out: np.ndarray):
    """Slice-filter every column of the 2D ``image``, centred by
    ``_centre``, into ``out``; the centre is not added back.

    The column running sum streams through one buffer of at most 2(2P + 1)
    + max(``step``, 2P + 1) rows: each block of image rows is summed into
    it, output rows are written a block at a time once their last term's
    I(r + P) exists, and a full buffer moves the 2P + 1 rows that later
    output rows read to its front.

    ``out`` may be ``image`` itself: output row r is written only after
    image row r + P is summed, and ``image[0]`` and ``image[-1]``, which
    the ramps read, are copied before the first write."""
    h, w = image.shape
    pad = kernel.max_radius
    # output row r reads I(r - P - 1) .. I(r + P): span rows, and the one
    # that completes it
    span = 2 * pad + 1
    c = _centre(image.dtype)
    step = _block_rows(h, w, image.dtype)
    # Besides the span rows that a shift keeps, the buffer takes span +
    # max(span, step) rows.  So a shift comes only once more than 2 * span
    # rows are filled, and never moves rows onto themselves; and when span
    # is many blocks, it comes once for about 2 * span rows summed, half as
    # often as in a buffer of 2 * span + step rows.
    buf = _empty((min(h + span, 2 * span + max(step, span)), w), image.dtype)
    # slice-term scratch, into which narrow blocks are centred first
    term = _empty((step, w), image.dtype)
    pair = np.dtype(f"c{2 * image.itemsize}")
    even = w - w % 2
    # buf[i] holds I(base + i - P - 1); I is filled up to I(end - P - 2),
    # and output rows before done are written
    base, end, done = 0, pad + 1, 0

    def emit(stop):
        """Write output rows done .. stop - 1, a block at a time: row r
        reads I(r - P - 1) .. I(r + P), buf's rows r - base .. r - base +
        span."""
        nonlocal done
        for o0 in range(done, stop, step):
            o = out[o0 : min(o0 + step, stop)]
            i0, n = o0 - base, len(o)
            _sum_slices(lambda i: buf[i0 + i : i0 + i + n], kernel, o, term[:n])
        done = stop

    # a term that overflows, or reads a sum that did, leaves a non-finite
    # value, which the row pass refuses as a column sum that overflows
    with np.errstate(invalid="ignore", over="ignore"):
        last = image[-1] - c
        _left_ramp(buf, image[0] - c, pad)
        # every block of image rows, then the P rows of the right ramp
        for r0 in (*range(0, h, step), h):
            nb = min(step, h - r0) if r0 < h else pad
            if end - base + nb > len(buf):
                emit(end - span)
                np.copyto(buf[:span], buf[done - base : end - base])
                base = done
            if r0 == h:
                _right_ramp(buf[: end - base + nb], last, pad)
            else:
                rows = buf[end - base : end - base + nb]
                src = rows if w > _NARROW else term[:nb]
                np.subtract(image[r0 : r0 + nb], c, out=src)
                if r0:
                    src[0] += buf[end - base - 1]
                if w > _NARROW:
                    # each row gets the previous one added while the block
                    # is in the cache
                    prev = rows[0]
                    for cur in rows[1:]:
                        cur += prev
                        prev = cur
                else:
                    # from scratch into buf: in place, numpy would copy an
                    # odd width's operand
                    if even:
                        np.cumsum(src[:, :even].view(pair), axis=0, out=rows[:, :even].view(pair))
                    if w % 2:
                        np.cumsum(src[:, -1], out=rows[:, -1])
            end += nb
            # once a block of output rows is ready, and at the end: so a
            # one-block image sums its slice terms in one call
            if end - span - done >= step or r0 == h:
                emit(end - span)


def _column_pass_at(image: np.ndarray, kernel: SliceKernel, ys) -> np.ndarray:
    """The rows ``ys`` (sorted, distinct) of ``_column_pass``'s output,
    from one streamed column running sum, read at the indices that their
    slice terms need; see the module docstring."""
    h, w = image.shape
    dtype = image.dtype
    pad = kernel.max_radius
    c = _centre(dtype)
    weights = kernel.weights.tolist()
    # The term of slice i at row ys[r] opens at lo = y - p_i - 1, where it
    # keeps a copy of I(lo), and closes at hi = y + p_i, where that copy is
    # its scratch for I(hi) - I(lo).
    opens, closes = defaultdict(list), defaultdict(list)
    for r, y in enumerate(ys):
        for i, p in enumerate(kernel.radii.tolist()):
            opens[y - p - 1].append((r, i))
            closes[y + p].append((r, i))
    walk = sorted(opens.keys() | closes.keys())
    out = _empty((len(ys), w), dtype)
    held = {}

    def visit(j, value):
        """Close, then open, the terms at index j, where I(j) is ``value``."""
        for r, i in closes.get(j, ()):
            # a row's terms close in slice order; the first is written into
            # the row, as in _sum_slices
            lo = held.pop((r, i))
            term = out[r] if i == 0 else lo
            np.subtract(value, lo, out=term)
            term *= weights[i]
            if i:
                out[r] += term
        for t in opens.get(j, ()):
            held[t] = value.copy()

    # a term that overflows leaves a non-finite value, which the row pass
    # refuses as a column sum that overflows
    with np.errstate(invalid="ignore", over="ignore"):
        first, last = image[0] - c, image[-1] - c
        _check_sums(image, first * dtype.type(-pad), "column")  # I(-P-1)
        for j in (j for j in walk if j < 0):
            visit(j, first * dtype.type(j + 1))

        acc = np.full(w, -0.0, dtype)  # -0.0 + x is x for every x
        step = _block_rows(h, w, dtype)
        # float32 rows are centred into scratch, float64 ones read as they are
        scratch = _empty((step, w), dtype) if c else None
        for r0 in range(0, h, step):
            block = image[r0 : r0 + step]
            if c:
                block = np.subtract(block, c, out=scratch[: len(block)])
            for j, row in enumerate(block, r0):
                acc += row
                if j in opens or j in closes:
                    visit(j, acc)
            # the block is still in the cache
            _check_sums(image, np.einsum("ij->i", block), "row")

        _check_sums(image, last * dtype.type(pad) + acc, "column")  # I(h+P-1)
        for j in (j for j in walk if j >= h):
            visit(j, last * dtype.type(j - h + 1) + acc)
    return out


def slice_filter_1d(signal, kernel: SliceKernel) -> np.ndarray:
    """Filter a 1D signal with a unit-gain slice kernel."""
    signal = _checked(signal, kernel, 1)
    # filtered in place in a contiguous centred copy, as _row_pass needs
    out = np.subtract(signal, _centre(signal.dtype), out=_empty(signal.shape, signal.dtype))
    _row_pass(out[None, :], kernel, out[None, :], signal)
    return out


def separable_filter_2d(image, kernel: SliceKernel, *, _in_place=False) -> np.ndarray:
    """Filter a 2D image: slice-filter every column, then every row.

    The column pass writes into the output, and its running-sum buffer,
    at most 3(2P + 1) x w (see ``_column_pass``), is freed before the row
    pass filters the output's rows in place.  So a call holds the output
    and a fraction of the image besides it: at 1024², k=3, 1.09-1.26 times
    the image at sigma 2-12 and 1.75-1.78 times at sigma 50.

    It refuses non-finite pixels, and a column sum, a row sum of the
    column-filtered image or a slice term that overflows.  An image row
    whose own sum overflows is not refused when the column pass averages
    it down, and the result can then be wrong: a row of huge finite
    pixels wipes out the precision of the column sums below it (README
    "Precision").  :func:`filter_at` refuses such an image.

    ``_in_place`` is private to ``sliceblur filter``: the output is then
    written into ``image``, which must be a writeable C-contiguous float32
    or float64 array, and a call holds no array of the image's size besides
    it and the running sum.  A refusal then counts the non-finite values
    of the column-filtered image, not of the input; the PGM samples that
    ``sliceblur filter`` reads are finite.
    """
    image = _checked(image, kernel, 2)
    # out may alias image: _column_pass writes output row r only after it
    # has summed image row r + P, and copies the ramps' rows first
    out = image if _in_place else _empty(image.shape, image.dtype)
    _column_pass(image, kernel, out)
    _row_pass(out, kernel, out, image)
    return out


def filter_at(image, kernel: SliceKernel, points) -> np.ndarray:
    """Evaluate the separable filter at selected (x, y) points only.

    The column pass runs at the probed rows only, from one streamed column
    running sum, and the row pass on those rows.  Values are identical to
    the corresponding pixels of :func:`separable_filter_2d`.  The call
    reads every pixel once, and its working memory is the probed rows and
    the column slice terms open at one time, not an image.  It refuses
    non-finite pixels, overflowing column sums and slice terms, the
    overflowing row sums of the probed rows, and, unlike
    :func:`separable_filter_2d`, any image row whose own sum overflows, so
    it refuses some images that :func:`separable_filter_2d` filters.
    ``points`` are (x, y) pairs, and a point must lie on the pixel grid:
    (1.9, 2.7) is refused, not rounded.
    """
    image = _checked(image, kernel, 2)
    h, w = image.shape
    points = np.asarray(points)
    if points.size and (points.ndim != 2 or points.shape[1] != 2):
        raise ValueError(f"points must be (x, y) pairs, got an array of shape {points.shape}")
    pts = []
    for x, y in points.reshape(-1, 2).tolist():  # Python scalars compare faster
        if not (0 <= x < w and 0 <= y < h):
            raise ValueError(f"point ({x}, {y}) outside {w}x{h} image")
        if x != int(x) or y != int(y):
            raise ValueError(f"point ({x}, {y}) is not on the pixel grid")
        pts.append((int(x), int(y)))

    ys = sorted({y for _, y in pts})
    rows = _column_pass_at(image, kernel, ys)
    _row_pass(rows, kernel, rows, image)
    index = {y: r for r, y in enumerate(ys)}
    return rows[[index[y] for _, y in pts], [x for x, _ in pts]]
