"""Piecewise-constant Gaussian kernel approximation.

A symmetric half-kernel sampled at integer offsets 0..r is approximated by
k constants c_1..c_k on the intervals [0, p_1], (p_1, p_2], ..,
(p_{k-1}, p_k]; offsets beyond p_k are approximated by zero.  The same
approximation is expressed as k overlapping centered slices of half-width
p_i and weight w_i = c_i - c_{i+1} (c_{k+1} = 0), which is the form the
running-sum filter consumes.

Constants are fit by minimizing the quadratic form

    E2(c) = (w - B c)^T A (w - B c)

where w is the target half-kernel, B the 0/1 interval-indicator basis and
A a Toeplitz matrix built from the autocorrelation implied by the 1/u
amplitude spectrum of natural images.  With A = I this reduces to plain
least squares on the kernel itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SampledKernel:
    """Half-kernel samples at integer offsets 0..n-1, peak first."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need at least 2 half-kernel samples")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("half-kernel samples must be finite")

    @property
    def radius(self) -> int:
        return self.values.size - 1


def _increasing_ints(values, lowest: int, what: str) -> np.ndarray:
    """``values`` as a 1D int64 array, refused unless they are integers,
    at least one, strictly increasing and >= ``lowest``; ``what`` names them.
    A non-integral value is refused, not truncated."""
    p = np.asarray(values)
    if p.dtype != np.int64:
        try:
            with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage
                q = p.astype(np.int64)
        except OverflowError:  # an object array of Python ints past int64
            q = None
        if q is None or not np.array_equal(q, p):
            raise ValueError(f"{what} must be int64 integers, got {p.tolist()}")
        p = q
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"need a non-empty 1D sequence of {what}")
    r = p.tolist()  # a short list: faster than numpy here
    if r[0] < lowest or any(b <= a for a, b in zip(r, r[1:])):
        raise ValueError(f"{what} must be strictly increasing and >= {lowest}")
    return p


@dataclass(frozen=True)
class Partition:
    """Breakpoints p_1 < .. < p_k in [1, r] with one constant per interval."""

    breakpoints: np.ndarray
    constants: np.ndarray

    def __post_init__(self):
        p = _increasing_ints(self.breakpoints, 1, "breakpoints")
        object.__setattr__(self, "breakpoints", p)
        object.__setattr__(self, "constants", np.asarray(self.constants, dtype=np.float64))
        if self.constants.shape != p.shape:
            raise ValueError("constants and breakpoints must have equal length")

    @property
    def k(self) -> int:
        return self.breakpoints.size


@dataclass(frozen=True)
class SliceKernel:
    """Symmetric kernel as overlapping centered slices (radius, weight).

    Slice i covers every integer offset t with |t| <= radii[i]; the kernel
    value at t is the sum of the weights of the slices covering t.
    """

    radii: np.ndarray
    weights: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "radii", _increasing_ints(self.radii, 0, "slice radii"))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.weights.shape != self.radii.shape:
            raise ValueError("weights and radii must have equal length")

    @property
    def k(self) -> int:
        return self.radii.size

    @property
    def max_radius(self) -> int:
        return int(self.radii[-1])

    @property
    def dc_gain(self) -> float:
        """Response to a unit constant input: sum of w_i * (2 p_i + 1)."""
        return _dc_gain(self.radii, self.weights)

    def normalized(self) -> "SliceKernel":
        """Rescale weights to unit DC gain."""
        return _unit_gain(self.radii, self.weights, self.sigma, self.dc_gain)

    def dense(self) -> np.ndarray:
        """Materialize the symmetric kernel on [-p_k, p_k]."""
        p = self.max_radius
        t = np.abs(np.arange(-p, p + 1))
        # offset t is covered by every slice with radius >= t
        return (self.weights[None, :] * (t[:, None] <= self.radii[None, :])).sum(axis=1)


def _dc_gain(radii: np.ndarray, weights: np.ndarray) -> float:
    return float(np.sum(weights * (2.0 * radii + 1.0)))


def _unit_gain(radii, weights: np.ndarray, sigma, gain: float) -> SliceKernel:
    """The slice kernel of ``weights`` divided by their DC gain ``gain``."""
    if gain == 0.0:
        raise ValueError("cannot normalize a zero-gain kernel")
    return SliceKernel(radii, weights / gain, sigma)


def sample_gaussian(sigma0: float, n: int) -> SampledKernel:
    """Sample the Gaussian half-kernel at offsets 0..n-1.

    The samples are normalized so the implied full symmetric kernel
    (values[0] + 2 * sum of the rest) sums to one.
    """
    if sigma0 <= 0:
        raise ValueError("sigma0 must be positive")
    if n < 2:
        raise ValueError("need at least 2 samples")
    t = np.arange(n, dtype=np.float64)
    v = np.exp(-(t * t) / (2.0 * sigma0 * sigma0))
    v /= v[0] + 2.0 * v[1:].sum()
    return SampledKernel(v)


# the value of the 1/u^2 power spectrum at the undefined zero frequency
_DC_VALUE = 16.5


def build_autocorr(r: int) -> np.ndarray:
    """The natural-image autocorrelation model of offset range [-r, r].

    The power spectrum 1/u^2 is discretized on 2r+1 integer frequencies with
    the undefined zero frequency set to ``_DC_VALUE``; Phi is its real
    inverse DFT, and the (r+1) x (r+1) Toeplitz matrix A[j, k] = Phi_{|j-k|}
    for j, k in 0..r is the model.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = 2 * r + 1
    m = np.arange(n)
    u = np.minimum(m, n - m).astype(np.float64)  # signed frequency magnitude
    spectrum = np.empty(n)
    spectrum[0] = _DC_VALUE
    spectrum[1:] = 1.0 / (u[1:] * u[1:])
    # the non-negative lags only, so the even symmetry is exact
    half = np.fft.ifft(spectrum).real[: r + 1]
    idx = np.abs(np.subtract.outer(np.arange(r + 1), np.arange(r + 1)))
    return half[idx]  # Phi_{|j-k|}, |j-k| <= r


def identity_model(r: int) -> np.ndarray:
    """Uncorrelated-pixel model: A = I, so E2 is the plain l2 kernel error."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return np.eye(r + 1)


def quadratic_error(
    target: SampledKernel, approx_weights, model: np.ndarray
) -> float:
    """E2 = (w - w_hat)^T A (w - w_hat) on the half-kernel samples, where
    the model A is an (r+1) x (r+1) matrix."""
    w = target.values
    w_hat = np.asarray(approx_weights, dtype=np.float64)
    if w_hat.shape != w.shape or model.shape != (w.size, w.size):
        raise ValueError("target, approximation and model dimensions must agree")
    d = w - w_hat
    return float(d @ model @ d)


def partition_profile(partition: Partition, n: int) -> np.ndarray:
    """Dense half-kernel values implied by a partition (zero past p_k):
    constant i on every offset of interval i."""
    p = partition.breakpoints
    profile = np.zeros(max(n, p[-1] + 1))
    profile[: p[-1] + 1] = np.repeat(partition.constants, np.diff(p, prepend=-1))
    return profile[:n]


def optimal_constants(
    target: SampledKernel, breakpoints, model: np.ndarray
) -> Partition:
    """Solve for the E2-minimizing constants of a fixed breakpoint set.

    Normal equations of the quadratic form restricted to the interval basis:
    c = (B^T A B)^{-1} B^T A w, solved by :func:`_batch_best`.
    """
    p = _increasing_ints(breakpoints, 1, "breakpoints")
    if p[-1] > target.radius:
        raise ValueError("breakpoints exceed the kernel support")
    _, c, _ = _batch_best(p[None, :], *_sum_tables(target.values, model))
    return Partition(p, c)


def _sum_tables(w: np.ndarray, a: np.ndarray):
    """The ``sat``, ``q_cum`` and ``w_a_w`` of :func:`_batch_best` for the
    target samples ``w`` and the model matrix ``a``."""
    if a.shape != (w.size, w.size):
        raise ValueError("target and model dimensions must agree")
    sat = np.zeros((w.size + 1, w.size + 1))
    sat[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
    q = a @ w
    q_cum = np.concatenate(([0.0], np.cumsum(q)))
    return sat, q_cum, float(w @ q)


def _batch_best(
    combos: np.ndarray,
    sat: np.ndarray,
    q_cum: np.ndarray,
    w_a_w: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best (breakpoints, constants, E2) over a batch of candidate tuples.

    ``sat`` is the padded 2D cumulative sum of A, ``q_cum`` the padded
    cumulative sum of A @ w.  Interval block sums of A and A @ w reduce to
    O(1) lookups, so each candidate costs one k x k solve.
    """
    edges = np.concatenate(
        [np.zeros((combos.shape[0], 1), dtype=np.int64), combos + 1], axis=1
    )
    lo = edges[:, :-1]
    hi = edges[:, 1:]
    g = (
        sat[hi[:, :, None], hi[:, None, :]]
        - sat[lo[:, :, None], hi[:, None, :]]
        - sat[hi[:, :, None], lo[:, None, :]]
        + sat[lo[:, :, None], lo[:, None, :]]
    )
    rhs = q_cum[hi] - q_cum[lo]
    c = np.linalg.solve(g, rhs[..., None])[..., 0]
    e2 = w_a_w - np.einsum("mi,mi->m", c, rhs)
    best = int(np.argmin(e2))  # first minimum: lexicographically smallest tuple
    return combos[best], c[best], float(e2[best])


def search_partitions(
    target: SampledKernel, k: int, model: np.ndarray
) -> Partition:
    """Find the E2-minimizing partition with k constants.

    Exhaustive over all strictly increasing breakpoint tuples for k <= 3;
    for k in {4, 5} a stride-4 coarse grid is refined by repeated +/-4
    local sweeps, unless the grid has fewer than k points (r <= 4(k - 1),
    at most C(16, 5) = 4368 tuples), where the search is exhaustive again.
    Ties break toward the lexicographically smallest tuple, so results are
    run-to-run identical.
    """
    if not 1 <= k <= 5:
        raise ValueError("k must be in [1, 5]")
    r = target.radius
    if k > r:
        raise ValueError("more constants than admissible breakpoints")

    sat, q_cum, w_a_w = _sum_tables(target.values, model)

    # refine a stride-4 grid only where it has at least k points
    refine = k > 3 and r > 4 * (k - 1)
    combos = itertools.combinations(range(1, r + 1, 4 if refine else 1), k)
    bp, c, e2 = _batch_best(
        np.array(list(combos), dtype=np.int64), sat, q_cum, w_a_w
    )
    if refine:
        offsets = np.array(
            list(itertools.product(range(-4, 5), repeat=k)), dtype=np.int64
        )
    while refine:
        cand = bp[None, :] + offsets
        ok = (
            (cand[:, 0] >= 1)
            & (cand[:, -1] <= r)
            & np.all(np.diff(cand, axis=1) > 0, axis=1)
        )
        bp2, c2, e2_2 = _batch_best(cand[ok], sat, q_cum, w_a_w)
        if e2_2 >= e2 - 1e-15:
            break
        bp, c, e2 = bp2, c2, e2_2
    return Partition(bp, c)


def to_slices(partition: Partition, sigma: float | None = None) -> SliceKernel:
    """Convert interval constants to overlapping slice weights.

    w_i = c_i - c_{i+1} with c_{k+1} = 0: the weights of the slices covering
    an offset telescope back to its interval constant.
    """
    c = partition.constants
    w = c - np.concatenate([c[1:], [0.0]])
    return SliceKernel(partition.breakpoints, w, sigma)


def scale_to_sigma(base: SliceKernel, sigma: float) -> SliceKernel:
    """Rescale a slice kernel from its native sigma to an arbitrary one.

    Radii are scaled by sigma/sigma0 and floored; each weight is scaled by
    p_i / (2 p_i' + 1); radii colliding after the floor are merged by
    summing weights; finally all weights are rescaled to exact unit DC gain
    so constant inputs are preserved.  Once every radius floors to 0 the
    merge leaves one radius-0 slice of weight 1: the identity filter.  A
    base kernel with a radius-0 slice is refused, since p_i = 0 would scale
    that slice's weight to 0.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if base.sigma is None:
        raise ValueError("base kernel does not carry its native sigma")
    if not (math.isfinite(base.sigma) and base.sigma > 0):
        raise ValueError(f"base kernel's native sigma {base.sigma} is not positive and finite")
    if base.radii[0] == 0:
        raise ValueError("base kernel has a radius-0 slice, which scaling would give weight 0")
    ratio = sigma / base.sigma
    if not ratio * base.max_radius < 2.0**63:
        raise ValueError(f"sigma {sigma} is too large: its slice radii overflow int64")
    # the floored radii are non-decreasing, so colliding ones are adjacent;
    # each group sums from 0.0 in index order.  Python floats round every
    # step as numpy's float64 arrays would.
    radii, weights = [], []
    for r, w in zip(base.radii.tolist(), base.weights.tolist()):
        p = math.floor(ratio * r)
        if not radii or radii[-1] != p:
            radii.append(p)
            weights.append(0.0)
        weights[-1] += r / (2.0 * p + 1.0) * w
    radii, weights = np.array(radii, dtype=np.int64), np.array(weights)
    return _unit_gain(radii, weights, sigma, _dc_gain(radii, weights))


_TABLE_BREAKPOINTS = {
    3: (23, 46, 76),
    4: (19, 37, 56, 82),
    5: (16, 30, 44, 61, 85),
}

_TABLE_CONSTANTS = {
    3: (0.9495, 0.5502, 0.1618),
    4: (0.9649, 0.6700, 0.3376, 0.0976),
    5: (0.9738, 0.7596, 0.5031, 0.2534, 0.0739),
}

#: Native sigma of the builtin partitions (100-sample support on [0, pi*sigma]).
SIGMA0 = 100.0 / np.pi


def table_defaults(k: int) -> tuple[Partition, float]:
    """Builtin optimized partitions for k in {3, 4, 5} at sigma0 = 100/pi.

    The constants are expressed for the unit-peak Gaussian profile
    exp(-t^2 / (2 sigma0^2)); the DC normalization applied when scaling
    makes this convention irrelevant for filtering.
    """
    if k not in _TABLE_BREAKPOINTS:
        raise ValueError("builtin defaults exist only for k in {3, 4, 5}")
    return (
        Partition(_TABLE_BREAKPOINTS[k], _TABLE_CONSTANTS[k]),
        SIGMA0,
    )


@functools.cache
def _table_base(k: int) -> SliceKernel:
    # shared by every call, so made read-only; scale_to_sigma only reads it
    base = to_slices(*table_defaults(k))
    base.radii.flags.writeable = False
    base.weights.flags.writeable = False
    return base


def gaussian_kernel(
    sigma: float, k: int = 3, params: tuple[Partition, float] | None = None
) -> SliceKernel:
    """The unit-gain slice kernel that approximates a Gaussian of ``sigma``.

    The builtin k-slice partition (:func:`table_defaults`), or ``params``,
    a ``(partition, sigma0)`` pair that overrides ``k``, is rescaled to
    ``sigma`` by :func:`scale_to_sigma`.  Only the sigma-independent
    builtin slices are kept between calls.
    """
    base = _table_base(k) if params is None else to_slices(*params)
    return scale_to_sigma(base, sigma)
