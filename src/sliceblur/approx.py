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

import itertools
from dataclasses import dataclass, field

import numpy as np


class DegeneratePartitionError(ValueError):
    """The interval basis is singular (duplicate or empty intervals)."""


class DegenerateScaleError(ValueError):
    """All slice radii collapsed to zero; use direct convolution instead."""


@dataclass(frozen=True)
class SampledKernel:
    """Half-kernel samples at integer offsets 0..n-1, peak first."""

    values: np.ndarray
    sigma0: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need at least 2 half-kernel samples")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("half-kernel samples must be finite")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")

    @property
    def radius(self) -> int:
        return self.values.size - 1


@dataclass(frozen=True)
class Partition:
    """Breakpoints p_1 < .. < p_k in [1, r] with one constant per interval."""

    breakpoints: np.ndarray
    constants: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "breakpoints", np.asarray(self.breakpoints, dtype=np.int64)
        )
        object.__setattr__(self, "constants", np.asarray(self.constants, dtype=np.float64))
        p = self.breakpoints
        if p.ndim != 1 or p.size == 0:
            raise ValueError("need at least one breakpoint")
        if p[0] < 1 or np.any(np.diff(p) <= 0):
            raise ValueError("breakpoints must be strictly increasing and >= 1")
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
        object.__setattr__(self, "radii", np.asarray(self.radii, dtype=np.int64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.radii.ndim != 1 or self.radii.size == 0:
            raise ValueError("need at least one slice")
        if self.radii[0] < 0 or np.any(np.diff(self.radii) <= 0):
            raise ValueError("slice radii must be strictly increasing and >= 0")
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
        return float(np.sum(self.weights * (2.0 * self.radii + 1.0)))

    def normalized(self) -> "SliceKernel":
        """Rescale weights to unit DC gain."""
        g = self.dc_gain
        if g == 0.0:
            raise ValueError("cannot normalize a zero-gain kernel")
        return SliceKernel(self.radii, self.weights / g, self.sigma)

    def dense(self) -> np.ndarray:
        """Materialize the symmetric kernel on [-p_k, p_k]."""
        p = self.max_radius
        t = np.abs(np.arange(-p, p + 1))
        # offset t is covered by every slice with radius >= t
        return (self.weights[None, :] * (t[:, None] <= self.radii[None, :])).sum(axis=1)


@dataclass(frozen=True)
class AutocorrModel:
    """Pixel-pair correlation Phi_{-r}..Phi_r and its Toeplitz matrix."""

    phi: np.ndarray
    matrix: np.ndarray = field(repr=False)

    @property
    def r(self) -> int:
        return (self.phi.size - 1) // 2

    @property
    def dim(self) -> int:
        return self.r + 1


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
    return SampledKernel(v, sigma0)


def build_autocorr(r: int, dc_value: float = 16.5) -> AutocorrModel:
    """Build the natural-image autocorrelation model of offset range [-r, r].

    The power spectrum 1/u^2 is discretized on 2r+1 integer frequencies with
    the undefined zero frequency set to ``dc_value``; Phi is its real inverse
    DFT and the matrix collects A[j, k] = Phi_{j-k} for j, k in 0..r.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = 2 * r + 1
    m = np.arange(n)
    u = np.minimum(m, n - m).astype(np.float64)  # signed frequency magnitude
    spectrum = np.empty(n)
    spectrum[0] = dc_value
    spectrum[1:] = 1.0 / (u[1:] * u[1:])
    phi_dft = np.fft.ifft(spectrum).real
    # mirror the non-negative lags so the even symmetry is exact
    half = phi_dft[: r + 1]
    phi = np.concatenate([half[:0:-1], half])
    idx = np.abs(np.subtract.outer(np.arange(r + 1), np.arange(r + 1)))
    matrix = half[idx]  # Phi_{|j-k|}, |j-k| <= r
    return AutocorrModel(phi=phi, matrix=matrix)


def identity_model(r: int) -> AutocorrModel:
    """Uncorrelated-pixel model: A = I, so E2 is the plain l2 kernel error."""
    if r < 1:
        raise ValueError("r must be >= 1")
    phi = np.zeros(2 * r + 1)
    phi[r] = 1.0
    return AutocorrModel(phi=phi, matrix=np.eye(r + 1))


def quadratic_error(
    target: SampledKernel, approx_weights, model: AutocorrModel
) -> float:
    """E2 = (w - w_hat)^T A (w - w_hat) on the half-kernel samples."""
    w = target.values
    w_hat = np.asarray(approx_weights, dtype=np.float64)
    if w_hat.shape != w.shape or model.dim != w.size:
        raise ValueError("target, approximation and model dimensions must agree")
    d = w - w_hat
    return float(d @ model.matrix @ d)


def _interval_edges(breakpoints: np.ndarray) -> np.ndarray:
    """Half-open row ranges [e_i, e_{i+1}) of the interval basis columns."""
    return np.concatenate(([0], np.asarray(breakpoints) + 1))


def _basis(breakpoints: np.ndarray, n: int) -> np.ndarray:
    """0/1 indicator matrix B with column i covering offsets of interval i."""
    edges = _interval_edges(breakpoints)
    t = np.arange(n)
    return (
        (t[:, None] >= edges[:-1][None, :]) & (t[:, None] < edges[1:][None, :])
    ).astype(np.float64)


def partition_profile(partition: Partition, n: int) -> np.ndarray:
    """Dense half-kernel values implied by a partition (zero past p_k)."""
    return _basis(partition.breakpoints, n) @ partition.constants


def optimal_constants(
    target: SampledKernel, breakpoints, model: AutocorrModel
) -> Partition:
    """Solve for the E2-minimizing constants of a fixed breakpoint set.

    Normal equations of the quadratic form restricted to the interval basis:
    c = (B^T A B)^{-1} B^T A w.
    """
    p = np.asarray(breakpoints, dtype=np.int64)
    w = target.values
    if model.dim != w.size:
        raise ValueError("target and model dimensions must agree")
    if p.size and p[-1] > target.radius:
        raise ValueError("breakpoints exceed the kernel support")
    b = _basis(p, w.size)
    g = b.T @ model.matrix @ b
    rhs = b.T @ (model.matrix @ w)
    if np.linalg.cond(g) > 1e12:
        raise DegeneratePartitionError("singular interval basis")
    c = np.linalg.solve(g, rhs)
    return Partition(p, c)


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
    target: SampledKernel, k: int, model: AutocorrModel
) -> Partition:
    """Find the E2-minimizing partition with k constants.

    Exhaustive over all strictly increasing breakpoint tuples for k <= 3;
    for k in {4, 5} a stride-4 coarse grid is refined by repeated +/-4
    local sweeps.  Ties break toward the lexicographically smallest tuple,
    so results are run-to-run identical.
    """
    if not 1 <= k <= 5:
        raise ValueError("k must be in [1, 5]")
    w = target.values
    if model.dim != w.size:
        raise ValueError("target and model dimensions must agree")
    r = target.radius
    if k > r:
        raise ValueError("more constants than admissible breakpoints")

    a = model.matrix
    sat = np.zeros((w.size + 1, w.size + 1))
    sat[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
    q = a @ w
    q_cum = np.concatenate(([0.0], np.cumsum(q)))
    w_a_w = float(w @ q)

    if k <= 3:
        combos = np.array(
            list(itertools.combinations(range(1, r + 1), k)), dtype=np.int64
        )
        bp, c, _ = _batch_best(combos, sat, q_cum, w_a_w)
        return Partition(bp, c)

    coarse = np.array(
        list(itertools.combinations(range(1, r + 1, 4), k)), dtype=np.int64
    )
    bp, c, e2 = _batch_best(coarse, sat, q_cum, w_a_w)
    offsets = np.array(
        list(itertools.product(range(-4, 5), repeat=k)), dtype=np.int64
    )
    while True:
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
    so constant inputs are preserved.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if base.sigma is None:
        raise ValueError("base kernel does not carry its native sigma")
    ratio = sigma / base.sigma
    new_p = np.floor(ratio * base.radii).astype(np.int64)
    if base.k > 1 and new_p[-1] == 0:
        raise DegenerateScaleError(
            "all radii collapsed to 0; convolve directly with a small kernel"
        )
    new_w = base.radii / (2.0 * new_p + 1.0) * base.weights
    # the floored radii are non-decreasing, so colliding ones are adjacent;
    # each group sums from 0.0 in index order
    radii, weights = [], []
    for p, w in zip(new_p.tolist(), new_w.tolist()):
        if not radii or radii[-1] != p:
            radii.append(p)
            weights.append(0.0)
        weights[-1] += w
    return SliceKernel(radii, weights, sigma).normalized()


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
