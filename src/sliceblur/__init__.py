"""Fast Gaussian image filtering with weighted-slice running sums.

The Gaussian half-kernel is approximated by k constants on a partition of
its support; the equivalent overlapping "slice" form lets the filter answer
every pixel with 2k additions and k multiplications over a single cumulative
sum, independent of sigma.  The partition is optimized under a quadratic
error form that weights kernel deviations by the autocorrelation of natural
images, so the l2 error of the filtered output (not of the kernel) is
minimized.
"""

from .approx import (
    Partition,
    SampledKernel,
    SliceKernel,
    build_autocorr,
    gaussian_kernel,
    optimal_constants,
    quadratic_error,
    sample_gaussian,
    scale_to_sigma,
    search_partitions,
    table_defaults,
    to_slices,
)
from .filtering import filter_at, separable_filter_2d, slice_filter_1d
from .oracle import (
    OpCounter,
    count_ops,
    dense_separable_2d,
    direct_convolve_1d,
    exact_gaussian_2d,
    mse,
    psnr,
)

__all__ = [
    "OpCounter",
    "Partition",
    "SampledKernel",
    "SliceKernel",
    "build_autocorr",
    "count_ops",
    "dense_separable_2d",
    "direct_convolve_1d",
    "exact_gaussian_2d",
    "filter_at",
    "gaussian_kernel",
    "mse",
    "optimal_constants",
    "psnr",
    "quadratic_error",
    "sample_gaussian",
    "scale_to_sigma",
    "search_partitions",
    "separable_filter_2d",
    "slice_filter_1d",
    "table_defaults",
    "to_slices",
]
