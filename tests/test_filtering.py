"""Tests for the running-sum slice filter."""

import tracemalloc

import numpy as np
import pytest

from sliceblur import filtering, oracle
from sliceblur.approx import SliceKernel, gaussian_kernel
from sliceblur.filtering import filter_at, separable_filter_2d, slice_filter_1d
from sliceblur.oracle import (
    dense_separable_2d, direct_convolve_1d, exact_gaussian_2d, mse, psnr,
)
from sliceblur.pgm import write_pgm
from sliceblur.synth import make_image


def table_kernel(k=3, sigma=4.0):
    return gaussian_kernel(sigma, k)


def random_kernel(rng, n):
    """Random unit-gain slice kernel that fits an extent of n."""
    k = int(rng.integers(1, 6))
    max_p = min(n - 1, 40)
    k = min(k, max_p + 1)
    radii = np.sort(rng.choice(np.arange(max_p + 1), size=k, replace=False))
    weights = rng.uniform(0.1, 1.0, size=k)
    return SliceKernel(radii, weights).normalized()


class TestSliceFilter1D:
    def test_constant_signal(self):
        sig = np.full(40, 0.5)
        out = slice_filter_1d(sig, table_kernel())
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_impulse_box_response(self):
        sig = np.zeros(21)
        sig[10] = 1.0
        kern = SliceKernel((2,), (0.2,))
        out = slice_filter_1d(sig, kern)
        expected = np.zeros(21)
        expected[8:13] = 0.2
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_dense_convolution_oracle(self):
        rng = np.random.default_rng(5)
        sig = rng.random(64)
        kern = table_kernel(3, 4.0)
        fast = slice_filter_1d(sig, kern)
        dense = direct_convolve_1d(sig, kern.dense())
        assert np.abs(fast - dense).max() <= 1e-10

    def test_random_kernels_match_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(8, 200))
            kern = random_kernel(rng, n)
            sig = rng.random(n)
            fast = slice_filter_1d(sig, kern)
            dense = direct_convolve_1d(sig, kern.dense())
            assert np.abs(fast - dense).max() <= 1e-10

    def test_radius_beyond_extent_matches_dense(self):
        # radius 5 on 5 samples: the far slice ends lie on the ramps only
        kern = SliceKernel((5,), (1.0 / 11.0,))
        for sig in (np.zeros(5), np.random.default_rng(7).random(5)):
            fast = slice_filter_1d(sig, kern)
            dense = direct_convolve_1d(sig, kern.dense())
            assert np.abs(fast - dense).max() <= 1e-10

    def test_rejects_non_unit_gain(self):
        with pytest.raises(ValueError):
            slice_filter_1d(np.zeros(30), SliceKernel((2,), (1.0,)))

    @pytest.mark.parametrize("shape", [(0,), (3, 5), (1, 1)])
    def test_rejects_empty_or_not_1d(self, shape):
        with pytest.raises(ValueError, match="^need a non-empty 1D signal$"):
            slice_filter_1d(np.zeros(shape), table_kernel())

    def test_shift_covariance_interior(self):
        rng = np.random.default_rng(13)
        sig = rng.random(128)
        kern = table_kernel(3, 3.0)
        s = 5
        shifted = np.roll(sig, s)
        out = slice_filter_1d(sig, kern)
        out_shifted = slice_filter_1d(shifted, kern)
        margin = kern.max_radius + s
        np.testing.assert_allclose(
            out_shifted[margin:-margin],
            np.roll(out, s)[margin:-margin],
            atol=1e-12,
        )

    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(17)
        half = rng.random(32)
        sig = np.concatenate([half, half[::-1]])
        out = slice_filter_1d(sig, table_kernel(4, 5.0))
        np.testing.assert_allclose(out, out[::-1], atol=1e-12)


class TestSeparableFilter2D:
    def test_constant_image(self):
        img = np.full((32, 48), 0.7)
        out = separable_filter_2d(img, table_kernel(3, 2.0))
        np.testing.assert_allclose(out, 0.7, atol=1e-12)

    def test_dense_oracle(self):
        rng = np.random.default_rng(21)
        img = rng.random((64, 64))
        kern = table_kernel(3, 4.0)
        fast = separable_filter_2d(img, kern)
        dense = dense_separable_2d(img, kern.dense())
        assert np.abs(fast - dense).max() <= 1e-9

    def test_full_2d_outer_product_oracle(self):
        # non-separable check: explicit 2D correlation with the outer
        # product kernel on a replicate-padded image
        rng = np.random.default_rng(23)
        img = rng.random((16, 16))
        kern = SliceKernel((1, 3), (0.08, 0.04)).normalized()
        dense1d = kern.dense()
        kern2d = np.outer(dense1d, dense1d)
        r = kern.max_radius
        padded = np.pad(img, r, mode="edge")
        expected = np.zeros_like(img)
        for y in range(16):
            for x in range(16):
                expected[y, x] = np.sum(
                    kern2d * padded[y : y + 2 * r + 1, x : x + 2 * r + 1]
                )
        fast = separable_filter_2d(img, kern)
        assert np.abs(fast - expected).max() <= 1e-12

    def test_impulse_outer_product(self):
        img = np.zeros((64, 64))
        img[32, 32] = 1.0
        kern = table_kernel(4, 4.0)
        fast = separable_filter_2d(img, kern)
        dense = dense_separable_2d(img, kern.dense())
        assert np.abs(fast - dense).max() <= 1e-9
        # stepped marginal profile through the center
        dense1d = kern.dense()
        np.testing.assert_allclose(
            fast[32, :],
            direct_convolve_1d(img[32, :], dense1d) * dense1d[kern.max_radius],
            atol=1e-12,
        )

    def test_separability_order(self):
        rng = np.random.default_rng(29)
        img = rng.random((48, 72))
        kern = table_kernel(3, 3.0)
        rows_then_cols = separable_filter_2d(img, kern)
        cols_then_rows = separable_filter_2d(img.T, kern).T
        oracle = dense_separable_2d(img, kern.dense())
        assert np.abs(rows_then_cols - cols_then_rows).max() <= 1e-10
        assert np.abs(rows_then_cols - oracle).max() <= 1e-10
        assert np.abs(cols_then_rows - oracle).max() <= 1e-10

    def test_negative_zero_image(self):
        # the first slice term is written into the output rather than added
        # to a zero fill, so the zeros may keep their sign; they are zeros
        img = np.full((20, 30), -0.0)
        kern = table_kernel(3, 3.0)
        assert np.all(separable_filter_2d(img, kern) == 0)
        assert np.all(slice_filter_1d(img[0], kern) == 0)
        assert np.all(filter_at(img, kern, [(0, 0), (29, 19), (7, 3)]) == 0)

    def test_radius_beyond_either_dim_matches_dense(self):
        kern = table_kernel(3, 20.0)  # max radius 47
        rng = np.random.default_rng(31)
        for shape in ((40, 200), (200, 40)):
            for img in (np.zeros(shape), rng.random(shape)):
                fast = separable_filter_2d(img, kern)
                dense = dense_separable_2d(img, kern.dense())
                assert np.abs(fast - dense).max() <= 1e-10


    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_image(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            separable_filter_2d(np.zeros(shape), table_kernel())


class TestDtype:
    """A float32 input is filtered in float32, anything else in float64."""

    FILTERS = {
        "slice_filter_1d": lambda a, kern: slice_filter_1d(a[0], kern),
        "separable_filter_2d": separable_filter_2d,
        "filter_at": lambda a, kern: filter_at(a, kern, [(0, 0), (4, 2), (9, 5)]),
    }

    @pytest.mark.parametrize("name", FILTERS)
    @pytest.mark.parametrize(
        "dtype, result",
        [(np.float32, np.float32), (np.float64, np.float64),
         (np.uint8, np.float64), (np.int64, np.float64), (np.float16, np.float64)],
    )
    def test_result_dtype(self, name, dtype, result):
        img = (np.random.default_rng(3).random((6, 10)) * 100).astype(dtype)
        kern = table_kernel(3, 2.0)
        got = self.FILTERS[name](img, kern)
        assert got.dtype == result
        # a non-float32 input is filtered as its float64 conversion
        want = self.FILTERS[name](img.astype(result), kern)
        np.testing.assert_array_equal(got, want)

    @pytest.fixture(scope="class")
    def image_8bit(self):
        levels = np.rint(make_image("one-over-f", 2048, 2048, seed=5) * 255)
        levels = levels.astype(np.uint8)
        # as pgm.read_pgm gives an 8-bit file, and its float64 counterpart
        return np.divide(levels, 255, dtype=np.float32), levels / 255.0

    @pytest.mark.parametrize("sigma", [2.0, 5.0, 50.0])
    def test_float32_bound_at_2048(self, image_8bit, sigma):
        # The stated float32 error: at 2048², k=3, at most 1e-4 from the
        # float64 result (under 0.03 of an 8-bit step), and the same PSNR
        # against the dense Gaussian within 0.01 dB.
        img32, img64 = image_8bit
        kern = table_kernel(3, sigma)
        out32 = separable_filter_2d(img32, kern)
        out64 = separable_filter_2d(img64, kern)
        assert out32.dtype == np.float32
        assert np.abs(out32 - out64).max() <= 1e-4
        exact = exact_gaussian_2d(img64, sigma)
        assert abs(psnr(out32, exact) - psnr(out64, exact)) <= 0.01

    @pytest.mark.parametrize("n, bound", [(1024, 0.5), (2048, 1.0)])
    def test_float32_bound_on_16bit(self, n, bound):
        # The float32 sums of f - 1/2 keep 16-bit data within half a level
        # of the float64 result at 1024² and within one level at 2048²
        # (0.33 and 0.72 measured, at sigma 1, k=5)
        levels = np.rint(make_image("one-over-f", n, n, seed=5) * 65535)
        img32, img64 = np.divide(levels, 65535, dtype=np.float32), levels / 65535
        for sigma in (1.0, 2.0, 8.0):
            for k in (3, 5):
                kern = table_kernel(k, sigma)
                diff = separable_filter_2d(img32, kern) - separable_filter_2d(img64, kern)
                assert np.abs(diff).max() * 65535 <= bound


class TestFilterAt:
    def test_all_pixels_identical(self):
        rng = np.random.default_rng(37)
        kern = table_kernel(3, 2.0)
        points = [(x, y) for y in range(24) for x in range(30)]
        for img in (rng.random((24, 30)), rng.random((24, 30), dtype=np.float32)):
            full = separable_filter_2d(img, kern)
            got = filter_at(img, kern, points)
            assert got.dtype == img.dtype
            np.testing.assert_array_equal(
                got, full[tuple(zip(*[(y, x) for x, y in points]))]
            )

    @pytest.mark.parametrize("block", [filtering._BLOCK, 4096])
    @pytest.mark.parametrize("w", [filtering._NARROW, filtering._NARROW + 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bits_on_both_column_paths(self, monkeypatch, dtype, w, block):
        # filter_at centres float32 rows into scratch a block at a time; the
        # column pass centres them as it sums them, by np.cumsum (w <=
        # _NARROW) or row adds, over blocks of 1-4 rows at 4096 bytes
        monkeypatch.setattr(filtering, "_BLOCK", block)
        img = np.random.default_rng(w).random((40, w)).astype(dtype)
        kern = table_kernel(3, 3.0)
        full = separable_filter_2d(img, kern)
        points = [(x, y) for y in range(40) for x in (0, 1, w // 2, w - 1)]
        want = np.array([full[y, x] for x, y in points])
        assert filter_at(img, kern, points).tobytes() == want.tobytes()

    def test_constant_center(self):
        img = np.full((33, 33), 0.5)
        got = filter_at(img, table_kernel(3, 3.0), [(16, 16)])
        assert got[0] == pytest.approx(0.5, abs=1e-12)

    def test_random_points_exact(self):
        rng = np.random.default_rng(41)
        img = rng.random((64, 64))
        kern = table_kernel(4, 4.0)
        pts = [(int(rng.integers(64)), int(rng.integers(64))) for _ in range(16)]
        for a in (img, img.astype(np.float32)):
            full = separable_filter_2d(a, kern)
            got = filter_at(a, kern, pts)
            for value, (x, y) in zip(got, pts):
                assert value == full[y, x]  # bit-exact

    def test_duplicates_and_corners_keep_order(self):
        rng = np.random.default_rng(43)
        img = rng.random((20, 31))
        kern = table_kernel(3, 2.0)
        full = separable_filter_2d(img, kern)
        pts = [(30, 19), (5, 3), (0, 0), (5, 3), (5, 17), (0, 19), (30, 0),
               (5, 3), (0, 0), (12, 19)]
        got = filter_at(img, kern, pts)
        np.testing.assert_array_equal(got, [full[y, x] for x, y in pts])

    def test_out_of_bounds(self):
        img = np.zeros((16, 16))
        with pytest.raises(ValueError):
            filter_at(img, table_kernel(3, 1.0), [(16, 0)])
        with pytest.raises(ValueError):
            filter_at(img, table_kernel(3, 1.0), [(0, -1)])
        with pytest.raises(ValueError, match=r"point \(1\.9, 2\.7\)"):
            filter_at(img, table_kernel(3, 1.0), [(1.9, 2.7)])

    @pytest.mark.parametrize("points", [
        (3, 4), [(3, 4, 5)], [[(3, 4)]], 3, [[3], [4]], np.zeros((2, 2, 2)),
    ], ids=["one-pair-unwrapped", "triple", "nested", "scalar", "singles", "3d"])
    def test_refuses_points_that_are_not_pairs(self, points):
        # unpacking them raised TypeError or "too many values to unpack"
        img = np.zeros((16, 16))
        with pytest.raises(ValueError, match=r"^points must be \(x, y\) pairs"):
            filter_at(img, table_kernel(3, 1.0), points)

    @pytest.mark.parametrize("points", [[], (), np.zeros((0, 2))])
    def test_no_points(self, points):
        out = filter_at(np.ones((16, 16)), table_kernel(3, 1.0), points)
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_image(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            filter_at(np.zeros(shape), table_kernel(), [])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("entry", [
    lambda img, kern: slice_filter_1d(img[5], kern),
    separable_filter_2d,
    lambda img, kern: filter_at(img, kern, [(70, 60)]),
], ids=["slice_filter_1d", "separable_filter_2d", "filter_at"])
def test_rejects_non_finite_input(entry, dtype):
    # a NaN or inf would reach every later running sum of its row (at (70,
    # 60), far outside the radius-4 kernel around it), so it is refused
    kern = table_kernel(3, 2.0)
    image = np.random.default_rng(47).random((64, 80)).astype(dtype)
    for pixels in ({10: np.nan}, {10: np.inf}, {10: -np.inf}, {10: np.inf, 20: -np.inf}):
        img = image.copy()
        for x, value in pixels.items():
            img[5, x] = value
        with pytest.raises(
            ValueError, match=rf"^cannot filter {len(pixels)} non-finite pixel\(s\)"
        ):
            entry(img, kern)
    # finite pixels whose row sum does not fit the dtype
    img = image.copy()
    img[5] = np.finfo(dtype).max / 4
    with pytest.raises(ValueError, match=f"^cannot filter: a row sum overflows {img.dtype}"):
        entry(img, kern)


@pytest.mark.parametrize("kern", [
    SliceKernel((2,), (1.0,)), SliceKernel((1, 2), (np.nan, 0.1)),
    SliceKernel((1, 2), (np.inf, 0.1)),
], ids=["gain-5", "nan", "inf"])
@pytest.mark.parametrize("entry", [
    lambda img, kern: slice_filter_1d(img[0], kern),
    separable_filter_2d,
    lambda img, kern: filter_at(img, kern, [(0, 0)]),
], ids=["slice_filter_1d", "separable_filter_2d", "filter_at"])
def test_rejects_kernel_without_unit_gain(entry, kern):
    with pytest.raises(ValueError, match="^kernel must have unit DC gain"):
        entry(np.ones((4, 4)), kern)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("entry", [
    lambda img, kern, path: slice_filter_1d(img[0], kern),
    lambda img, kern, path: separable_filter_2d(img, kern),
    lambda img, kern, path: filter_at(img, kern, [(0, 0)]),
    lambda img, kern, path: write_pgm(path, img),
    lambda img, kern, path: dense_separable_2d(img, kern.dense()),
    lambda img, kern, path: direct_convolve_1d(img[0], kern.dense()),
    lambda img, kern, path: mse(img, img.real),
], ids=["slice_filter_1d", "separable_filter_2d", "filter_at", "write_pgm",
        "dense_separable_2d", "direct_convolve_1d", "mse"])
def test_rejects_complex_input(entry, dtype, tmp_path):
    # casting to float would drop the imaginary part, with only a warning
    rng = np.random.default_rng(48)
    img = (rng.random((8, 9)) + 1j * rng.random((8, 9))).astype(dtype)
    path = tmp_path / "c.pgm"
    with pytest.raises(ValueError, match=f"^need real pixels, got {np.dtype(dtype).name}"):
        entry(img, table_kernel(3, 1.0), path)
    assert not path.exists()


def test_rejects_overflowing_column_sum():
    # each row sum is finite, but the column running sum of 64 values of
    # 1e307 overflows float64 at row 18
    img = np.full((64, 1), 1e307)
    kern = table_kernel(3, 2.0)
    for entry in (separable_filter_2d, lambda a, k: filter_at(a, k, [(0, 0), (0, 63)])):
        with pytest.raises(ValueError, match="^cannot filter: a column sum overflows float64"):
            entry(img, kern)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("entry, sums", [
    (lambda img, kern: slice_filter_1d(img[0], kern), "row"),
    (separable_filter_2d, "column"),
    (lambda img, kern: filter_at(img, kern, [(0, 0)]), "column"),
], ids=["slice_filter_1d", "separable_filter_2d", "filter_at"])
def test_rejects_overflowing_ramp(entry, sums, dtype):
    # one finite pixel: its running sum is the pixel, but the clamp ramps
    # reach P times it, and P > 2 here
    img = np.full((1, 1), np.finfo(dtype).max / 2, dtype)
    kern = table_kernel(3, 2.0)
    assert kern.max_radius > 2
    with pytest.raises(ValueError, match=f"^cannot filter: a {sums} sum overflows {img.dtype}"):
        entry(img, kern)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("entry, sums", [
    (lambda img, kern: slice_filter_1d(img[0], kern), "row"),
    (separable_filter_2d, "column"),
    (lambda img, kern: filter_at(img, kern, [(0, 0)]), "column"),
], ids=["slice_filter_1d", "separable_filter_2d", "filter_at"])
def test_rejects_overflowing_slice_term(entry, sums, dtype):
    # one finite pixel v: the ramp ends I(-4) = -3v and I(3) = 4v are
    # finite, but the slice term I(3) - I(-4) = 7v is not; the image is not
    # blamed for it
    img = np.full((1, 1), np.finfo(dtype).max / 5, dtype)
    kern = SliceKernel((3,), (1.0 / 7.0,))
    with pytest.raises(ValueError, match=f"^cannot filter: a {sums} sum overflows {img.dtype}"):
        entry(img, kern)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("entry", [
    separable_filter_2d, lambda img, kern: filter_at(img, kern, [(2, 0)]),
], ids=["separable_filter_2d", "filter_at"])
def test_rejects_overflowing_row_slice_term(entry, dtype):
    # The column pass keeps 0.98 of each row and its sums stay within v;
    # row 0's I = 0.98 * [-v, 0, v, v] and its ramp ends are finite, but
    # the term I(3) - I(0) of the row pass overflows
    kern = SliceKernel((0, 1), (0.97, 0.01))
    v = np.finfo(dtype).max / 1.8
    img = np.array([[-v, v, v, 0.0], [v, -v, -v, 0.0]], dtype)
    with pytest.raises(ValueError, match=f"^cannot filter: a row sum overflows {img.dtype}"):
        entry(img, kern)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_rejects_row_sum_overflowing_between_finite_ends(dtype):
    # the two lanes are [0, v, v, 0, 0, 0] and stay finite, and so do the
    # ends of I = [0, v, 2v, v, 0, 0], but I(2) = 2v overflows
    v = np.finfo(dtype).max * 0.9
    sig = np.array([0, v, v, -v, -v, 0], dtype)
    with pytest.raises(ValueError, match=f"^cannot filter: a row sum overflows {sig.dtype}"):
        slice_filter_1d(sig, SliceKernel((1,), (1.0 / 3.0,)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_accepts_row_whose_lane_alone_overflows(dtype):
    # I alternates between 0 and v, but the odd samples alone sum to 5v,
    # which overflows: the row is still filtered
    v = np.finfo(dtype).max / 2
    sig = np.array([0] + [v, -v] * 5 + [0], dtype)
    kern = SliceKernel((1,), (1.0 / 3.0,))
    out = slice_filter_1d(sig, kern)
    assert out.dtype == dtype
    dense = direct_convolve_1d(sig.astype(np.float64), kern.dense())
    np.testing.assert_allclose(out, dense, rtol=0, atol=v * 1e-6)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_non_contiguous_input_same_bits(dtype):
    # the row running sums view contiguous rows as complex pairs, so every
    # entry point must hand them contiguous rows whatever its input's layout
    rng = np.random.default_rng(53)
    kern = table_kernel(3, 2.0)
    x = rng.random(201).astype(dtype)
    for view in (x[::2], x[::-1]):
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(
            slice_filter_1d(view, kern), slice_filter_1d(view.copy(), kern)
        )
    img = rng.random((37, 45)).astype(dtype)
    fortran = np.asfortranarray(img)
    pts = [(0, 0), (44, 36), (7, 20), (30, 3)]
    np.testing.assert_array_equal(filter_at(fortran, kern, pts), filter_at(img, kern, pts))
    flipped = img[::-1, ::-1]
    np.testing.assert_array_equal(
        separable_filter_2d(flipped, kern), separable_filter_2d(flipped.copy(), kern)
    )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1023, 1024])
def test_row_running_sums_are_exact_on_integers(n, dtype):
    # I(j) = lane[j] + lane[j - 1] sums integers exactly, so the extended
    # row sums equal np.cumsum at every width, odd and even, and at every
    # row start of a block of several rows (the 5 rows are one block).  The
    # radius-0 slice gives I(x) - I(x - 1), which is the sample only if
    # every I(j) is exact; the weight-0 radius-3 slice keeps a pad of 3.
    a = np.random.default_rng(n).integers(0, 256, (5, n)).astype(dtype)
    assert filtering._block_rows(*a.shape, dtype) >= 5
    out = np.empty_like(a)
    filtering._row_pass(a, SliceKernel((0, 3), (1.0, 0.0)), out, a)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out - filtering._centre(dtype), a)


def _column_pass_both_ways(monkeypatch, img, kern):
    """``_column_pass`` of ``img`` by np.cumsum and by row adds."""
    outs = []
    for narrow in (img.shape[1], img.shape[1] - 1):
        monkeypatch.setattr(filtering, "_NARROW", narrow)
        out = np.empty(img.shape, img.dtype)
        filtering._column_pass(img, kern, out)
        outs.append(out)
    return outs


@pytest.mark.parametrize("block", [filtering._BLOCK, 256])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("w", [
    1, 2, 3, filtering._NARROW - 1, filtering._NARROW, filtering._NARROW + 1,
])
def test_narrow_column_sums_same_bits_as_row_adds(monkeypatch, w, dtype, block):
    # the column running sum of a narrow image is np.cumsum(axis=0), over
    # column pairs viewed as complex numbers: the row adds' additions in
    # their order, so the bits agree at odd and even widths, across blocks
    # (256 bytes: a block of 1 to 32 rows), on every layout, and at -0.0
    monkeypatch.setattr(filtering, "_BLOCK", block)
    kern = SliceKernel((0, 3, 7), (0.5, 0.3, 0.2)).normalized()
    rng = np.random.default_rng(w)
    img = rng.standard_normal((45, w)).astype(dtype)
    img[rng.random(img.shape) < 0.2] = -0.0
    for view in (img, img[::-1], img[::-1, ::-1], np.asfortranarray(img), -np.zeros_like(img)):
        narrow, adds = _column_pass_both_ways(monkeypatch, view, kern)
        assert narrow.tobytes() == adds.tobytes()
        np.testing.assert_array_equal(np.signbit(narrow), np.signbit(adds))


@pytest.mark.parametrize("w", [120, 121])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_narrow_column_sums_allocate_no_temporary(monkeypatch, w, dtype):
    # np.cumsum writes from the image (or a scratch copy) into the column
    # buffer, so numpy never copies an operand that overlaps its output
    img = np.random.default_rng(w).random((113, w)).astype(dtype)
    kern = gaussian_kernel(4.0, 5)
    peaks = []
    for narrow in (w, 0):
        monkeypatch.setattr(filtering, "_NARROW", narrow)
        peaks.append(TestMemory._peak(lambda: separable_filter_2d(img, kern)))
    assert peaks[0] <= peaks[1] + 1024


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_narrow_rejects_overflowing_column_sum(dtype):
    # every row sums to a quarter of the dtype's largest value, but the
    # running sum down each column overflows at row 8
    img = np.full((64, 2), np.finfo(dtype).max / 8, dtype)
    assert img.shape[1] <= filtering._NARROW
    kern = table_kernel(3, 2.0)
    for entry in (separable_filter_2d, lambda a, k: filter_at(a, k, [(1, 0), (0, 63)])):
        with pytest.raises(ValueError, match=f"^cannot filter: a column sum overflows {img.dtype}"):
            entry(img, kern)


@pytest.mark.parametrize("in_place", [False, True], ids=["copy", "in-place"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("w", [filtering._NARROW, filtering._NARROW + 1])
@pytest.mark.parametrize("h, sigma", [(120, 2.0), (6, 5.0)], ids=["shifts", "P>=h"])
def test_column_buffer_shifts(monkeypatch, h, sigma, w, dtype, in_place):
    # blocks of 2 (float64) or 4 (float32) rows, fewer than the 2P + 1 rows
    # that each shift moves to the front of the column running sum's buffer:
    # at h = 120, P = 4, the buffer shifts six (float64) or seven times; at
    # h = 6, P = 11, the whole running sum fits in it
    monkeypatch.setattr(filtering, "_BLOCK", 2 * 8 * w)
    kern = table_kernel(3, sigma)
    assert filtering._block_rows(h, w, dtype) < 2 * kern.max_radius + 1
    assert (kern.max_radius >= h) == (h == 6)
    img = np.random.default_rng(w).random((h, w)).astype(dtype)
    out = separable_filter_2d(img.copy() if in_place else img, kern, _in_place=in_place)
    assert out.dtype == dtype
    every = [(x, y) for y in range(h) for x in range(w)]
    assert filter_at(img, kern, every).tobytes() == out.tobytes()
    dense = dense_separable_2d(img.astype(np.float64), kern.dense())
    tol = 1e-10 if dtype == np.float64 else F32_TOL * (max(h, w) + kern.max_radius)
    assert np.abs(out - dense).max() <= tol
    # in the last block; in place, the count is of the column-filtered image
    img[-1, 3] = np.nan
    count = r"\d+" if in_place else "1"
    with pytest.raises(ValueError, match=rf"^cannot filter {count} non-finite pixel\(s\)"):
        separable_filter_2d(img, kern, _in_place=in_place)


def _slice_kernels(st, max_radius):
    """Strategy: random unit-gain slice kernels with radii <= max_radius."""
    return st.tuples(
        st.lists(
            st.integers(0, max_radius), min_size=1, max_size=5, unique=True
        ).map(sorted),
        st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
    ).map(lambda rw: SliceKernel(rw[0], rw[1][: len(rw[0])]).normalized())


# Bound on the error of a float32 filter against the float64 dense filter
# of the same input, per unit of the largest running sum it builds (n + P
# samples in [0, 1]).  Over 3000 random shapes and kernels like the ones
# drawn below the error stayed below 0.4 float32 epsilons per unit.
F32_TOL = 4 * np.finfo(np.float32).eps


class TestProperties:
    """Fast paths against dense oracles on drawn shapes and kernels; each
    draw is filtered in float64 and in float32."""

    def test_2d_matches_dense_and_filter_at_is_exact(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, max_examples=80, deadline=None)
        @hyp.given(data=st.data())
        def check(data):
            h = data.draw(st.integers(1, 64), label="h")
            w = data.draw(st.integers(1, 64), label="w")
            kern = data.draw(_slice_kernels(st, 3 * max(h, w)), label="kernel")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            img = np.random.default_rng(seed).random((h, w))
            fast = separable_filter_2d(img, kern)
            assert np.abs(fast - dense_separable_2d(img, kern.dense())).max() <= 1e-10
            pts = data.draw(
                st.lists(
                    st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                    min_size=1, max_size=8,
                ),
                label="points",
            )
            got = filter_at(img, kern, pts)
            np.testing.assert_array_equal(got, [fast[y, x] for x, y in pts])

            img32 = img.astype(np.float32)
            fast32 = separable_filter_2d(img32, kern)
            dense = dense_separable_2d(img32.astype(np.float64), kern.dense())
            tol = F32_TOL * (max(h, w) + kern.max_radius)
            assert fast32.dtype == np.float32
            assert np.abs(fast32 - dense).max() <= tol
            got = filter_at(img32, kern, pts)
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, [fast32[y, x] for x, y in pts])

        check()

    def test_1d_matches_dense_from_length_1(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, max_examples=150, deadline=None)
        @hyp.given(data=st.data())
        def check(data):
            n = data.draw(st.integers(1, 200), label="n")
            kern = data.draw(_slice_kernels(st, 3 * n), label="kernel")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            sig = np.random.default_rng(seed).random(n)
            fast = slice_filter_1d(sig, kern)
            dense = direct_convolve_1d(sig, kern.dense())
            assert np.abs(fast - dense).max() <= 1e-10

            sig32 = sig.astype(np.float32)
            fast32 = slice_filter_1d(sig32, kern)
            dense = direct_convolve_1d(sig32.astype(np.float64), kern.dense())
            assert fast32.dtype == np.float32
            assert np.abs(fast32 - dense).max() <= F32_TOL * (n + kern.max_radius)

        check()

    # 320 bytes per block, 40 float64 or 80 float32 values: every row wider
    # than 20 (float64) or 40 (float32) is a block of its own, and narrower
    # images span blocks of several rows with a partial last block.  The
    # oracle's output does not depend on its blocks, so it keeps the one
    # block of all rows that the default budget gives the images drawn here.
    @staticmethod
    def _small_blocks(monkeypatch):
        monkeypatch.setattr(filtering, "_BLOCK", 320)
        assert filtering._block_rows(7, 15, np.float64) == 2
        assert filtering._block_rows(7, 15, np.float32) == 5
        assert filtering._block_rows(7, 41, np.float32) == 1
        monkeypatch.setattr(oracle, "_block_rows", lambda h, n, dtype: h)

    def test_2d_with_small_blocks(self, monkeypatch):
        self._small_blocks(monkeypatch)
        self.test_2d_matches_dense_and_filter_at_is_exact()

    def test_1d_with_small_blocks(self, monkeypatch):
        self._small_blocks(monkeypatch)
        self.test_1d_matches_dense_from_length_1()

    # Every image drawn above is at most 64 wide, so its column running
    # sums come from np.cumsum (and across blocks, with small blocks);
    # _NARROW = 0 sends them through the row adds that wider images take.
    def test_2d_with_row_adds(self, monkeypatch):
        monkeypatch.setattr(filtering, "_NARROW", 0)
        self.test_2d_matches_dense_and_filter_at_is_exact()

    def test_2d_with_row_adds_and_small_blocks(self, monkeypatch):
        monkeypatch.setattr(filtering, "_NARROW", 0)
        self._small_blocks(monkeypatch)
        self.test_2d_matches_dense_and_filter_at_is_exact()


@pytest.mark.parametrize("shape", [(1,), (3, 5), (32, 1024), (7, 3, 2)])
def test_buffers_start_on_a_cache_line(shape):
    for dtype in (np.float64, np.float32, np.uint8):
        buf = filtering._empty(shape, dtype)
        assert buf.shape == shape and buf.dtype == dtype and buf.flags.c_contiguous
        assert buf.ctypes.data % 64 == 0


class TestMemory:
    """Peak traced allocation of one call at 1024^2, sigma 50."""

    @pytest.fixture(scope="class")
    def image(self):
        return make_image("one-over-f", 1024, 1024, seed=3)

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_separable_filter_2d(self, image):
        kern = table_kernel(3, 50.0)
        for img in (image, image.astype(np.float32)):
            peak = self._peak(lambda: separable_filter_2d(img, kern))
            # the output, and the column running sum's buffer of 3(2P + 1)
            # rows, 717 at P = 119, with a block of slice-term scratch
            assert peak < 2.0 * img.nbytes

    def test_filter_at(self, image):
        kern = table_kernel(3, 50.0)
        rng = np.random.default_rng(8)
        pts = [(int(x), int(y)) for x, y in rng.integers(0, 1024, size=(64, 2))]
        for img in (image, image.astype(np.float32)):
            peak = self._peak(lambda: filter_at(img, kern, pts))
            assert peak < 0.5 * img.nbytes


@pytest.mark.parametrize("sigma", [5.0, 50.0])
def test_filter_at_memory_without_image_buffers(sigma):
    # filter_at streams one column running sum past the probed rows: it
    # holds those rows, the column slice terms open at one time and the
    # row pass's blocks, and no image-sized buffer, at any sigma
    image = make_image("one-over-f", 1024, 1024, seed=3)
    kern = table_kernel(3, sigma)
    rng = np.random.default_rng(8)
    pts = [(int(x), int(y)) for x, y in rng.integers(0, 1024, size=(64, 2))]
    for img in (image, image.astype(np.float32)):
        peak = TestMemory._peak(lambda: filter_at(img, kern, pts))
        assert peak < 0.35 * img.nbytes
