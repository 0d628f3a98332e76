"""Tests for the running-sum slice filter."""

import tracemalloc

import numpy as np
import pytest

from sliceblur import filtering
from sliceblur.approx import Partition, SliceKernel, scale_to_sigma, table_defaults, to_slices
from sliceblur.filtering import (
    KernelTooLargeError,
    filter_at,
    separable_filter_2d,
    slice_filter_1d,
)
from sliceblur.oracle import direct_convolve_1d
from sliceblur.synth import make_image


def table_kernel(k=3, sigma=4.0):
    part, sigma0 = table_defaults(k)
    return scale_to_sigma(to_slices(part, sigma0), sigma)


def random_kernel(rng, n):
    """Random unit-gain slice kernel that fits an extent of n."""
    k = int(rng.integers(1, 6))
    max_p = min(n - 1, 40)
    k = min(k, max_p + 1)
    radii = np.sort(rng.choice(np.arange(max_p + 1), size=k, replace=False))
    weights = rng.uniform(0.1, 1.0, size=k)
    return SliceKernel(radii, weights).normalized()


def dense_separable_2d(image, dense_kernel):
    """Oracle: dense 1D convolution of all rows, then all columns."""
    rows = np.apply_along_axis(
        lambda r: direct_convolve_1d(r, dense_kernel), 1, image
    )
    return np.apply_along_axis(
        lambda c: direct_convolve_1d(c, dense_kernel), 0, rows
    )


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
        dense = direct_convolve_1d(sig, kern.dense(), "replicate")
        assert np.abs(fast - dense).max() <= 1e-10

    def test_random_kernels_match_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(8, 200))
            kern = random_kernel(rng, n)
            sig = rng.random(n)
            fast = slice_filter_1d(sig, kern)
            dense = direct_convolve_1d(sig, kern.dense(), "replicate")
            assert np.abs(fast - dense).max() <= 1e-10

    def test_kernel_too_large(self):
        with pytest.raises(KernelTooLargeError):
            slice_filter_1d(np.zeros(5), SliceKernel((5,), (1.0 / 11.0,)))

    def test_rejects_non_unit_gain(self):
        with pytest.raises(ValueError):
            slice_filter_1d(np.zeros(30), SliceKernel((2,), (1.0,)))

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

    def test_kernel_too_large_either_dim(self):
        kern = table_kernel(3, 20.0)  # max radius 47
        with pytest.raises(KernelTooLargeError):
            separable_filter_2d(np.zeros((40, 200)), kern)
        with pytest.raises(KernelTooLargeError):
            separable_filter_2d(np.zeros((200, 40)), kern)


class TestFilterAt:
    def test_all_pixels_identical(self):
        rng = np.random.default_rng(37)
        img = rng.random((24, 30))
        kern = table_kernel(3, 2.0)
        full = separable_filter_2d(img, kern)
        points = [(x, y) for y in range(24) for x in range(30)]
        got = filter_at(img, kern, points)
        np.testing.assert_array_equal(got, full[tuple(zip(*[(y, x) for x, y in points]))])

    def test_constant_center(self):
        img = np.full((33, 33), 0.5)
        got = filter_at(img, table_kernel(3, 3.0), [(16, 16)])
        assert got[0] == pytest.approx(0.5, abs=1e-12)

    def test_random_points_exact(self):
        rng = np.random.default_rng(41)
        img = rng.random((64, 64))
        kern = table_kernel(4, 4.0)
        full = separable_filter_2d(img, kern)
        pts = [(int(rng.integers(64)), int(rng.integers(64))) for _ in range(16)]
        got = filter_at(img, kern, pts)
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


def _slice_kernels(st, max_radius):
    """Strategy: random unit-gain slice kernels with radii <= max_radius."""
    return st.tuples(
        st.lists(
            st.integers(0, max_radius), min_size=1, max_size=5, unique=True
        ).map(sorted),
        st.lists(st.floats(0.1, 1.0), min_size=5, max_size=5),
    ).map(lambda rw: SliceKernel(rw[0], rw[1][: len(rw[0])]).normalized())


class TestProperties:
    """Fast paths against dense oracles on drawn shapes and kernels."""

    def test_2d_matches_dense_and_filter_at_is_exact(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, max_examples=80, deadline=None)
        @hyp.given(data=st.data())
        def check(data):
            h = data.draw(st.integers(1, 64), label="h")
            w = data.draw(st.integers(1, 64), label="w")
            kern = data.draw(_slice_kernels(st, min(h, w) - 1), label="kernel")
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

        check()

    def test_1d_matches_dense_from_length_1(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(derandomize=True, max_examples=150, deadline=None)
        @hyp.given(data=st.data())
        def check(data):
            n = data.draw(st.integers(1, 200), label="n")
            kern = data.draw(_slice_kernels(st, n - 1), label="kernel")
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            sig = np.random.default_rng(seed).random(n)
            fast = slice_filter_1d(sig, kern)
            dense = direct_convolve_1d(sig, kern.dense(), "replicate")
            assert np.abs(fast - dense).max() <= 1e-10

        check()

    # 40 float64 values per block: every row wider than 20 is a block of its
    # own, and narrower images span blocks of several rows with a partial
    # last block.
    def test_2d_with_small_blocks(self, monkeypatch):
        monkeypatch.setattr(filtering, "_BLOCK", 40)
        self.test_2d_matches_dense_and_filter_at_is_exact()

    def test_1d_with_small_blocks(self, monkeypatch):
        monkeypatch.setattr(filtering, "_BLOCK", 40)
        self.test_1d_matches_dense_from_length_1()


@pytest.mark.parametrize("shape", [(1,), (3, 5), (32, 1024), (7, 3, 2)])
def test_buffers_start_on_a_cache_line(shape):
    buf = filtering._empty(shape)
    assert buf.shape == shape and buf.flags.c_contiguous
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
        peak = self._peak(lambda: separable_filter_2d(image, kern))
        # the output and the extended column running sum, (h + 2P + 1) rows
        assert peak < 2.5 * image.nbytes

    def test_filter_at(self, image):
        kern = table_kernel(3, 50.0)
        rng = np.random.default_rng(8)
        pts = [(int(x), int(y)) for x, y in rng.integers(0, 1024, size=(64, 2))]
        peak = self._peak(lambda: filter_at(image, kern, pts))
        assert peak < 0.5 * image.nbytes
