"""Tests for the dense reference convolutions, metrics and op counting."""

import math
import re
import sys

import numpy as np
import pytest

from sliceblur import filtering
from sliceblur.approx import SliceKernel, gaussian_kernel
from sliceblur.oracle import (
    PSNR_INF,
    count_ops,
    dense_separable_2d,
    direct_convolve_1d,
    exact_gaussian_2d,
    gaussian_taps,
    mse,
    psnr,
)


class TestDirectConvolve1D:
    def test_identity_kernels(self):
        rng = np.random.default_rng(0)
        sig = rng.random(20)
        np.testing.assert_allclose(direct_convolve_1d(sig, [1.0]), sig)
        np.testing.assert_allclose(
            direct_convolve_1d(sig, [0.0, 1.0, 0.0]), sig, atol=1e-15
        )

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            direct_convolve_1d(np.zeros(10), [0.5, 0.5])

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError, match="need a 1D signal"):
            direct_convolve_1d(np.zeros((2, 10)), [1.0])
        with pytest.raises(ValueError, match="need a 2D image"):
            dense_separable_2d(np.zeros(10), [1.0])

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        sig = rng.standard_normal(25)
        kern = rng.standard_normal(7)
        got = direct_convolve_1d(sig, kern)
        n, r = sig.size, 3
        for x in range(n):
            acc = 0.0
            for j in range(-r, r + 1):
                acc += kern[j + r] * sig[min(max(x + j, 0), n - 1)]
            assert got[x] == pytest.approx(acc, abs=1e-12)


class TestExactGaussian2D:
    def test_constant_image(self):
        img = np.full((30, 30), 0.3)
        out = exact_gaussian_2d(img, 5.0)
        np.testing.assert_allclose(out, 0.3, atol=1e-12)

    def test_small_sigma_near_identity(self):
        # side taps are exp(-1/(2 sigma^2)): 3.9e-3 at sigma 0.3, 3.7e-6
        # at sigma 0.2, which bounds the deviation from the identity
        rng = np.random.default_rng(4)
        img = rng.random((20, 20))
        assert np.abs(exact_gaussian_2d(img, 0.3) - img).max() <= 2e-2
        assert np.abs(exact_gaussian_2d(img, 0.2) - img).max() <= 1e-3
        # below about 5e-155 the taps' t^2 / (2 sigma^2) overflows, below
        # about 1e-162 2 sigma^2 underflows to 0; the side taps are 0 either way
        for sigma in (1e-160, 1e-300):
            assert np.array_equal(exact_gaussian_2d(img, sigma), img)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            exact_gaussian_2d(np.zeros((4, 4)), 0.0)
        for sigma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"sigma .* {sigma}"):
                gaussian_taps(sigma)

    def test_sigma_overflowing_int64_radius(self):
        for sigma in (1e300, 3e18, 1.7976931348623157e308):
            with pytest.raises(ValueError, match=re.escape(f"sigma {sigma!r} is too large")):
                gaussian_taps(sigma)

    def test_impulse_against_full_2d_loop(self):
        # 32x32 is wider than the radius 10; 7x40 and 40x7 are narrower
        # than the radius 13 along one axis
        for (h, w), sigma in (((32, 32), 3.0), ((7, 40), 4.0), ((40, 7), 4.0)):
            img = np.zeros((h, w))
            img[h // 2, w // 2] = 1.0
            out = exact_gaussian_2d(img, sigma)
            taps = gaussian_taps(sigma)
            r = taps.size // 2
            if min(h, w) > 2 * r:
                assert out[h // 2, w // 2] == pytest.approx(taps[r] ** 2, rel=1e-12)
            # non-separable oracle: explicit 2D loop over the outer product
            kern2d = np.outer(taps, taps)
            padded = np.pad(img, r, mode="edge")
            for y in range(0, h, 3):
                for x in range(0, w, 3):
                    expected = np.sum(
                        kern2d * padded[y : y + 2 * r + 1, x : x + 2 * r + 1]
                    )
                    assert out[y, x] == pytest.approx(expected, abs=1e-13)

    def test_block_size_does_not_change_a_bit(self, monkeypatch):
        # 320-byte blocks: 3 rows per block in the row pass (radius 2, so
        # padded rows of 12) and 5 in the column pass, each with a partial
        # last block (34 = 11 * 3 + 1 = 6 * 5 + 4)
        img = np.random.default_rng(5).random((34, 8))
        expected = exact_gaussian_2d(img, 0.5)
        monkeypatch.setattr(filtering, "_BLOCK", 320)
        assert filtering._block_rows(34, 8 + 2 * 2, np.float64) == 3
        assert filtering._block_rows(34, 8, np.float64) == 5
        assert exact_gaussian_2d(img, 0.5).tobytes() == expected.tobytes()

    def test_truncation_captures_gaussian_mass(self):
        # radius ceil(pi * sigma) keeps all but ~1.7e-3 of the mass; the
        # captured fraction shrinks toward 1 - erfc(pi / sqrt(2)) as the
        # relative radius ceil(pi*sigma)/sigma shrinks toward pi
        for sigma in (2.0, 10.0, 50.0):
            r = math.ceil(math.pi * sigma)
            t = np.arange(-40 * int(sigma), 40 * int(sigma) + 1)
            v = np.exp(-(t**2) / (2.0 * sigma * sigma))
            captured = v[np.abs(t) <= r].sum() / v.sum()
            assert captured >= 1.0 - 2e-3


class TestMetrics:
    def test_mse_examples(self):
        a = np.zeros((8, 8))
        assert mse(a, a) == 0.0
        assert mse(a, np.full((8, 8), 0.1)) == pytest.approx(0.01, rel=1e-12)

    def test_mse_naive_loop(self):
        rng = np.random.default_rng(6)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        acc = 0.0
        for y in range(8):
            for x in range(8):
                acc += (a[y, x] - b[y, x]) ** 2
        assert mse(a, b) == pytest.approx(acc / 64.0, rel=1e-12)

    def test_mse_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_mse_constant_shift_invariant(self):
        rng = np.random.default_rng(8)
        a, b = rng.random((10, 10)), rng.random((10, 10))
        assert mse(a + 0.2, b + 0.2) == pytest.approx(mse(a, b), rel=1e-9)

    def test_psnr_values(self):
        a = np.zeros((4, 4))
        assert psnr(a, np.full((4, 4), 0.1)) == pytest.approx(20.0, rel=1e-12)
        assert psnr(a, np.full((4, 4), 1e-3)) == pytest.approx(60.0, rel=1e-12)
        assert psnr(a, a) == PSNR_INF

    def test_psnr_symmetric(self):
        rng = np.random.default_rng(10)
        a, b = rng.random((6, 6)), rng.random((6, 6))
        assert psnr(a, b) == psnr(b, a)


class TestCountOps:
    def _kernel(self, k, sigma=8.0):
        if k == 1:
            return SliceKernel((5,), (1.0 / 11.0,))
        return gaussian_kernel(sigma, k)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_interior_rates(self, k):
        img = np.random.default_rng(12).random((128, 128))
        counter = count_ops(img, self._kernel(k))
        assert counter.adds_per_px == 4 * k
        assert counter.muls_per_px == 2 * k

    def test_rates_independent_of_size_and_sigma(self):
        rng = np.random.default_rng(14)
        rates = set()
        for shape, sigma in [((64, 64), 4.0), ((128, 96), 4.0), ((96, 96), 9.0)]:
            counter = count_ops(rng.random(shape), self._kernel(3, sigma))
            rates.add((counter.adds_per_px, counter.muls_per_px))
        assert rates == {(12.0, 6.0)}

    def test_no_interior(self):
        # no pixel is clear of the radius-10 kernel; all 441 cost the same
        kern = SliceKernel((10,), (1.0 / 21.0,))
        counter = count_ops(np.zeros((21, 21)), kern)
        assert counter.pixels == 441
        assert (counter.adds_per_px, counter.muls_per_px) == (4.0, 2.0)

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_empty_image(self, shape):
        with pytest.raises(ValueError):
            count_ops(np.zeros(shape), self._kernel(3))


def test_count_ops_does_not_filter(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("count_ops ran the filter")

    # replace the filter wherever a sliceblur module binds it
    original = filtering.separable_filter_2d
    for name, module in list(sys.modules.items()):
        if name == "sliceblur" or name.startswith("sliceblur."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    img = np.zeros((128, 128))
    for k in (1, 3, 5):
        counter = count_ops(img, TestCountOps()._kernel(k))
        assert (counter.adds_per_px, counter.muls_per_px) == (4 * k, 2 * k)
    with pytest.raises(ValueError):
        count_ops(np.zeros(16), gaussian_kernel(2.0))
