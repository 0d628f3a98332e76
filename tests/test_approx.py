"""Tests for the kernel approximation optimizer."""

import itertools
import math

import numpy as np
import pytest

from sliceblur.approx import (
    SIGMA0,
    Partition,
    SampledKernel,
    SliceKernel,
    build_autocorr,
    gaussian_kernel,
    identity_model,
    optimal_constants,
    partition_profile,
    quadratic_error,
    sample_gaussian,
    scale_to_sigma,
    search_partitions,
    table_defaults,
    to_slices,
)


def _random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


class TestSampleGaussian:
    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sample_gaussian(0.0, 10)
        with pytest.raises(ValueError):
            sample_gaussian(-1.0, 10)
        with pytest.raises(ValueError):
            sample_gaussian(2.0, 1)

    def test_two_samples_monotone(self):
        k = sample_gaussian(1.7, 2)
        assert k.values[0] > k.values[1] > 0

    def test_full_kernel_sums_to_one(self):
        for sigma0, n in [(SIGMA0, 100), (3.0, 10), (25.0, 80)]:
            k = sample_gaussian(sigma0, n)
            total = k.values[0] + 2.0 * k.values[1:].sum()
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_canonical_sampling(self):
        k = sample_gaussian(SIGMA0, 100)
        assert k.values.size == 100
        assert k.radius == 99
        # last sample sits at t = 99, just inside pi * sigma0 = 100
        assert np.all(np.diff(k.values) < 0)


class TestBuildAutocorr:
    def test_invalid_r(self):
        with pytest.raises(ValueError, match="r must be >= 1"):
            identity_model(0)
        with pytest.raises(ValueError):
            build_autocorr(0)

    def test_even_symmetry(self):
        # Phi_{j-k} = Phi_{k-j} exactly
        for r in (1, 4, 17, 100):
            m = build_autocorr(r)
            assert np.array_equal(m, m.T)

    def test_dc_ratio(self):
        m = build_autocorr(100)
        ratio = m[0, 0] / m[0, 100]  # Phi_0 / Phi_100
        assert abs(ratio - 4.0 / 3.0) / (4.0 / 3.0) < 0.05

    def test_brute_force_inverse_dft(self):
        # independent oracle: explicit cosine sum over the signed frequencies
        r = 4
        n = 2 * r + 1
        m = build_autocorr(r)
        for j in range(-r, r + 1):
            acc = 0.0
            for u in range(-r, r + 1):
                s = 16.5 if u == 0 else 1.0 / (u * u)
                acc += s * math.cos(2.0 * math.pi * u * j / n)
            acc /= n
            assert m[0, abs(j)] == pytest.approx(acc, abs=1e-12)

    def test_positive_semidefinite(self):
        for r in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200):
            m = build_autocorr(r)
            eig = np.linalg.eigvalsh(m)
            assert eig.min() >= -1e-9 * np.trace(m)

    def test_matrix_is_toeplitz_of_phi(self):
        # every entry is Phi_{|j-k|}, read off the first row
        m = build_autocorr(6)
        assert isinstance(m, np.ndarray) and m.shape == (7, 7)
        for j in range(7):
            for k in range(7):
                assert m[j, k] == m[0, abs(j - k)]


class TestQuadraticError:
    def test_zero_residual(self):
        t = sample_gaussian(5.0, 16)
        m = build_autocorr(15)
        assert quadratic_error(t, t.values, m) == 0.0

    def test_identity_reduces_to_l2(self):
        rng = np.random.default_rng(1)
        t = sample_gaussian(5.0, 12)
        w_hat = rng.standard_normal(12) * 0.01
        m = identity_model(11)
        expected = float(np.sum((t.values - w_hat) ** 2))
        assert quadratic_error(t, w_hat, m) == pytest.approx(expected, rel=1e-12)

    def test_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        a = _random_spd(rng, 5)
        t = sample_gaussian(2.0, 5)
        w_hat = rng.standard_normal(5)
        got = quadratic_error(t, w_hat, a)
        acc = 0.0
        for j in range(5):
            for k in range(5):
                acc += (t.values[j] - w_hat[j]) * (t.values[k] - w_hat[k]) * a[j, k]
        assert got == pytest.approx(acc, rel=1e-12)

    def test_dimension_mismatch(self):
        t = sample_gaussian(5.0, 10)
        with pytest.raises(ValueError):
            quadratic_error(t, np.zeros(9), identity_model(9))
        with pytest.raises(ValueError):
            quadratic_error(t, np.zeros(10), identity_model(5))
        with pytest.raises(ValueError):
            quadratic_error(t, np.zeros(10), np.eye(10)[:, :9])


class TestOptimalConstants:
    def test_exact_recovery(self):
        n = 20
        values = partition_profile(Partition((5, 11, 19), (0.8, 0.5, 0.2)), n)
        target = SampledKernel(values)
        part = optimal_constants(target, (5, 11, 19), identity_model(n - 1))
        np.testing.assert_allclose(part.constants, (0.8, 0.5, 0.2), atol=1e-12)
        e2 = quadratic_error(target, partition_profile(part, n), identity_model(n - 1))
        assert e2 == pytest.approx(0.0, abs=1e-12)

    def test_single_interval_mean(self):
        t = sample_gaussian(4.0, 10)
        part = optimal_constants(t, (9,), identity_model(9))
        assert part.constants[0] == pytest.approx(t.values.mean(), rel=1e-12)

    def test_grid_search_oracle(self):
        # k = 2 on a descending ramp, random SPD model; dense grid at 1e-3
        rng = np.random.default_rng(3)
        n = 10
        values = np.linspace(1.0, 0.1, n)
        values /= values[0] + 2 * values[1:].sum()
        target = SampledKernel(values)
        a = _random_spd(rng, n)
        part = optimal_constants(target, (4, 9), a)

        grid = np.arange(0.0, 0.35, 1e-3)
        c1, c2 = np.meshgrid(grid, grid, indexing="ij")
        # expand E2(c) = wAw - 2 b.c + c.G c with loop-computed coefficients
        b_mat = np.zeros((n, 2))
        b_mat[:5, 0] = 1.0
        b_mat[5:, 1] = 1.0
        g = np.zeros((2, 2))
        b_vec = np.zeros(2)
        for i in range(2):
            b_vec[i] = sum(
                b_mat[j, i] * a[j, k] * values[k] for j in range(n) for k in range(n)
            )
            for j in range(2):
                g[i, j] = sum(
                    b_mat[p, i] * a[p, q] * b_mat[q, j]
                    for p in range(n)
                    for q in range(n)
                )
        waw = values @ a @ values
        e2 = (
            waw
            - 2 * (b_vec[0] * c1 + b_vec[1] * c2)
            + g[0, 0] * c1 * c1
            + 2 * g[0, 1] * c1 * c2
            + g[1, 1] * c2 * c2
        )
        best = np.unravel_index(np.argmin(e2), e2.shape)
        assert part.constants[0] == pytest.approx(grid[best[0]], abs=2e-3)
        assert part.constants[1] == pytest.approx(grid[best[1]], abs=2e-3)

    def test_degenerate_partition(self):
        # the second interval of (3, 3) is empty, so the basis is singular
        target = sample_gaussian(3.0, 10)
        with pytest.raises(ValueError, match="strictly increasing"):
            optimal_constants(target, (3, 3), build_autocorr(9))
        # the target's radius is 9
        with pytest.raises(ValueError, match="breakpoints exceed the kernel support"):
            optimal_constants(target, (3, 10), build_autocorr(9))
        # valid breakpoints, but a model of the wrong size
        for model in (build_autocorr(8), identity_model(10), np.eye(10)[:, :9]):
            with pytest.raises(ValueError, match="target and model dimensions"):
                optimal_constants(target, (3, 9), model)

    def test_local_optimality(self):
        target = sample_gaussian(SIGMA0, 100)
        model = build_autocorr(99)
        part = optimal_constants(target, (23, 46, 76), model)
        base = quadratic_error(target, partition_profile(part, 100), model)
        for i in range(part.k):
            for delta in (-1e-3, 1e-3):
                c = part.constants.copy()
                c[i] += delta
                perturbed = Partition(part.breakpoints, c)
                e2 = quadratic_error(target, partition_profile(perturbed, 100), model)
                assert e2 >= base


class TestSearchPartitions:
    def test_k_out_of_range(self):
        t = sample_gaussian(SIGMA0, 100)
        m = build_autocorr(99)
        for k in (0, 6, -1):
            with pytest.raises(ValueError):
                search_partitions(t, k, m)
        # a radius-2 target has two admissible breakpoints
        with pytest.raises(ValueError, match="more constants than admissible breakpoints"):
            search_partitions(sample_gaussian(2.0, 3), 3, identity_model(2))
        # a model of the wrong size, with a valid k
        for model in (build_autocorr(98), identity_model(100), np.eye(100)[:99]):
            with pytest.raises(ValueError, match="target and model dimensions"):
                search_partitions(t, 3, model)

    def test_recovers_exact_single_slice(self):
        n = 16
        values = partition_profile(Partition((9,), (0.05,)), n)
        target = SampledKernel(values)
        model = identity_model(n - 1)
        part = search_partitions(target, 1, model)
        assert part.breakpoints[0] == 9
        e2 = quadratic_error(target, partition_profile(part, n), model)
        assert e2 == pytest.approx(0.0, abs=1e-15)

    def test_matches_full_enumeration_k2(self):
        n = 13  # r = 12, C(12, 2) = 66 candidate pairs
        target = sample_gaussian(n / math.pi, n)
        model = build_autocorr(n - 1)
        part = search_partitions(target, 2, model)

        best = (None, math.inf)
        for bp in itertools.combinations(range(1, n), 2):
            cand = optimal_constants(target, bp, model)
            e2 = quadratic_error(target, partition_profile(cand, n), model)
            if e2 < best[1]:
                best = (bp, e2)
        assert tuple(part.breakpoints) == best[0]
        e2_found = quadratic_error(target, partition_profile(part, n), model)
        assert e2_found == pytest.approx(best[1], rel=1e-9)

    def test_gaussian_k3_breakpoints(self):
        target = sample_gaussian(SIGMA0, 100)
        part = search_partitions(target, 3, build_autocorr(99))
        assert np.all(np.abs(part.breakpoints - np.array((23, 46, 76))) <= 2)

    @pytest.mark.parametrize("k", [4, 5])
    def test_few_samples(self, k):
        # below samples 14 (k = 4) and 18 (k = 5) the stride-4 coarse grid
        # has fewer than k points and the search is exhaustive
        for n in range(k + 1, 21):
            target = sample_gaussian(n / math.pi, n)
            part = search_partitions(target, k, build_autocorr(n - 1))
            bp = part.breakpoints
            assert bp.size == k and bp[0] >= 1 and bp[-1] <= n - 1
            assert np.all(np.diff(bp) > 0)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_dominates_builtin_defaults(self, k):
        target = sample_gaussian(SIGMA0, 100)
        model = build_autocorr(99)
        part = search_partitions(target, k, model)
        e2 = quadratic_error(target, partition_profile(part, 100), model)
        builtin, _ = table_defaults(k)
        # builtin constants are on the unit-peak scale; move to unit-sum
        scale = target.values[0]
        ref = Partition(builtin.breakpoints, builtin.constants * scale)
        e2_ref = quadratic_error(target, partition_profile(ref, 100), model)
        assert e2 <= e2_ref + 1e-12


class TestToSlices:
    def test_single_slice(self):
        kern = to_slices(Partition((5,), (1.0,)))
        assert kern.radii.tolist() == [5]
        assert kern.weights.tolist() == [1.0]

    def test_builtin_k3_weights(self):
        part, _ = table_defaults(3)
        kern = to_slices(part)
        np.testing.assert_allclose(
            kern.weights, (0.3993, 0.3884, 0.1618), atol=1e-12
        )

    def test_reconstruction_identity(self):
        # slice weights covering t must telescope back to t's constant
        rng = np.random.default_rng(11)
        for _ in range(50):
            k = rng.integers(1, 6)
            bp = np.sort(rng.choice(np.arange(1, 40), size=k, replace=False))
            c = rng.standard_normal(k)
            part = Partition(bp, c)
            kern = to_slices(part)
            profile = partition_profile(part, int(bp[-1]) + 1)
            dense = kern.dense()
            center = kern.max_radius
            for t in range(int(bp[-1]) + 1):
                assert dense[center + t] == pytest.approx(profile[t], abs=1e-12)
                assert dense[center - t] == pytest.approx(profile[t], abs=1e-12)

    def test_dc_gain_definition(self):
        part, _ = table_defaults(4)
        kern = to_slices(part)
        expected = sum(
            w * (2 * p + 1) for p, w in zip(kern.radii, kern.weights)
        )
        assert kern.dc_gain == pytest.approx(expected, rel=1e-15)
        assert abs(kern.normalized().dc_gain - 1.0) <= 1e-12


class TestScaleToSigma:
    def _base(self, k=3):
        part, sigma0 = table_defaults(k)
        return to_slices(part, sigma0)

    def test_identity_sigma_keeps_radii(self):
        base = self._base()
        scaled = scale_to_sigma(base, SIGMA0)
        assert np.array_equal(scaled.radii, base.radii)

    def test_half_sigma_radii(self):
        scaled = scale_to_sigma(self._base(), SIGMA0 / 2.0)
        assert scaled.radii.tolist() == [11, 23, 38]

    def test_unit_dc_gain(self):
        for sigma in (0.8, 2.0, 7.7, 31.0, 80.0):
            scaled = scale_to_sigma(self._base(), sigma)
            assert abs(scaled.dc_gain - 1.0) <= 1e-12

    def test_monotone_in_sigma(self):
        base = self._base()
        sigmas = np.linspace(3.0, 60.0, 30)
        prev = scale_to_sigma(base, sigmas[0]).radii
        for sigma in sigmas[1:]:
            cur = scale_to_sigma(base, sigma).radii
            if cur.size == prev.size:
                assert np.all(cur >= prev)
            prev = cur

    def test_collision_merging(self):
        base = to_slices(Partition((4, 5), (1.0, 0.5)), 10.0)
        scaled = scale_to_sigma(base, 3.0)  # both radii floor to 1
        assert scaled.radii.tolist() == [1]
        assert abs(scaled.dc_gain - 1.0) <= 1e-12

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_merge_matches_unique_add_at(self, k):
        # reference: group the floored radii with np.unique and sum each
        # group's weights with np.add.at; sigma 0.5-3 makes radii collide
        base = self._base(k)
        collided = 0
        for sigma in np.concatenate([np.linspace(0.5, 3.0, 51), [4.5, 12.0, 50.0]]):
            new_p = np.floor(sigma / base.sigma * base.radii).astype(np.int64)
            new_w = base.radii / (2.0 * new_p + 1.0) * base.weights
            radii, inverse = np.unique(new_p, return_inverse=True)
            weights = np.zeros(radii.size)
            np.add.at(weights, inverse, new_w)
            ref = SliceKernel(radii, weights, sigma).normalized()
            got = scale_to_sigma(base, sigma)
            assert got.radii.tobytes() == ref.radii.tobytes()
            assert got.weights.tobytes() == ref.weights.tobytes()
            collided += radii.size < k
        assert collided > 0

    def test_degenerate_scale(self):
        # both radii floor to 0 and merge into the identity
        base = to_slices(Partition((4, 5), (1.0, 0.5)), 10.0)
        scaled = scale_to_sigma(base, 0.5)
        assert scaled.radii.tolist() == [0]
        assert scaled.weights.tolist() == [1.0]

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            scale_to_sigma(self._base(), 0.0)
        for sigma in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"sigma .* {sigma}"):
                scale_to_sigma(self._base(), sigma)
        with pytest.raises(ValueError, match="does not carry its native sigma"):
            scale_to_sigma(SliceKernel((1, 5), (0.3, 0.05)), 2.0)

    @pytest.mark.parametrize("sigma0", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_native_sigma(self, sigma0):
        base = SliceKernel((1, 5), (0.3, 0.05), sigma=sigma0)
        match = f"^base kernel's native sigma {sigma0} is not positive and finite"
        with pytest.raises(ValueError, match=match):
            scale_to_sigma(base, 2.0)

    def test_refuses_radius_0_slice(self):
        # p_i / (2 p_i' + 1) would scale the radius-0 slice's weight to 0,
        # at the kernel's own sigma too
        base = SliceKernel((0, 3), (0.5, 0.1), sigma=2.0).normalized()
        for sigma in (2.0, 4.0):
            with pytest.raises(ValueError, match="radius-0 slice"):
                scale_to_sigma(base, sigma)

    def test_sigma_overflowing_int64_radii(self):
        with pytest.raises(ValueError, match=r"sigma 1e\+300 is too large"):
            scale_to_sigma(self._base(), 1e300)
        with pytest.raises(ValueError, match=r"sigma 1\.7976931348623157e\+308"):
            scale_to_sigma(self._base(), 1.7976931348623157e308)
        # the largest radius still fits: the kernel is built
        assert scale_to_sigma(self._base(), 1e17).max_radius > 2**57


class TestGaussianKernel:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_is_the_scaled_table_kernel(self, k):
        for sigma in (0.6, 1.0, 2.5, 5.0, 12.0, 50.0, 200.0):
            got = gaussian_kernel(sigma, k)
            want = scale_to_sigma(to_slices(*table_defaults(k)), sigma)
            assert got.radii.tobytes() == want.radii.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.sigma == sigma

    def test_params_override_k(self):
        params = (Partition((4, 9), (0.8, 0.3)), 3.0)
        want = scale_to_sigma(to_slices(*params), 7.0)
        for k in (3, 5):
            got = gaussian_kernel(7.0, k, params)
            assert got.radii.tobytes() == want.radii.tobytes()
            assert got.weights.tobytes() == want.weights.tobytes()

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_degenerate_scale(self, k):
        # below sigma0 / p_k every radius floors to 0: the identity filter
        cut = SIGMA0 / table_defaults(k)[0].breakpoints[-1]
        for sigma in (0.05, 0.3, cut * (1 - 1e-9)):
            kernel = gaussian_kernel(sigma, k)
            assert kernel.radii.tolist() == [0]
            assert kernel.weights.tolist() == [1.0]
        assert gaussian_kernel(cut * 1.001, k).max_radius == 1


class TestTableDefaults:
    def test_values(self):
        p3, s0 = table_defaults(3)
        assert s0 == pytest.approx(100.0 / math.pi, rel=1e-15)
        assert p3.breakpoints.tolist() == [23, 46, 76]
        np.testing.assert_allclose(p3.constants, (0.9495, 0.5502, 0.1618))
        p4, _ = table_defaults(4)
        assert p4.breakpoints.tolist() == [19, 37, 56, 82]
        np.testing.assert_allclose(p4.constants, (0.9649, 0.6700, 0.3376, 0.0976))
        p5, _ = table_defaults(5)
        assert p5.breakpoints.tolist() == [16, 30, 44, 61, 85]
        np.testing.assert_allclose(
            p5.constants, (0.9738, 0.7596, 0.5031, 0.2534, 0.0739)
        )

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            table_defaults(k)


class TestTypeInvariants:
    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((0, 3), (1.0, 0.5))
        with pytest.raises(ValueError):
            Partition((3, 3), (1.0, 0.5))
        with pytest.raises(ValueError):
            Partition((3, 5), (1.0,))

    def test_slice_kernel_validation(self):
        with pytest.raises(ValueError):
            SliceKernel((5, 5), (0.1, 0.1))
        with pytest.raises(ValueError):
            SliceKernel((-1,), (0.1,))
        with pytest.raises(ValueError):
            SliceKernel((1, 2), (0.1,))
        with pytest.raises(ValueError, match="cannot normalize a zero-gain kernel"):
            SliceKernel((2,), (0.0,)).normalized()

    @pytest.mark.parametrize("values, match", [
        ((1.0,), "need at least 2 half-kernel samples"),
        ((1.0, np.nan), "half-kernel samples must be finite"),
    ])
    def test_sampled_kernel_validation(self, values, match):
        with pytest.raises(ValueError, match=match):
            SampledKernel(values)

    # radii and breakpoints were cast to int64, which truncated 1.5 to 1
    # without a word; like filter_at's off-grid points, they are refused
    # an int past int64 makes numpy's object array, whose cast overflows
    @pytest.mark.parametrize("radii", [(1.5,), (0, 2.5), (np.nan,), (np.inf,), (10**20,)])
    def test_slice_kernel_refuses_non_integral_radii(self, radii):
        with pytest.raises(ValueError, match="^slice radii must be int64 integers"):
            SliceKernel(radii, np.ones(len(radii)))

    def test_partition_refuses_non_integral_breakpoints(self):
        with pytest.raises(ValueError, match="^breakpoints must be int64 integers"):
            Partition((1.5, 3), (1.0, 0.5))
        with pytest.raises(ValueError, match="^breakpoints must be int64 integers"):
            Partition((1, 10**20), (1.0, 0.5))

    def test_optimal_constants_refuses_non_integral_breakpoints(self):
        target = sample_gaussian(3.0, 10)
        with pytest.raises(ValueError, match="^breakpoints must be int64 integers"):
            optimal_constants(target, [1.5, 3.9], build_autocorr(9))

    def test_gaussian_kernel_refuses_non_integral_breakpoints(self):
        with pytest.raises(ValueError, match="^breakpoints must be int64 integers"):
            gaussian_kernel(4.0, params=(Partition([10.7, 20.2], [0.5, 0.1]), 10.0))

    def test_integral_values_of_any_type_are_kept(self):
        want = SliceKernel(np.array([0, 3, 7]), (0.5, 0.3, 0.2))
        assert want.radii.dtype == np.int64
        for radii in ((0.0, 3.0, 7.0), np.array([0, 3, 7], np.uint8), [0, 3, np.int32(7)]):
            got = SliceKernel(radii, (0.5, 0.3, 0.2))
            assert got.radii.dtype == np.int64 and got.radii.tolist() == [0, 3, 7]
        assert Partition((2.0, 5.0), (1.0, 0.5)).breakpoints.dtype == np.int64
        # an int64 array is kept as it is, not copied
        assert want.radii is SliceKernel(want.radii, want.weights).radii

    @pytest.mark.parametrize("empty", [(), 3, [[1, 2]]])
    def test_slice_kernel_refuses_no_or_nested_radii(self, empty):
        with pytest.raises(ValueError, match="^need a non-empty 1D sequence of slice radii"):
            SliceKernel(empty, np.ones(np.shape(empty)))
