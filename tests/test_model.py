"""Signal model, sampling grids, synthesis, and the noise protocol."""

import math

import mpmath
import numpy as np
import pytest

from dualspike.kernel import Kernel
from dualspike.model import (MeasurementSet, SampleGrid, SourceModel,
                             build_phi, noise_grid, synthesize, uniform_noise)


class TestTypes:
    def test_source_model_validation(self):
        with pytest.raises(ValueError):
            SourceModel([], [])
        with pytest.raises(ValueError):
            SourceModel([0.3, 0.2], [1.0, 1.0])
        with pytest.raises(ValueError):
            SourceModel([0.2, 0.2], [1.0, 1.0])
        with pytest.raises(ValueError):
            SourceModel([0.2, 1.2], [1.0, 1.0])
        with pytest.raises(ValueError):
            SourceModel([0.2, 0.4], [1.0, 0.0])

    def test_sample_grid_validation(self):
        with pytest.raises(ValueError):
            SampleGrid([0.5, 0.4])
        with pytest.raises(ValueError):
            SampleGrid([-0.1, 0.4])

    def test_equispaced(self):
        grid = SampleGrid.equispaced(21)
        assert grid.samples[0] == 0.0 and grid.samples[-1] == 1.0
        np.testing.assert_allclose(grid.samples,
                                   np.array([j / 20.0 for j in range(21)]), rtol=1e-15)
        with pytest.raises(ValueError):
            SampleGrid.equispaced(1)

    def test_measurement_length_checks(self):
        grid = SampleGrid.equispaced(3)
        with pytest.raises(ValueError):
            MeasurementSet(np.zeros(2), np.zeros(2), grid)


class TestFeatureVector:
    """One column of the translate matrix: phi(t - s_j) at one location."""

    def test_on_sample(self):
        grid = SampleGrid([0.5])
        np.testing.assert_array_equal(build_phi(grid, Kernel(0.2), [0.5])[:, 0], [1.0])

    def test_two_samples(self):
        grid = SampleGrid([0.0, 1.0])
        vec = build_phi(grid, Kernel(0.1), [0.0])[:, 0]
        np.testing.assert_allclose(vec, [1.0, math.exp(-100.0)], rtol=1e-14)

    def test_arbitrary_precision(self):
        grid = SampleGrid.equispaced(21)
        vec = build_phi(grid, Kernel(0.07), [0.25])[:, 0]
        with mpmath.workdps(60):
            expected = [float(mpmath.e ** (-((mpmath.mpf("0.25") - mpmath.mpf(j) / 20) / mpmath.mpf("0.07")) ** 2))
                        for j in range(21)]
        np.testing.assert_allclose(vec, expected, rtol=1e-13)


class TestSynthesize:
    def test_single_source_on_sample(self):
        src = SourceModel([0.5], [1.0])
        grid = SampleGrid([0.5])
        ms = synthesize(src, grid, Kernel(0.1))
        np.testing.assert_array_equal(ms.y, [1.0])
        np.testing.assert_array_equal(ms.w, [0.0])

    def test_noise_additivity(self):
        src = SourceModel([0.5], [1.0])
        grid = SampleGrid([0.5])
        ms = synthesize(src, grid, Kernel(0.1), noise=[0.25])
        np.testing.assert_array_equal(ms.y, [1.25])
        np.testing.assert_array_equal(ms.w, [0.25])

    def test_noise_length_mismatch(self):
        src = SourceModel([0.5], [1.0])
        grid = SampleGrid.equispaced(5)
        with pytest.raises(ValueError):
            synthesize(src, grid, Kernel(0.1), noise=[0.1, 0.2])

    def test_benchmark_config_matches_matrix_product(self):
        src = SourceModel([0.25, 0.63, 0.889], [0.8, 0.5, 0.9])
        grid = SampleGrid.equispaced(21)
        kernel = Kernel(0.07)
        ms = synthesize(src, grid, kernel)
        # independent route: stack one translate per source and multiply
        phi = np.column_stack([kernel.value(t - grid.samples) for t in src.locations])
        np.testing.assert_allclose(ms.y, phi @ src.amplitudes, rtol=1e-14)
        # and one more route: plain per-sample summation
        direct = np.array([sum(a * kernel.value(t - s) for t, a in
                               zip(src.locations, src.amplitudes))
                           for s in grid.samples])
        np.testing.assert_allclose(ms.y, direct, rtol=1e-14)

    def test_linearity_in_amplitudes(self):
        rng = np.random.default_rng(5)
        locs = np.sort(rng.uniform(0.1, 0.9, 4))
        amps = rng.uniform(0.5, 2.0, 4)
        grid = SampleGrid.equispaced(15)
        kernel = Kernel(0.08)
        noise = rng.normal(size=15) * 0.01
        one = synthesize(SourceModel(locs, amps), grid, kernel, noise)
        two = synthesize(SourceModel(locs, 2.0 * amps), grid, kernel, noise)
        np.testing.assert_allclose(two.y - two.w, 2.0 * (one.y - one.w), rtol=1e-13)


class TestNoise:
    def test_zero_coefficient(self):
        np.testing.assert_array_equal(uniform_noise(8, 0.0, 1), np.zeros(8))

    def test_range(self):
        w = uniform_noise(1000, 0.3, 11)
        assert np.all(w >= 0.0) and np.all(w < 0.3)

    def test_determinism(self):
        np.testing.assert_array_equal(uniform_noise(16, 0.1, 99),
                                      uniform_noise(16, 0.1, 99))
        assert not np.array_equal(uniform_noise(16, 0.1, 99),
                                  uniform_noise(16, 0.1, 100))

    def test_negative_coefficient(self):
        with pytest.raises(ValueError):
            uniform_noise(4, -0.1, 0)

    def test_matches_numpy_bit_for_bit(self):
        # numpy.random is the reference here only: the package draws its own.
        # 2**32 - 1 and 2**32 straddle the seed's first 32-bit word boundary,
        # 2**64 + 3 fills three words, and 2**128 (five words) and 2**200
        # (seven) run SeedSequence's mixing of the words past its 4-word pool
        for seed in [*range(256), 2**32 - 1, 2**32, 2**64 + 3, 2**128, 2**200]:
            for m in (0, 1, 21):
                expected = 0.3 * np.random.default_rng(seed).random(m)
                w = uniform_noise(m, 0.3, seed)
                assert w.dtype == expected.dtype and w.shape == expected.shape
                assert w.tobytes() == expected.tobytes(), (seed, m)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            uniform_noise(4, 0.1, -1)


class TestNoiseGrid:
    def test_endpoints(self):
        grid = noise_grid()
        assert grid[0] == pytest.approx(2e-6, rel=1e-15)
        assert grid[-1] == pytest.approx(0.1, rel=1e-15)

    def test_enumerated_set(self):
        expected = ([2e-6, 4e-6, 6e-6, 8e-6, 1e-5]
                    + [2e-5, 4e-5, 6e-5, 8e-5, 1e-4]
                    + [2e-4, 4e-4, 6e-4, 8e-4, 1e-3]
                    + [i * 1e-3 for i in range(2, 11)]
                    + [i * 1e-2 for i in range(2, 11)])
        grid = noise_grid()
        assert grid.size == len(expected) == 33
        np.testing.assert_allclose(grid, expected, rtol=1e-12)
        assert np.all(np.diff(grid) > 0)
