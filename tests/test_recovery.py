"""Translate matrix construction, least-squares recovery, and the full
certificate-to-signal pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspike import numerics
from dualspike.bounds import phi_shift_lipschitz_log10
from dualspike.certificate import Certificate
from dualspike.errors import EmptySupportError, RankDeficientError
from dualspike.kernel import Kernel
from dualspike.model import SampleGrid, SourceModel, synthesize
from dualspike.recovery import build_phi, recover, recover_amplitudes


def random_separated_sources(rng, sigma, max_k=5):
    """Random support with minimum separation sigma, away from the edges."""
    for _ in range(1000):
        k = int(rng.integers(1, max_k + 1))
        locs = np.sort(rng.uniform(0.05, 0.95, size=k))
        if k == 1 or np.diff(locs).min() >= sigma:
            amps = rng.uniform(0.5, 2.0, size=k)
            return locs, amps
    raise AssertionError("could not draw a separated configuration")


@st.composite
def separated_problems(draw):
    """(grid, kernel, locations, amplitudes): one to five sources in
    [0.05, 0.95] at least sigma apart, sigma in [0.05, 0.12], amplitudes in
    [0.5, 2], on 21, 31 or 41 equispaced samples."""
    sigma = draw(st.floats(0.05, 0.12))
    k = draw(st.integers(1, 5))
    room = 0.9 - (k - 1) * sigma
    extra = np.sort(draw(st.lists(st.floats(0.0, room), min_size=k, max_size=k)))
    amplitudes = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k)))
    grid = SampleGrid.equispaced(draw(st.sampled_from([21, 31, 41])))
    return grid, Kernel(sigma), 0.05 + sigma * np.arange(k) + extra, amplitudes


class TestBuildPhi:
    def test_single_entry(self):
        phi = build_phi(SampleGrid([0.5]), Kernel(0.1), [0.5])
        np.testing.assert_array_equal(phi, [[1.0]])

    def test_mirror_symmetry(self):
        # sources mirrored about the grid midpoint flip rows and columns
        grid = SampleGrid.equispaced(9)
        kernel = Kernel(0.1)
        locs = np.array([0.3, 0.6])
        phi = build_phi(grid, kernel, locs)
        mirrored = build_phi(grid, kernel, np.sort(1.0 - locs))
        np.testing.assert_allclose(mirrored, phi[::-1, ::-1], rtol=1e-13)

    def test_benchmark_full_rank(self):
        phi = build_phi(SampleGrid.equispaced(21), Kernel(0.07), [0.25, 0.63, 0.889])
        assert phi.shape == (21, 3)
        assert np.linalg.svd(phi, compute_uv=False)[-1] > 0.0

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            build_phi(SampleGrid.equispaced(5), Kernel(0.1), [1.5])


class TestRecoverAmplitudes:
    def test_consistent_system(self):
        src = SourceModel([0.3, 0.7], [1.2, 0.4])
        grid = SampleGrid.equispaced(11)
        kernel = Kernel(0.1)
        ms = synthesize(src, grid, kernel)
        result = recover_amplitudes(grid, kernel, src.locations, ms.y)
        np.testing.assert_allclose(result.amplitudes, src.amplitudes, atol=1e-8)
        assert result.residual_norm < 1e-10
        assert result.sigma_max >= result.sigma_min > 0

    def test_zero_measurements(self):
        grid = SampleGrid.equispaced(11)
        result = recover_amplitudes(grid, Kernel(0.1), [0.4], np.zeros(11))
        np.testing.assert_allclose(result.amplitudes, [0.0], atol=1e-14)

    def test_negative_amplitudes_warn(self):
        grid = SampleGrid.equispaced(11)
        kernel = Kernel(0.1)
        y = -build_phi(grid, kernel, [0.5])[:, 0]
        with pytest.warns(UserWarning):
            result = recover_amplitudes(grid, kernel, [0.5], y)
        assert result.amplitudes[0] < 0

    def test_rank_deficient(self):
        grid = SampleGrid.equispaced(11)
        with pytest.raises(RankDeficientError):
            recover_amplitudes(grid, Kernel(0.1), [0.5, 0.5 + 1e-15], np.zeros(11))

    def test_one_svd_per_recovery(self, monkeypatch):
        calls = []
        svd = numerics.svd

        def counting_svd(matrix):
            calls.append(np.shape(matrix))
            return svd(matrix)

        monkeypatch.setattr(numerics, "svd", counting_svd)
        grid = SampleGrid.equispaced(11)
        kernel = Kernel(0.1)
        result = recover_amplitudes(grid, kernel, [0.3, 0.7], np.ones(11))
        assert calls == [(11, 2)]
        singulars = np.linalg.svd(build_phi(grid, kernel, [0.3, 0.7]), compute_uv=False)
        assert (result.sigma_max, result.sigma_min) == (singulars[0], singulars[-1])

    @pytest.mark.filterwarnings("ignore:least-squares amplitudes")
    def test_residual_orthogonality(self):
        rng = np.random.default_rng(31)
        grid = SampleGrid.equispaced(21)
        kernel = Kernel(0.08)
        for _ in range(20):
            locs, _ = random_separated_sources(rng, kernel.sigma, max_k=3)
            y = rng.normal(size=21)
            result = recover_amplitudes(grid, kernel, locs, y)
            phi = build_phi(grid, kernel, locs)
            residual = phi @ result.amplitudes - y
            assert np.abs(phi.T @ residual).max() <= 1e-8 * np.linalg.norm(y)

    def test_exact_recovery_well_separated(self):
        rng = np.random.default_rng(32)
        grid = SampleGrid.equispaced(21)
        for _ in range(30):
            sigma = rng.uniform(0.05, 0.12)
            kernel = Kernel(sigma)
            locs, amps = random_separated_sources(rng, sigma)
            ms = synthesize(SourceModel(locs, amps), grid, kernel)
            result = recover_amplitudes(grid, kernel, locs, ms.y)
            err = np.linalg.norm(result.amplitudes - amps) / np.linalg.norm(amps)
            assert err <= 1e-10


class TestRecoverProperty:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(separated_problems())
    def test_true_support_gives_the_amplitudes(self, problem):
        grid, kernel, locs, amps = problem
        ms = synthesize(SourceModel(locs, amps), grid, kernel)
        result = recover_amplitudes(grid, kernel, locs, ms.y)
        assert np.linalg.norm(result.amplitudes - amps) <= 1e-10 * np.linalg.norm(amps)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(separated_problems(), st.data())
    def test_collapsed_pair_is_rank_deficient(self, problem, data):
        # a twin at most 1e-14 from a source: its column differs by about
        # 1e-14 |phi'| < 1e-12, below the rank rule; no amplitudes come back
        grid, kernel, locs, amps = problem
        i = data.draw(st.integers(0, locs.size - 1))
        gap = 10.0 ** data.draw(st.floats(-15.5, -14.0))
        twin = np.sort(np.append(locs, locs[i] + gap))
        y = synthesize(SourceModel(locs, amps), grid, kernel).y
        with pytest.raises(RankDeficientError):
            recover_amplitudes(grid, kernel, twin, y)


class TestRecover:
    def test_zero_certificate(self):
        grid = SampleGrid.equispaced(7)
        cert = Certificate(np.zeros(7), grid, Kernel(0.1))
        with pytest.raises(EmptySupportError):
            recover(cert, np.zeros(7))

    def test_single_bump(self):
        grid = SampleGrid([0.5])
        kernel = Kernel(0.1)
        cert = Certificate([1.0], grid, kernel)
        result = recover(cert, np.array([1.0]))
        np.testing.assert_allclose(result.locations, [0.5], atol=1e-10)
        np.testing.assert_allclose(result.amplitudes, [1.0], atol=1e-10)


class TestTranslateLipschitz:
    def test_monte_carlo_log_space(self):
        rng = np.random.default_rng(33)
        grid = SampleGrid.equispaced(21)
        for sigma in (0.07, 0.1):
            kernel = Kernel(sigma)
            bound_log10 = phi_shift_lipschitz_log10(sigma, 21)
            for _ in range(250):
                k = int(rng.integers(1, 5))
                t_a = np.sort(rng.uniform(0, 1, size=k))
                t_b = np.sort(rng.uniform(0, 1, size=k))
                while np.any(np.diff(t_a) <= 0) or np.any(np.diff(t_b) <= 0):
                    t_a = np.sort(rng.uniform(0, 1, size=k))
                    t_b = np.sort(rng.uniform(0, 1, size=k))
                diff = np.linalg.norm(build_phi(grid, kernel, t_b)
                                      - build_phi(grid, kernel, t_a))
                move = np.linalg.norm(t_b - t_a)
                if diff == 0.0 or move == 0.0:
                    continue
                assert np.log10(diff) <= bound_log10 + np.log10(move)
