"""Ground-truth spike trains, sampling grids, and measurement synthesis."""

from dataclasses import dataclass, field

import numpy as np

from .kernel import Kernel


def _as_readonly(values):
    a = np.asarray(values, dtype=float).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SourceModel:
    """Non-negative spike train on [0,1]: strictly increasing locations."""

    locations: np.ndarray
    amplitudes: np.ndarray

    def __init__(self, locations, amplitudes):
        locations = _as_readonly(locations)
        amplitudes = _as_readonly(amplitudes)
        if locations.ndim != 1 or locations.size < 1:
            raise ValueError("locations must be a non-empty 1-d sequence")
        if locations.shape != amplitudes.shape:
            raise ValueError("locations and amplitudes must have equal length")
        # range first: differences of numbers in [0, 1] cannot overflow
        if locations.min() < 0.0 or locations.max() > 1.0:
            raise ValueError("locations must lie in [0, 1]")
        if np.any(np.diff(locations) <= 0):
            raise ValueError("locations must be strictly increasing")
        if np.any(amplitudes <= 0):
            raise ValueError("amplitudes must be positive")
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def n_sources(self):
        return self.locations.size


@dataclass(frozen=True)
class SampleGrid:
    """Strictly increasing sample locations in [0,1]."""

    samples: np.ndarray

    def __init__(self, samples):
        samples = _as_readonly(samples)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-d sequence")
        # range first: differences of numbers in [0, 1] cannot overflow
        if samples.min() < 0.0 or samples.max() > 1.0:
            raise ValueError("samples must lie in [0, 1]")
        if np.any(np.diff(samples) <= 0):
            raise ValueError("samples must be strictly increasing")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def equispaced(cls, m):
        """m >= 2 samples at (j-1)/(m-1): both endpoints included."""
        if m < 2:
            raise ValueError("equispaced grid needs m >= 2")
        return cls(np.linspace(0.0, 1.0, m))

    @property
    def n_samples(self):
        return self.samples.size


@dataclass(frozen=True)
class MeasurementSet:
    """Observed vector y, the noise w actually added, and the grid used."""

    y: np.ndarray
    w: np.ndarray
    grid: SampleGrid = field(repr=False)

    def __init__(self, y, w, grid):
        y = _as_readonly(y)
        w = _as_readonly(w)
        if y.shape != w.shape or y.size != grid.n_samples:
            raise ValueError("y and w must both have one entry per sample")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "grid", grid)


def build_phi(grid: SampleGrid, kernel: Kernel, locations) -> np.ndarray:
    """Translate matrix with entry (i, j) = phi(t_j - s_i): samples x sources."""
    locations = np.asarray(locations, dtype=float)
    if locations.size and (locations.min() < 0.0 or locations.max() > 1.0):
        raise ValueError("locations must lie in [0, 1]")
    return kernel.value(locations[None, :] - grid.samples[:, None])


def synthesize(src: SourceModel, grid: SampleGrid, kernel: Kernel, noise=None) -> MeasurementSet:
    """Forward model: y_j = sum_i a_i phi(t_i - s_j) + w_j.

    ``noise`` is stored verbatim as ``w`` (zeros when absent).
    """
    m = grid.n_samples
    if noise is None:
        w = np.zeros(m)
    else:
        w = np.asarray(noise, dtype=float)
        if w.shape != (m,):
            raise ValueError(f"noise must have length {m}, got shape {w.shape}")
    clean = build_phi(grid, kernel, src.locations) @ src.amplitudes
    return MeasurementSet(clean + w, w, grid)


def uniform_noise(m: int, w_c: float, seed: int) -> np.ndarray:
    """Positive uniform noise w_j = w_c * X_j with X_j ~ U[0,1), seeded (PCG64).

    The noise is positive on average, not zero-mean: it biases y upward.
    """
    if w_c < 0:
        raise ValueError("noise coefficient must be non-negative")
    rng = np.random.default_rng(seed)
    return w_c * rng.random(m)


def noise_grid() -> np.ndarray:
    """The sweep of noise coefficients used by the stability experiments.

    Five blocks: {2,4,6,8,10} x 1e-6 / 1e-5 / 1e-4, then {2,...,10} x 1e-3
    and {2,...,10} x 1e-2 (33 values, from 2e-6 up to 0.1).
    """
    blocks = [
        np.array([2, 4, 6, 8, 10]) * 1e-6,
        np.array([2, 4, 6, 8, 10]) * 1e-5,
        np.array([2, 4, 6, 8, 10]) * 1e-4,
        np.arange(2, 11) * 1e-3,
        np.arange(2, 11) * 1e-2,
    ]
    return np.concatenate(blocks)
