"""Ground-truth spike trains, sampling grids, and measurement synthesis."""

import numpy as np

from .kernel import Kernel


def _as_readonly(values):
    a = np.asarray(values, dtype=float).copy()
    a.flags.writeable = False
    return a


class SourceModel:
    """Non-negative spike train on [0,1]: strictly increasing locations."""

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
        self.locations, self.amplitudes = locations, amplitudes

    @property
    def n_sources(self):
        return self.locations.size


class SampleGrid:
    """Strictly increasing sample locations in [0,1]."""

    def __init__(self, samples):
        samples = _as_readonly(samples)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("samples must be a non-empty 1-d sequence")
        # range first: differences of numbers in [0, 1] cannot overflow
        if samples.min() < 0.0 or samples.max() > 1.0:
            raise ValueError("samples must lie in [0, 1]")
        if np.any(np.diff(samples) <= 0):
            raise ValueError("samples must be strictly increasing")
        self.samples = samples

    @classmethod
    def equispaced(cls, m):
        """m >= 2 samples at (j-1)/(m-1): both endpoints included."""
        if m < 2:
            raise ValueError("equispaced grid needs m >= 2")
        return cls(np.linspace(0.0, 1.0, m))

    @property
    def n_samples(self):
        return self.samples.size


class MeasurementSet:
    """Observed vector y, noise included, and the grid used."""

    def __init__(self, y, grid):
        y = _as_readonly(y)
        if y.shape != (grid.n_samples,):
            raise ValueError("y must have one entry per sample")
        self.y, self.grid = y, grid


def build_phi(grid: SampleGrid, kernel: Kernel, locations) -> np.ndarray:
    """Translate matrix with entry (i, j) = phi(t_j - s_i): samples x sources."""
    locations = np.asarray(locations, dtype=float)
    if locations.size and (locations.min() < 0.0 or locations.max() > 1.0):
        raise ValueError("locations must lie in [0, 1]")
    return kernel.value(locations[None, :] - grid.samples[:, None])


def synthesize(src: SourceModel, grid: SampleGrid, kernel: Kernel, noise=None) -> MeasurementSet:
    """Forward model: y_j = sum_i a_i phi(t_i - s_j) + w_j.

    ``noise`` is the vector w, added to the clean samples when given;
    without it y is the clean product itself.
    """
    y = build_phi(grid, kernel, src.locations) @ src.amplitudes
    if noise is not None:
        w = np.asarray(noise, dtype=float)
        if w.shape != y.shape:
            raise ValueError(f"noise must have length {y.size}, got shape {w.shape}")
        y = y + w
    return MeasurementSet(y, grid)


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """The four 64-bit words of numpy's ``SeedSequence(seed).generate_state(4,
    uint64)``: O'Neill's seed_seq_fe over the seed's 32-bit words, low first."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    const = 0x43B0D7E5  # INIT_A; hashmix steps it by MULT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD  # INIT_B: expand the pool to 8 words, stepped by MULT_B
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]


def _pcg64_random(seed, m):
    """numpy's ``default_rng(seed).random(m)`` as a list: PCG64 (128-bit LCG,
    XSL-RR output, step before output), 53 high bits per double."""
    s0, s1, s2, s3 = _seed_state(seed)
    inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
    # srandom: one step from state 0 gives inc; add initstate, step again
    state = (inc + (s0 << 64 | s1)) * _PCG_MULT + inc & _MASK128
    draws = []
    for _ in range(m):
        state = state * _PCG_MULT + inc & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122  # XSL-RR: rotate right by the top 6 bits
        x = (x >> rot | x << (64 - rot)) & _MASK64
        draws.append((x >> 11) * 2.0 ** -53)
    return draws


def uniform_noise(m: int, w_c: float, seed: int) -> np.ndarray:
    """Positive uniform noise w_j = w_c * X_j with X_j ~ U[0,1), seeded (PCG64).

    X is numpy's ``default_rng(seed).random(m)`` bit for bit, reproduced in
    the package: a command never loads numpy's random module, which maps
    OpenSSL.  The noise is positive on average, not zero-mean: it biases y
    upward.
    """
    if w_c < 0:
        raise ValueError("noise coefficient must be non-negative")
    return w_c * np.array(_pcg64_random(seed, m), dtype=float)


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
