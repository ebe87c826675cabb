"""Shared fixtures: the two benchmark configurations and their solves.

The long solves are session-scoped so the acceptance criteria and the unit
suites can share one run each.
"""

import time

import numpy as np
import pytest

from dualspike.config import ExperimentConfig
from dualspike.experiments import build_problem
from dualspike.solver import solve


def three_spike_config(**overrides):
    """Three sources, 21 samples, narrow kernel: the main benchmark."""
    base = dict(
        sources=np.array([0.25, 0.63, 0.889]),
        amplitudes=np.array([0.8, 0.5, 0.9]),
        sigma=0.07,
        samples=np.linspace(0.0, 1.0, 21),
        tau=1e5,
        pi=100.0,
        seed=0,
        digest="bench3",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def five_spike_config(**overrides):
    """Five unit spikes with 0.05 minimum separation, 15 samples."""
    base = dict(
        sources=np.array([0.2, 0.4, 0.6, 0.7, 0.75]),
        amplitudes=np.ones(5),
        sigma=0.1,
        samples=np.linspace(0.0, 1.0, 15),
        tau=1e5,
        pi=10.0,
        seed=0,
        digest="bench5",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="session")
def bench3_run():
    cfg = three_spike_config()
    problem = build_problem(cfg)
    start = time.perf_counter()
    state = solve(problem, max_iters=500)
    elapsed = time.perf_counter() - start
    return cfg, problem, state, elapsed


@pytest.fixture(scope="session")
def bench5_run():
    cfg = five_spike_config()
    problem = build_problem(cfg)
    start = time.perf_counter()
    state = solve(problem, max_iters=2000)
    elapsed = time.perf_counter() - start
    return cfg, problem, state, elapsed
