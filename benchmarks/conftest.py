"""Shared fixtures for the benchmark suite.

The full-scale numbers for EXPERIMENTS.md come from the ``jobs/``
entrypoints and the gated ones from ``mipsbench``.  BLAS is warmed once so
first-touch thread-pool setup does not pollute the first benchmark.
"""
import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _warm_blas():
    _ = np.random.rand(1024, 64) @ np.random.rand(64, 4096)
