"""Shared fixtures.

Trace/graph fixtures are session-scoped and sized for speed; tests that
need the paper's footprint>>LLC regime use the ``regime`` fixtures,
which pair a medium-tier graph with the scale-16 configuration exactly
like the experiment defaults.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

# Keep disk trace caching inside the repo workspace, versioned per run.
# An empty value counts as unset (it would mean the working directory).
if not os.environ.get("REPRO_CACHE_DIR"):
    os.environ["REPRO_CACHE_DIR"] = ".repro_cache"

from repro.config import SystemConfig, paper_config, scaled_config
from repro.graphs import (grid_road_graph, kronecker_graph,
                          uniform_random_graph)
from repro.trace.kernels import trace_pagerank


@pytest.fixture(scope="session")
def small_kron():
    """1k-vertex Kronecker graph (fast, power-law)."""
    return kronecker_graph(10, 8, seed=1)


@pytest.fixture(scope="session")
def small_urand():
    return uniform_random_graph(1024, 8, seed=2)


@pytest.fixture(scope="session")
def small_road():
    return grid_road_graph(16, seed=3)


@pytest.fixture(scope="session")
def weighted_kron():
    return kronecker_graph(9, 8, seed=4, weighted=True)


@pytest.fixture(scope="session")
def tiny_config() -> SystemConfig:
    """Heavily scaled config: even 1k-vertex graphs exceed the LLC."""
    return scaled_config(128)


@pytest.fixture(scope="session")
def default_cfg() -> SystemConfig:
    return scaled_config(16)


@pytest.fixture(scope="session")
def paper_cfg() -> SystemConfig:
    return paper_config()


@pytest.fixture(scope="session")
def pr_trace(small_kron):
    """A PageRank trace on the small Kronecker graph."""
    return trace_pagerank(small_kron, iterations=2, max_accesses=60_000)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
