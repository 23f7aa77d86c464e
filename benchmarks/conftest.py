"""Benchmark-suite configuration.

Each ``test_*`` benchmark regenerates one paper table or figure and
prints the reproduced rows/series (captured with ``-s`` or in the
pytest-benchmark report context), so ``pytest benchmarks/
--benchmark-only`` doubles as the paper-reproduction run.

Scaling knobs (environment):

* ``REPRO_BENCH_FULL=1``  — run all 36 workloads / 50 mixes as the paper
  does (tens of minutes) instead of the representative quick subset.
* ``REPRO_BENCH_LENGTH``  — trace window length (default 200000).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.figures import FIGURES, QUICK_WORKLOADS, run_figure


@pytest.fixture
def show(capsys):
    """Print a reproduced paper table bypassing pytest's capture, so it
    appears in plain `pytest benchmarks/ --benchmark-only` output (the
    `make bench` run, where the measured numbers come from) without
    needing -s."""
    def _show(*chunks):
        with capsys.disabled():
            print()
            for chunk in chunks:
                print(chunk)
    return _show

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
LENGTH = int(os.environ.get("REPRO_BENCH_LENGTH", "200000"))


@pytest.fixture(scope="session")
def bench_workloads():
    """Workload subset for single-core benches."""
    if FULL:
        return None      # run_figure defaults to all 36
    return list(QUICK_WORKLOADS)


@pytest.fixture(scope="session")
def bench_length():
    return LENGTH


@pytest.fixture(scope="session")
def bench_mixes():
    return 50 if FULL else 4


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)


def run_figure_once(benchmark, show, name, *args, **kwargs):
    """Run one FIGURES entry once under pytest-benchmark timing and show
    its rendered report; returns the figure's result object."""
    res = run_once(benchmark, run_figure, name, *args, **kwargs)
    show(FIGURES[name].render(res))
    return res
