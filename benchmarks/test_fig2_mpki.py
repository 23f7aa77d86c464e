"""Fig. 2 — baseline MPKI across the cache hierarchy.

Paper result: average MPKI 53.2 (L1D), 44.5 (L2C), 41.8 (LLC); the
L2C/LLC bars nearly as tall as L1D (Findings 1-2).
"""

from conftest import run_figure_once


def test_fig2_mpki(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig2", bench_workloads,
                          length=bench_length)
    a1, a2, a3 = res.averages
    # Shape checks: double-digit MPKI everywhere and a shallow hierarchy
    # gradient (most L1D misses keep missing below).
    assert a1 > 10 and a2 > 10 and a3 > 5
    assert a2 > 0.4 * a1
    assert a3 > 0.4 * a2
