"""Fig. 13 — SDC+LP vs the Expert Programmer oracle.

Paper result: Expert 19.1% vs SDC+LP 20.3% geomean — the dynamic
predictor matches a profiling-driven manual classification.
"""

from conftest import run_figure_once


def test_fig13_expert(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig13", bench_workloads,
                          length=bench_length)
    gm_lp, gm_expert = res.geomeans()
    assert gm_lp > 0.10
    assert gm_expert > 0.05
    # LP tracks the expert within a few points overall.
    assert abs(gm_lp - gm_expert) < 0.10
