"""Figs. 8 & 9 — MPKI shifts under SDC+LP.

Paper result: average L2C MPKI 44.5 -> 4.4 and LLC MPKI 41.8 -> 2.8
(Fig. 8); L1D MPKI 53.2 -> 7.4 with the SDC absorbing the bulk at an
average MPKI of 48.3 (Fig. 9).
"""

from conftest import run_figure_once


def test_fig8_l2_llc_mpki(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig8", bench_workloads,
                          length=bench_length)
    # The collapse: SDC+LP removes the vast majority of L2C/LLC misses.
    assert res.average("sdc_lp", "l2c") < 0.35 * res.average("baseline",
                                                             "l2c")
    assert res.average("sdc_lp", "llc") < 0.35 * res.average("baseline",
                                                             "llc")


def test_fig9_l1_sdc_mpki(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig9", bench_workloads,
                          length=bench_length)
    # The SDC takes over most former L1D misses ...
    assert res.average("sdc_lp", "l1d") < 0.5 * res.average("baseline",
                                                            "l1d")
    # ... and its own MPKI is of the same order as the baseline L1D's
    # (48.3 vs 53.2 in the paper): the redirected accesses stay averse.
    assert res.average("sdc_lp", "sdc") > 0.3 * res.average("baseline",
                                                            "l1d")
