"""Fig. 14 — multi-core weighted speedup over Baseline.

Paper result (geomeans over 50 4-thread mixes): L1D-ISO 0.02%, Distill
-0.04%, T-OPT 6.4%, 2xLLC 2.4%, SDC+LP 20.2% (max 69.3%).
"""

from conftest import run_figure_once


def test_fig14_multicore(benchmark, show, bench_mixes, bench_length):
    # Each core runs half the window, as `repro fig14` does.
    res = run_figure_once(benchmark, show, "fig14", mixes=bench_mixes,
                          length=bench_length)
    gm = res.geomeans()
    # SDC+LP dominates in the shared-LLC setting too.
    assert gm["sdc_lp"] > 0.05
    assert gm["sdc_lp"] > gm["topt"]
    assert gm["sdc_lp"] > gm["llc2x"]
    assert abs(gm["l1iso"]) < 0.05
