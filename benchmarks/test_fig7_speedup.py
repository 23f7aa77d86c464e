"""Fig. 7 — single-core speedup of every design over Baseline.

Paper result (geomeans): L1D-40KB-ISO 0.0%, Distill 0.1%, T-OPT 9.4%,
2xLLC 11.2%, SDC+LP 20.3%.  The reproduction must preserve the ordering
and the ~2x gap between SDC+LP and the best prior scheme.
"""

from conftest import run_figure_once


def test_fig7_single_core(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig7", bench_workloads,
                          length=bench_length)
    gm = res.geomeans()
    # Who wins, and by roughly what factor.
    assert gm["sdc_lp"] > 0.10
    assert gm["sdc_lp"] > gm["topt"]
    assert gm["sdc_lp"] > gm["llc2x"]
    assert gm["sdc_lp"] > 1.5 * max(gm["topt"], gm["llc2x"], 1e-3)
    # The iso-storage and Distill baselines hover near zero.
    assert abs(gm["l1iso"]) < 0.05
    assert abs(gm["distill"]) < 0.08
    # T-OPT and 2xLLC provide real but smaller gains.
    assert gm["topt"] > 0.0
    assert gm["llc2x"] > 0.0
