"""§V-E energy study — whole-system dynamic energy of Baseline vs
SDC+LP.

The paper reports only the new structures' per-access energies (all
tiny: 0.010-0.034 nJ); this bench extends to a full comparison.  The
robust expectation: removing the useless L2C/LLC lookups saves on-chip
energy overall (geomean), partially offset on some workloads by DRAM
reads the bypass no longer shares through the LLC.
"""

from conftest import run_figure_once


def test_energy_study(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "energy", bench_workloads,
                          length=bench_length)
    assert res.onchip_saving_geomean() > 0.0
    assert all(e > 0 for e in res.baseline_epki)
    assert all(e > 0 for e in res.sdc_lp_epki)
