"""Figs. 11 & 12 — LP table geometry sweeps.

Paper result: fully-associative LP speedups 13.7 / 17.9 / 20.7 / 20.7 %
for 8/16/32/64 entries (saturating at 32); with 32 entries, 17.0 / 20.3
/ 20.7 / 20.7 % for direct-mapped/2/8/fully-assoc (8-way ~ optimal).
"""

from conftest import run_figure_once


def test_fig11_lp_entries(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig11", bench_workloads,
                          length=bench_length)
    sp = res.speedup_geomean
    # Monotone non-decreasing and saturating: 64 entries buy nothing
    # meaningful over 32.
    assert sp[-1] >= sp[0] - 0.01
    assert abs(sp[3] - sp[2]) < 0.03
    assert sp[2] > 0.1


def test_fig12_lp_assoc(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig12", bench_workloads,
                          length=bench_length)
    sp = res.speedup_geomean
    # 8-way approaches the fully-associative result.
    assert abs(sp[2] - sp[3]) < 0.03
    assert sp[3] >= sp[0] - 0.02
