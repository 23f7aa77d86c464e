"""Fig. 10 — SDC size exploration (8/16/32 KiB classes).

Paper result: SDC MPKI barely improves with size (50.5 / 49.1 / 48.0)
while the larger SDCs' longer latencies erode the speedup — the
smallest SDC is the sweet spot (§V-B1).
"""

from conftest import run_figure_once


def test_fig10_sdc_size(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "fig10", bench_workloads,
                          length=bench_length)
    # MPKI decreases only marginally with capacity ...
    assert res.sdc_mpki[2] <= res.sdc_mpki[0]
    assert res.sdc_mpki[2] > 0.8 * res.sdc_mpki[0]
    # ... so the 1-cycle small SDC wins (or ties) end-to-end.
    assert res.speedup_geomean[0] >= max(res.speedup_geomean) - 0.02
