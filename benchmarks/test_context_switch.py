"""§III-E study — context-switch robustness of the SDC + LP state.

The paper argues the VIPT SDC needs no flush on context switches.  The
complementary measurement: even when the SDC and LP *are* flushed (as a
virtually-tagged design would require), the 10 KB structures retrain so
fast that the speedup is unaffected at OS-realistic switch intervals.
"""

from conftest import run_figure_once

INTERVALS = (0, 50_000, 10_000)


def test_context_switch_robustness(benchmark, show, bench_workloads,
                                   bench_length):
    res = run_figure_once(benchmark, show, "context", bench_workloads,
                          intervals=INTERVALS, length=bench_length)
    never = res.speedup_geomean[0]
    assert never > 0.10
    # OS-realistic flushing (every 10k+ accesses) moves the geomean by
    # at most a few points.
    for sp in res.speedup_geomean[1:]:
        assert abs(sp - never) < 0.05
