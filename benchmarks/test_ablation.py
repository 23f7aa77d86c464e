"""Ablation bench — decomposing SDC+LP's benefit (DESIGN.md design
choices; not a paper figure).

Expected shape: a victim cache (iso-storage, near-L1) recovers little —
the data has no short-term reuse to capture; pure LP bypass without the
SDC recovers part of the benefit (lookup latency removed, pollution
reduced) but less than the full design; stripping dependency
serialization shrinks the modelled benefit, confirming the speedup is a
latency effect, not a bandwidth one.
"""

from conftest import run_figure_once


def test_ablation(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "ablation", bench_workloads,
                          length=bench_length)
    gm = res.geomeans()
    assert gm["sdc_lp"] > gm["victim"]
    assert gm["sdc_lp"] >= gm["lp_bypass"] - 0.02
    assert gm["victim"] < 0.10
