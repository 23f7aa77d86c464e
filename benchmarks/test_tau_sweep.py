"""§V-B3 — global threshold (τ_glob) sweep over GAP and the SPEC
surrogate.

Paper result: τ_glob = 8 delivers the full graph-workload speedup
(20.3%) while leaving general-purpose workloads unharmed (+0.5%);
τ = 0 routes everything to the SDC, large τ degenerates to Baseline.
"""

from conftest import run_figure_once

TAUS = (0, 2, 4, 8, 16, 64, 256)


def test_tau_sweep(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "tau", bench_workloads,
                          taus=TAUS, length=bench_length)
    by_tau = dict(zip(res.taus, res.gap_speedup))
    reg = dict(zip(res.taus, res.regular_speedup))
    # tau=8 captures (nearly) the peak GAP speedup.
    assert by_tau[8] > 0.10
    assert by_tau[8] >= max(by_tau.values()) - 0.05
    # The guardrail: regular workloads unharmed at tau=8.
    assert reg[8] > -0.02
    # Extremes: tau=0 (everything via the tiny SDC) underperforms tau=8.
    assert by_tau[0] < by_tau[8]
