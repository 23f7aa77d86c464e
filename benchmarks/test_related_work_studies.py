"""§VI related-work studies (claims the paper makes in prose; these
benches turn them into measured tables).

* Replacement: "complex cache replacement policies ... struggle with
  graph-processing workloads" — DRRIP/SHiP gain little; T-OPT more.
* Prefetching: "stream and strided cache prefetchers struggle with
  indirect memory access patterns"; and the paper's future work — SDC+LP
  combined with prefetching — composes positively.
* Pre-processing: reordering helps locality but costs far more memory
  touches than the single traversal it accelerates; SDC+LP needs none.
"""

from conftest import run_figure_once


def test_replacement_study(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "replacement", bench_workloads,
                          length=bench_length)
    by = dict(zip(res.policies, res.speedup_geomean))
    # Smarter retention helps only marginally on graph workloads ...
    assert by["drrip"] < 0.10
    assert by["ship"] < 0.10
    # ... and the oracle-fed T-OPT caps what replacement alone can do.
    assert by["topt"] >= max(by["drrip"], by["ship"]) - 0.02


def test_prefetcher_study(benchmark, show, bench_workloads, bench_length):
    res = run_figure_once(benchmark, show, "prefetchers", bench_workloads,
                          length=bench_length)
    by_base = dict(zip(res.l1_prefetchers, res.speedup_geomean))
    by_sdc = dict(zip(res.l1_prefetchers, res.sdc_lp_speedup))
    # IP-stride finds (almost) nothing in graph access streams.
    assert by_base["stride"] < 0.03
    # SDC+LP composes positively with prefetching (the future work).
    assert by_sdc["next_line"] > by_sdc["none"]
    assert all(s > 0.05 for s in res.sdc_lp_speedup)


def test_preprocessing_study(benchmark, show, bench_length):
    res = run_figure_once(benchmark, show, "preprocessing",
                          length=bench_length)
    by = dict(zip(res.orderings, res.speedup))
    cost = dict(zip(res.orderings, res.cost_ratio))
    # Reordering can beat the baseline substantially ...
    assert max(by["degree"], by["rcm"], by["bfs"]) > 0.2
    # ... but costs many traversals' worth of preprocessing touches,
    assert all(cost[o] > 10 for o in ("degree", "bfs", "rcm"))
    # while SDC+LP gains double digits with zero preprocessing.
    assert res.sdc_lp_original > 0.10
