"""Tests for the experiment harness: workloads, runner, figure entry
points (exercised on micro inputs) and text rendering."""

import dataclasses

import numpy as np
import pytest

from repro.config import scaled_config
from repro.experiments import figures, report
from repro.experiments.runner import (default_config, geomean_speedup,
                                      run_variant, run_workload, speedup)
from repro.experiments.workloads import (KERNELS, WORKLOADS, Workload,
                                         multicore_mixes, workload_trace)

# Micro settings: tiny graphs + very short windows.  The regime is wrong
# for performance claims (tiny graphs fit the caches) but exercises every
# code path quickly; regime-dependent assertions live in
# test_integration_paper.py.
MICRO = dict(tier="tiny", length=8_000)


@pytest.fixture(scope="module")
def micro_cfg():
    return scaled_config(64)


class TestWorkloads:
    def test_36_workloads(self):
        assert len(WORKLOADS) == 36
        assert len({w.name for w in WORKLOADS}) == 36

    def test_kernel_coverage(self):
        assert {w.kernel for w in WORKLOADS} == set(KERNELS)

    def test_workload_trace_generates(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        t = workload_trace("pr.urand", **MICRO)
        assert len(t) <= MICRO["length"]
        assert t.kernel == "pr"
        assert t.graph == "urand"

    def test_trace_cached_on_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = workload_trace("cc.urand", **MICRO)
        files = list(tmp_path.glob("*.trace"))
        assert len(files) == 1
        b = workload_trace("cc.urand", **MICRO)
        assert np.array_equal(a.accesses, b.accesses)
        # The cached entry is served as a read-only memory map.
        assert isinstance(b.accesses, np.memmap)
        assert not b.accesses.flags.writeable

    def test_string_and_object_equivalent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        a = workload_trace("tc.road", **MICRO)
        b = workload_trace(Workload("tc", "road"), **MICRO)
        assert np.array_equal(a.accesses, b.accesses)

    def test_mixes_deterministic(self):
        assert multicore_mixes(5, seed=1) == multicore_mixes(5, seed=1)
        assert multicore_mixes(5, seed=1) != multicore_mixes(5, seed=2)

    def test_mix_shape(self):
        mixes = multicore_mixes(50, cores=4)
        assert len(mixes) == 50
        assert all(len(m) == 4 for m in mixes)


class TestRunner:
    def test_run_workload(self, micro_cfg):
        stats = run_workload("pr.urand", "baseline", config=micro_cfg,
                             **MICRO)
        assert stats.instructions > 0

    def test_speedup_sign(self):
        class S:
            def __init__(self, c):
                self.cycles = c
        assert speedup(S(200), S(100)) == pytest.approx(1.0)
        assert speedup(S(100), S(200)) == pytest.approx(-0.5)
        assert speedup(S(100), S(0)) == 0.0

    def test_geomean_speedup(self):
        class S:
            def __init__(self, c):
                self.cycles = c
        pairs = [(S(120), S(100)), (S(100), S(100))]
        g = geomean_speedup(pairs)
        assert 0 < g < 0.2
        assert geomean_speedup([]) == 0.0


class TestFigureEntryPoints:
    """Each FIGURES entry must run end-to-end on micro inputs and
    produce structurally complete results."""

    def test_fig2(self, micro_cfg):
        res = figures.run_figure("fig2", ["pr.urand", "cc.road"], micro_cfg,
                                 **MICRO)
        assert len(res.workloads) == 2
        assert all(m >= 0 for m in res.l1d)
        a1, a2, a3 = res.averages
        assert a1 >= a2 >= 0 or a1 >= 0   # L1 MPKI >= deeper levels
        text = report.render_fig2(res)
        assert "AVERAGE" in text

    def test_fig3(self, micro_cfg):
        res = figures.run_figure("fig3", ["pr.urand"], micro_cfg, **MICRO)
        assert len(res.labels) == len(res.dram_probability)
        assert sum(res.access_counts) <= MICRO["length"]
        assert "P(DRAM)" in report.render_fig3(res)

    def test_fig7(self, micro_cfg):
        res = figures.run_figure(
            "fig7", ["pr.urand"], micro_cfg, variants=("llc2x", "sdc_lp"),
            **MICRO)
        assert set(res.speedups) == {"llc2x", "sdc_lp"}
        assert len(res.speedups["llc2x"]) == 1
        gm = res.geomeans()
        assert set(gm) == {"llc2x", "sdc_lp"}
        assert "GEOMEAN" in report.render_fig7(res)

    def test_fig8_fig9(self, micro_cfg):
        res8 = figures.run_figure("fig8", ["pr.urand"], micro_cfg, **MICRO)
        assert set(res8.baseline) == {"l2c", "llc"}
        res9 = figures.run_figure("fig9", ["pr.urand"], micro_cfg, **MICRO)
        assert set(res9.sdc_lp) == {"l1d", "sdc"}
        text = report.render_mpki_compare(res9, ("l1d", "sdc"), "t")
        assert "AVERAGE" in text

    def test_fig10(self, micro_cfg):
        res = figures.run_figure("fig10", ["pr.urand"], micro_cfg, **MICRO)
        assert len(res.sizes_kib) == 3
        assert res.sizes_kib[1] == 2 * res.sizes_kib[0]
        assert "SDC size" in report.render_fig10(res)

    def test_fig11(self, micro_cfg):
        res = figures.run_figure("fig11", ["pr.urand"], micro_cfg,
                                 entries=(8, 32), **MICRO)
        assert res.points == [8, 32]
        assert len(res.speedup_geomean) == 2

    def test_fig12(self, micro_cfg):
        res = figures.run_figure("fig12", ["pr.urand"], micro_cfg,
                                 ways=(1, 8), **MICRO)
        assert res.points == [1, 8]

    def test_tau_sweep(self, micro_cfg):
        res = figures.run_figure("tau", ["pr.urand"], micro_cfg,
                                 taus=(0, 256), regular_len=4000, **MICRO)
        assert res.taus == [0, 256]
        assert len(res.regular_speedup) == 2
        # tau=256 is near-baseline for regular workloads.
        assert abs(res.regular_speedup[1]) < 0.05
        assert "tau_glob" in report.render_tau_sweep(res)

    def test_fig13(self, micro_cfg):
        res = figures.run_figure("fig13", ["pr.urand"], micro_cfg, **MICRO)
        assert len(res.sdc_lp) == len(res.expert) == 1
        assert "Expert" in report.render_fig13(res)

    def test_fig14(self, micro_cfg):
        # fig14 gives each core half the window: 4000 accesses here.
        res = figures.run_figure("fig14", config=micro_cfg, mixes=1,
                                 cores=2, variants=("sdc_lp",),
                                 tier="tiny", length=8000)
        assert len(res.mixes) == 1
        assert len(res.weighted_speedup["sdc_lp"]) == 1
        assert "GEOMEAN" in report.render_fig14(res)

    def test_ablation(self, micro_cfg):
        res = figures.run_figure("ablation", ["pr.urand"], micro_cfg, **MICRO)
        assert set(res.speedups) == {"victim", "lp_bypass", "sdc_lp",
                                     "sdc_lp/nodep"}
        assert "Ablation" in report.render_ablation(res)

    def test_replacement_study(self, micro_cfg):
        res = figures.run_figure("replacement", ["pr.urand"], micro_cfg,
                                 policies=("lru", "drrip"), **MICRO)
        assert res.policies == ["lru", "drrip"]
        assert res.speedup_geomean[0] == 0.0
        assert "replacement" in report.render_policy_study(res)

    def test_prefetcher_study(self, micro_cfg):
        res = figures.run_figure("prefetchers", ["pr.urand"], micro_cfg,
                                 prefetchers=("none", "stride"), **MICRO)
        assert len(res.speedup_geomean) == 2
        assert res.speedup_geomean[0] == 0.0
        assert "prefetch" in report.render_prefetcher_study(res)

    def test_preprocessing_study(self, micro_cfg):
        res = figures.run_figure(
            "preprocessing", ["pr.urand"], micro_cfg,
            orderings=("original", "degree"), tier="tiny", length=6000)
        assert res.orderings == ["original", "degree"]
        assert res.cost_ratio[0] == 0.0
        assert res.cost_ratio[1] > 0
        assert "reordering" in report.render_preprocessing_study(res)

    def test_energy_study(self, micro_cfg):
        res = figures.run_figure("energy", ["pr.urand"], micro_cfg, **MICRO)
        assert len(res.baseline_epki) == 1
        assert res.baseline_epki[0] > 0
        assert "energy" in report.render_energy_study(res)

    def test_context_switch_study(self, micro_cfg):
        res = figures.run_figure(
            "context", ["pr.urand"], micro_cfg, intervals=(0, 2000),
            **MICRO)
        assert res.intervals == [0, 2000]
        assert len(res.speedup_geomean) == 2
        assert "context" in report.render_context_switch_study(res)

    def test_table2(self):
        rows = figures.table2_kernels()
        assert len(rows) == 6
        assert "Pull-Only" in report.render_table2(rows)

    def test_table3(self):
        rows = figures.table3_graphs(tier="tiny")
        assert len(rows) == 6
        assert "friendster" in report.render_table3(rows)


class TestHelpers:
    def test_pc_local_strides(self):
        from repro.trace.layout import AddressSpace
        from repro.trace.record import TraceBuilder
        space = AddressSpace()
        arr = space.add("a", 64, 1000)
        tb = TraceBuilder(space)
        tb.emit(tb.pc("x"), arr.addr(np.array([0, 10, 0])))
        tb.emit(tb.pc("y"), arr.addr(np.array([5])))
        trace = tb.build()
        strides = figures.pc_local_strides(trace)
        assert strides[0] == -1          # first access of PC x
        assert strides[1] == 10
        assert strides[2] == 10
        assert strides[3] == -1          # first access of PC y

    def test_geomean(self):
        assert figures.geomean([]) == 0.0
        assert figures.geomean([0.1, 0.1]) == pytest.approx(0.1)

    def test_default_config_regime(self):
        cfg = default_config()
        assert cfg.llc.size_bytes == scaled_config(16).llc.size_bytes
