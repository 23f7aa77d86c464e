"""Tests for the single-core system: variant plumbing, SDC routing,
coherence invariants, and stats consistency."""

import dataclasses

import numpy as np
import pytest

from repro.config import scaled_config
from repro.core.system import (SingleCoreSystem, VARIANTS,
                               irregular_access_mask, next_use_indices,
                               variant_config)
from repro.mem.hierarchy import DRAM, L1D, SDC_LEVEL
from repro.trace.layout import AddressSpace
from repro.trace.record import TraceBuilder


def synthetic_trace(pattern="mixed", n=5000, seed=0):
    """Small controlled traces: 'seq', 'random' (cache-averse), 'mixed'."""
    space = AddressSpace()
    seq = space.add("seq_array", 4, 1 << 16)
    rnd = space.add("rand_array", 4, 1 << 20, irregular_hint=True)
    tb = TraceBuilder(space, name=f"synth.{pattern}")
    rng = np.random.default_rng(seed)
    if pattern in ("seq", "mixed"):
        count = n if pattern == "seq" else n // 2
        tb.emit(tb.pc("seq"), seq.addr(np.arange(count) % (1 << 16)),
                gap=2)
    if pattern in ("random", "mixed"):
        count = n if pattern == "random" else n // 2
        idx = rng.integers(0, 1 << 20, size=count)
        tb.emit(tb.pc("rand"), rnd.addr(idx), gap=2)
    return tb.build()


@pytest.fixture(scope="module")
def cfg():
    return scaled_config(64)


class TestConstruction:
    @pytest.mark.parametrize("variant", [v for v in VARIANTS
                                         if v != "expert"])
    def test_all_variants_construct(self, cfg, variant):
        SingleCoreSystem(cfg, variant=variant)

    def test_unknown_variant_raises(self, cfg):
        with pytest.raises(ValueError):
            SingleCoreSystem(cfg, variant="magic")

    def test_expert_requires_regions(self, cfg):
        with pytest.raises(ValueError, match="expert"):
            SingleCoreSystem(cfg, variant="expert")
        SingleCoreSystem(cfg, variant="expert", expert_regions={1})

    def test_variant_config_l1iso(self, cfg):
        iso = variant_config(cfg, "l1iso")
        assert iso.l1d.size_bytes == cfg.l1d.size_bytes * 10 // 8
        assert iso.l1d.ways == cfg.l1d.ways + 2

    def test_variant_config_llc2x(self, cfg):
        big = variant_config(cfg, "llc2x")
        assert big.llc.size_bytes == 2 * cfg.llc.size_bytes
        assert big.llc.ways == cfg.llc.ways     # sets doubled, not ways

    def test_sdc_only_on_sdc_variants(self, cfg):
        assert SingleCoreSystem(cfg, "baseline").sdc is None
        assert SingleCoreSystem(cfg, "sdc_lp").sdc is not None
        assert SingleCoreSystem(cfg, "sdc_lp").lp is not None
        ex = SingleCoreSystem(cfg, "expert", expert_regions=set())
        assert ex.sdc is not None and ex.lp is None


class TestRunBasics:
    def test_stats_consistent(self, cfg):
        trace = synthetic_trace("mixed")
        stats = SingleCoreSystem(cfg, "baseline").run(trace)
        assert stats.l1d.hits + stats.l1d.misses == stats.l1d.accesses
        assert stats.l1d.accesses == len(trace)
        assert stats.instructions == trace.num_instructions
        assert stats.cycles > 0
        assert stats.ipc > 0

    def test_record_levels(self, cfg):
        trace = synthetic_trace("mixed")
        stats = SingleCoreSystem(cfg, "baseline").run(trace,
                                                      record_levels=True)
        assert stats.levels is not None
        assert len(stats.levels) == len(trace)
        assert set(np.unique(stats.levels)) <= {0, 1, 2, 3, 4, 5}

    def test_sequential_mostly_l1(self, cfg):
        trace = synthetic_trace("seq")
        stats = SingleCoreSystem(cfg, "baseline").run(trace,
                                                      record_levels=True)
        assert (stats.levels == L1D).mean() > 0.8

    def test_random_mostly_dram(self, cfg):
        trace = synthetic_trace("random")
        stats = SingleCoreSystem(cfg, "baseline").run(trace,
                                                      record_levels=True)
        assert (stats.levels == DRAM).mean() > 0.5

    def test_warmup_excludes_stats(self, cfg):
        trace = synthetic_trace("mixed")
        full = SingleCoreSystem(cfg, "baseline").run(trace)
        warm = SingleCoreSystem(cfg, "baseline").run(trace, warmup=2000)
        assert warm.l1d.accesses == full.l1d.accesses - 2000

    def test_deterministic(self, cfg):
        trace = synthetic_trace("mixed")
        a = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        b = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert a.cycles == b.cycles
        assert a.l1d.misses == b.l1d.misses


class TestSDCRouting:
    def test_irregular_stream_lands_in_sdc(self, cfg):
        trace = synthetic_trace("random", n=8000)
        stats = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert stats.sdc.accesses > len(trace) // 2
        assert stats.lp.predicted_irregular > len(trace) // 2

    def test_sequential_stream_avoids_sdc(self, cfg):
        trace = synthetic_trace("seq")
        stats = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert stats.sdc.accesses < len(trace) // 100

    def test_sdc_bypass_reduces_l2_pressure(self, cfg):
        trace = synthetic_trace("random", n=8000)
        base = SingleCoreSystem(cfg, "baseline").run(trace)
        prop = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert prop.l2c.accesses < base.l2c.accesses // 4

    def test_dirty_exclusive_invariant(self, cfg):
        """§III-C: one valid copy per block except clean blocks — i.e. a
        dirty copy is exclusive; SDC contents are SDCDir-tracked."""
        trace = synthetic_trace("mixed", n=6000)
        system = SingleCoreSystem(cfg, "sdc_lp")
        system.run(trace, backend="ref")    # the kernel keeps no state
        h = system.hierarchy
        hier_blocks = (set(h.l1d.resident_blocks())
                       | set(h.l2c.resident_blocks())
                       | set(h.llc.resident_blocks()))
        hier_dirty = (set(h.l1d.dirty_blocks())
                      | set(h.l2c.dirty_blocks())
                      | set(h.llc.dirty_blocks()))
        sdc_blocks = set(system.sdc.resident_blocks())
        sdc_dirty = set(system.sdc.dirty_blocks())
        assert not (sdc_dirty & hier_blocks)
        assert not (hier_dirty & sdc_blocks)
        tracked = set(system.sdcdir.tracked_blocks())
        assert sdc_blocks <= tracked

    def test_l1_family_mpki(self, cfg):
        trace = synthetic_trace("mixed")
        stats = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert stats.l1_family_mpki >= stats.mpki("l1d")

    def test_as_dict_json_serializable(self, cfg):
        import json
        trace = synthetic_trace("mixed", n=2000)
        stats = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        d = stats.as_dict()
        text = json.dumps(d)
        assert "sdc_mpki" in text
        assert d["variant"] == "sdc_lp"
        assert d["lp_lookups"] == 2000

    def test_flush_interval_runs(self, cfg):
        trace = synthetic_trace("mixed", n=4000)
        system = SingleCoreSystem(cfg, "sdc_lp")
        stats = system.run(trace, flush_sdc_every=500)
        assert stats.instructions == trace.num_instructions

    def test_expert_routes_hinted_regions(self, cfg):
        trace = synthetic_trace("mixed", n=4000)
        # Region id 1 is rand_array.
        system = SingleCoreSystem(cfg, "expert", expert_regions={1})
        stats = system.run(trace)
        assert stats.sdc.accesses == 2000
        assert stats.lp is None


class TestAuxPrecompute:
    def test_next_use_indices(self):
        blocks = np.array([5, 7, 5, 7, 9])
        nxt = next_use_indices(blocks)
        from repro.mem.replacement import BeladyOPT
        assert list(nxt[:4]) == [2, 3, BeladyOPT.NEVER, BeladyOPT.NEVER]
        assert nxt[4] == BeladyOPT.NEVER

    def test_irregular_access_mask(self):
        trace = synthetic_trace("mixed", n=2000)
        mask = irregular_access_mask(trace)
        assert mask.sum() == 1000      # the rand_array half

    def test_topt_runs_and_beats_lru_llc(self, cfg):
        """T-OPT's oracle replacement cannot have more LLC misses than
        LRU on the same trace (modulo identical fills)."""
        trace = synthetic_trace("mixed", n=8000, seed=3)
        base = SingleCoreSystem(cfg, "baseline").run(trace)
        topt = SingleCoreSystem(cfg, "topt").run(trace)
        assert topt.llc.misses <= base.llc.misses * 1.05

    def test_distill_variant_runs(self, cfg):
        trace = synthetic_trace("mixed", n=4000)
        stats = SingleCoreSystem(cfg, "distill").run(trace)
        assert stats.llc.accesses > 0


class TestAblationVariants:
    def test_victim_cache_catches_conflict_misses(self):
        """A ping-pong pattern across one L1 set is the victim cache's
        home turf (Jouppi's motivating case).  Uses scale 16, where the
        L1 has several sets and the VC several entries."""
        vcfg = scaled_config(16)
        space = AddressSpace()
        arr = space.add("pp", 64, 1 << 14)
        tb = TraceBuilder(space)
        nsets = SingleCoreSystem(vcfg, "baseline").hierarchy.l1d.num_sets
        ways = vcfg.l1d.ways
        # ways+2 blocks conflicting in one set (stride nsets defeats the
        # next-line prefetcher), cycled: misses in L1, hits in the VC.
        blocks = np.tile(np.arange(ways + 2) * nsets, 400)
        tb.emit(tb.pc("x"), (blocks * 64 + arr.base).astype(np.uint64))
        trace = tb.build()
        base = SingleCoreSystem(vcfg, "baseline").run(trace)
        vc = SingleCoreSystem(vcfg, "victim").run(trace)
        assert vc.cycles < base.cycles

    def test_victim_no_sdc_lp(self, cfg):
        s = SingleCoreSystem(cfg, "victim")
        assert s.victim is not None
        assert s.sdc is None and s.lp is None

    def test_lp_bypass_runs_and_reduces_l2_traffic(self, cfg):
        trace = synthetic_trace("random", n=8000)
        base = SingleCoreSystem(cfg, "baseline").run(trace)
        byp = SingleCoreSystem(cfg, "lp_bypass").run(trace)
        assert byp.lp is not None
        assert byp.l2c.accesses < base.l2c.accesses // 2

    def test_lp_bypass_multicore_rejected(self, cfg):
        from repro.core.multicore import MultiCoreSystem
        with pytest.raises(ValueError, match="single-core"):
            MultiCoreSystem(cfg, "lp_bypass")


class TestVariantOrdering:
    def test_sdc_lp_speeds_up_cache_averse_workload(self, cfg):
        """The headline effect on a controlled cache-averse stream."""
        trace = synthetic_trace("random", n=10000)
        base = SingleCoreSystem(cfg, "baseline").run(trace)
        prop = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert prop.cycles < base.cycles

    def test_sdc_lp_harmless_on_regular_workload(self, cfg):
        trace = synthetic_trace("seq")
        base = SingleCoreSystem(cfg, "baseline").run(trace)
        prop = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert prop.cycles <= base.cycles * 1.02
