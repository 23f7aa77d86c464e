"""Tests for the cache-level predictor (sdc_clp) and the tag-less LP
ablation (sdc_lp_tagless): unit behavior, variant wiring, invariants,
differential twins and the batch kernel, which must run both."""

import dataclasses

import numpy as np
import pytest

from repro.config import (CLPConfig, LPConfig, TAGLESS_LP_GROWTH,
                          tagless_lp_config)
from repro.core.batch.build import load_kernel
from repro.core.clp import CacheLevelPredictor, LEVEL_WEIGHTS
from repro.core.lp import LargePredictor
from repro.core.multicore import MultiCoreSystem
from repro.core.system import (SDC_VARIANTS, SingleCoreSystem, VARIANTS,
                               variant_config)
from repro.experiments.runner import default_config
from repro.mem.hierarchy import DRAM, L1D
from repro.trace.layout import AddressSpace
from repro.trace.record import ACCESS_DTYPE, Trace
from repro.validate.invariants import (InvariantViolation,
                                       check_clp_structure)


def _trace(n=4000, seed=9) -> Trace:
    """Half-sequential half-random trace (golden-trace shape, small)."""
    space = AddressSpace()
    space.add("seq", 4, 1 << 12)
    rnd = space.add("rnd", 4, 1 << 16, irregular_hint=True)
    seq = space["seq"]
    rng = np.random.default_rng(seed)
    acc = np.zeros(n, dtype=ACCESS_DTYPE)
    seq_idx = np.arange(n) % (1 << 12)
    rnd_idx = rng.integers(0, 1 << 16, size=n)
    use_rnd = rng.random(n) < 0.5
    acc["addr"] = np.where(use_rnd, rnd.addr(rnd_idx), seq.addr(seq_idx))
    acc["pc"] = np.where(use_rnd, 0x400024, 0x400048)
    acc["write"] = rng.random(n) < 0.25
    acc["gap"] = 2
    acc["dep"] = -1
    return Trace(acc, space)


class TestCLPUnit:
    def test_miss_allocates_and_predicts_regular(self):
        clp = CacheLevelPredictor(CLPConfig(entries=16, ways=4))
        assert clp.predict(0x400) is False
        assert clp.peek(0x400) == 0
        assert clp.stats.table_misses == 1

    def test_deep_service_promotes_to_irregular(self):
        clp = CacheLevelPredictor(CLPConfig(entries=16, ways=4,
                                            tau_clp=8))
        pc = 0x400
        clp.predict(pc)
        clp.update(pc, DRAM)            # EMA: (0 + 24) >> 1 = 12
        assert clp.peek(pc) == LEVEL_WEIGHTS[DRAM] >> 1
        assert clp.predict(pc) is True

    def test_shallow_service_demotes(self):
        clp = CacheLevelPredictor(CLPConfig(entries=16, ways=4,
                                            tau_clp=8))
        pc = 0x400
        clp.predict(pc)
        clp.update(pc, DRAM)
        clp.update(pc, DRAM)            # ctr 18
        for _ in range(8):
            clp.update(pc, L1D)         # weight 0: halves each time
        assert clp.predict(pc) is False

    def test_counter_saturates_at_ctr_max(self):
        cfg = CLPConfig(entries=16, ways=4, ctr_bits=3)   # ctr_max 7
        clp = CacheLevelPredictor(cfg)
        clp.predict(0x400)
        for _ in range(8):
            clp.update(0x400, DRAM)     # unclamped EMA would reach 15
        assert clp.peek(0x400) == cfg.ctr_max
        check_clp_structure(clp)

    def test_lru_eviction_respects_ways(self):
        clp = CacheLevelPredictor(CLPConfig(entries=8, ways=2))
        # 4 sets: PCs 16 bytes apart share a set with distinct tags.
        pcs = [0x400 + i * 16 for i in range(3)]
        for pc in pcs:
            clp.predict(pc)
        assert all(len(s) <= 2 for s in clp.sets)
        check_clp_structure(clp)
        assert clp.peek(pcs[0]) is None          # LRU victim gone

    def test_non_pow2_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheLevelPredictor(CLPConfig(entries=24, ways=4))

    def test_invariant_catches_corruption(self):
        clp = CacheLevelPredictor(CLPConfig(entries=16, ways=4))
        clp.predict(0x400)
        lines = clp.sets[(0x400 >> 2) & clp._set_mask]
        next(iter(lines.values())).ctr = 99
        with pytest.raises(InvariantViolation):
            check_clp_structure(clp)

    def test_storage_bits(self):
        cfg = CLPConfig(entries=128, ways=8, tag_bits=65, ctr_bits=5)
        assert cfg.storage_bits == 128 * (65 + 5 + 1)


class TestTaglessLP:
    def test_config_transform(self):
        lp = LPConfig()
        tl = tagless_lp_config(lp)
        assert tl.tagless and tl.tag_bits == 0 and tl.ways == 1
        assert tl.entries == lp.entries * TAGLESS_LP_GROWTH
        # Idempotent: DSE candidates bake the transform in ahead of
        # variant_config applying it again.
        assert tagless_lp_config(tl) == tl

    def test_variant_config_applies_transform(self):
        cfg = variant_config(default_config(), "sdc_lp_tagless")
        assert cfg.lp.tagless
        assert cfg.lp.entries == default_config().lp.entries * 4

    def test_aliasing_shares_entries(self):
        # Two PCs mapping to the same set share the single tag-less
        # slot: the second PC inherits the first PC's stride state.
        lp = LargePredictor(tagless_lp_config(LPConfig(entries=4,
                                                       ways=4)))
        pc_a = 0x400
        pc_b = pc_a + lp.num_sets * 4
        lp.predict_and_update(pc_a, 100)
        assert lp.peek(pc_b) == lp.peek(pc_a)
        lp.predict_and_update(pc_b, 500)
        assert lp.peek(pc_a)[0] == 500
        assert lp.stats.table_misses == 1    # b aliased onto a's entry

    def test_tagged_lp_keeps_pcs_distinct(self):
        lp = LargePredictor(LPConfig(entries=4, ways=4))
        pc_a = 0x400
        pc_b = pc_a + lp.num_sets * 4
        lp.predict_and_update(pc_a, 100)
        assert lp.peek(pc_b) is None


class TestVariantWiring:
    def test_registered(self):
        assert "sdc_clp" in VARIANTS and "sdc_lp_tagless" in VARIANTS
        assert "sdc_clp" in SDC_VARIANTS
        assert "sdc_lp_tagless" in SDC_VARIANTS

    @pytest.mark.parametrize("variant", ["sdc_clp", "sdc_lp_tagless"])
    def test_single_core_runs_clean_under_check(self, variant):
        sys_ = SingleCoreSystem(default_config(), variant=variant,
                                check_every=500)
        stats = sys_.run(_trace())
        assert stats.cycles > 0
        assert stats.lp is not None and stats.lp.lookups == 4000
        assert stats.sdc is not None

    def test_clp_stats_ride_lp_slot(self):
        sys_ = SingleCoreSystem(default_config(), variant="sdc_clp")
        stats = sys_.run(_trace())
        assert stats.lp.lookups == (stats.lp.predicted_irregular
                                    + stats.lp.predicted_regular)

    def test_clp_warmup_resets_stats(self):
        sys_ = SingleCoreSystem(default_config(), variant="sdc_clp")
        stats = sys_.run(_trace(), warmup=1000, flush_sdc_every=700)
        assert stats.lp.lookups == 3000      # post-warmup window only

    @pytest.mark.parametrize("variant", ["sdc_clp", "sdc_lp_tagless"])
    def test_multicore_runs_clean_under_check(self, variant):
        mc = MultiCoreSystem(default_config(num_cores=2), variant=variant,
                             check_every=500)
        traces = [_trace(1500, seed=s) for s in range(mc.num_cores)]
        res = mc.run(traces)
        assert all(s.cycles > 0 for s in res.per_core)
        assert all(s.lp is not None for s in res.per_core)

    @pytest.mark.parametrize("variant", ["sdc_clp", "sdc_lp_tagless"])
    def test_batch_backend_runs(self, variant):
        """Both run in the kernel, bit-identical to the reference loop
        (only a host without a C compiler may refuse them)."""
        from repro.core.batch.backend import (try_run_batch,
                                              unsupported_reason)
        trace = _trace(2000)
        sys_ = SingleCoreSystem(default_config(), variant=variant)
        if load_kernel() is None:
            assert unsupported_reason(sys_, trace) == "kernel unavailable"
            return
        assert unsupported_reason(sys_, trace) is None
        want = SingleCoreSystem(default_config(), variant=variant).run(
            trace, backend="ref")
        assert try_run_batch(sys_, trace).to_payload() == \
            want.to_payload()

    def test_batch_runs_handbuilt_tagless_sdc_lp(self):
        # A tagless LPConfig under plain sdc_lp takes the kernel's
        # tag-less lookup too.
        from repro.core.batch.backend import (try_run_batch,
                                              unsupported_reason)
        cfg = dataclasses.replace(default_config(),
                                  lp=tagless_lp_config(LPConfig()))
        trace = _trace(2000)
        sys_ = SingleCoreSystem(cfg, variant="sdc_lp")
        if load_kernel() is None:
            assert unsupported_reason(sys_, trace) == "kernel unavailable"
            return
        want = SingleCoreSystem(cfg, variant="sdc_lp").run(
            trace, backend="ref")
        assert try_run_batch(sys_, trace).to_payload() == \
            want.to_payload()


class TestDifferentialTwins:
    @pytest.mark.parametrize("variant", ["sdc_clp", "sdc_lp_tagless"])
    def test_inlined_vs_generic_lru(self, variant):
        from repro.validate.differential import diff_inlined_vs_generic_lru
        diff_inlined_vs_generic_lru(_trace(2000),
                                    config=default_config(),
                                    variant=variant)

    @pytest.mark.parametrize("variant", ["sdc_clp", "sdc_lp_tagless"])
    def test_multicore1_vs_single(self, variant):
        from repro.validate.differential import diff_multicore1_vs_single
        diff_multicore1_vs_single(_trace(2000),
                                  config=default_config(),
                                  variant=variant)
