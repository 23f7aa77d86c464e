"""Tests for the multi-core system: scheduling, shared-LLC contention,
and the MESI-style coherence protocol (exercised with shared-address
streams, since the paper's mixes are multiprogrammed)."""

import dataclasses

import numpy as np
import pytest

from repro.config import scaled_config
from repro.core.multicore import MultiCoreSystem
from repro.trace.layout import AddressSpace
from repro.trace.record import TraceBuilder


def make_trace(pattern, n=2000, seed=0, name="t"):
    space = AddressSpace()
    seq = space.add("seq", 4, 1 << 14)
    rnd = space.add("rnd", 4, 1 << 19, irregular_hint=True)
    tb = TraceBuilder(space, name=name)
    rng = np.random.default_rng(seed)
    if pattern == "seq":
        tb.emit(tb.pc("s"), seq.addr(np.arange(n) % (1 << 14)), gap=2)
    elif pattern == "random":
        tb.emit(tb.pc("r"), rnd.addr(rng.integers(0, 1 << 19, n)), gap=2)
    elif pattern == "shared_rw":
        # Alternating loads and stores over a small shared region.
        idx = np.arange(n) % 64
        tb.emit(tb.pc("l"), seq.addr(idx), gap=1)
        tb.emit(tb.pc("w"), seq.addr(idx), write=True, gap=1)
    return tb.build()


@pytest.fixture(scope="module")
def cfg():
    return dataclasses.replace(scaled_config(64), num_cores=2)


class TestConstruction:
    def test_core_count(self, cfg):
        s = MultiCoreSystem(cfg, "baseline")
        assert len(s.cores) == 2
        assert s.llc.config.size_bytes == cfg.llc.size_bytes * 2

    def test_sdc_per_core(self, cfg):
        s = MultiCoreSystem(cfg, "sdc_lp")
        assert all(sdc is not None for sdc in s.sdcs)
        assert all(lp is not None for lp in s.lps)
        assert s.sdcdir.entries == \
            cfg.sdcdir.entries_per_core * 2

    def test_unknown_variant_raises(self, cfg):
        with pytest.raises(ValueError):
            MultiCoreSystem(cfg, "bogus")

    def test_wrong_trace_count_raises(self, cfg):
        s = MultiCoreSystem(cfg, "baseline")
        with pytest.raises(ValueError):
            s.run([make_trace("seq")])


class TestRun:
    def test_per_core_stats(self, cfg):
        s = MultiCoreSystem(cfg, "baseline")
        res = s.run([make_trace("seq"), make_trace("random")])
        assert len(res.per_core) == 2
        assert all(st.cycles > 0 for st in res.per_core)
        # The random thread is slower (lower IPC) than the sequential one.
        assert res.per_core[1].ipc < res.per_core[0].ipc

    def test_replay_keeps_first_pass_stats(self, cfg):
        """A short trace replays while the long one finishes, but its
        reported instruction count covers exactly one pass."""
        short = make_trace("seq", n=500)
        long = make_trace("random", n=4000)
        s = MultiCoreSystem(cfg, "baseline")
        res = s.run([short, long])
        assert res.per_core[0].instructions == short.num_instructions
        assert res.per_core[1].instructions == long.num_instructions

    def test_llc_contention_slows_cores(self, cfg):
        """Two LLC-thrashing threads are slower together than alone."""
        t = make_trace("random", n=4000)
        single_cfg = dataclasses.replace(cfg, num_cores=1)
        alone = MultiCoreSystem(single_cfg, "baseline").run([t])
        together = MultiCoreSystem(cfg, "baseline").run(
            [t, make_trace("random", n=4000, seed=9)])
        assert together.per_core[0].ipc <= alone.per_core[0].ipc * 1.05

    def test_sdc_lp_multicore_runs(self, cfg):
        s = MultiCoreSystem(cfg, "sdc_lp")
        res = s.run([make_trace("random"), make_trace("seq")])
        assert res.per_core[0].sdc.accesses > 0

    @pytest.mark.parametrize("variant", ["topt", "distill", "l1iso",
                                         "llc2x"])
    def test_all_variants_run(self, cfg, variant):
        s = MultiCoreSystem(cfg, variant)
        res = s.run([make_trace("seq", n=800),
                     make_trace("random", n=800)])
        assert len(res.per_core) == 2

    def test_expert_variant_routes_per_core(self, cfg):
        a, b = make_trace("random", n=1000), make_trace("seq", n=1000)
        # Region 1 (rnd) averse on core 0; nothing averse on core 1.
        s = MultiCoreSystem(cfg, "expert", expert_regions=[{1}, set()])
        res = s.run([a, b])
        assert res.per_core[0].sdc.accesses == 1000
        assert res.per_core[1].sdc.accesses == 0

    def test_tlb_stats_per_core(self, cfg):
        s = MultiCoreSystem(cfg, "baseline")
        res = s.run([make_trace("random", n=1000),
                     make_trace("seq", n=1000)])
        assert res.per_core[0].tlb is not None
        # The random thread touches far more pages.
        assert res.per_core[0].tlb.walks > res.per_core[1].tlb.walks


class TestCoherence:
    def test_disjoint_offsets_by_default(self, cfg):
        s = MultiCoreSystem(cfg, "baseline")
        t = make_trace("seq", n=500)
        s.run([t, t])
        # Same trace on both cores, but offset address spaces: the
        # directory never sees a block shared by both cores.
        for entry in s.directory.values():
            assert entry[0] in (0, 1, 2)   # at most one sharer bit

    def test_shared_addresses_create_sharers(self, cfg):
        s = MultiCoreSystem(cfg, "baseline")
        t = make_trace("seq", n=500)
        s.run([t, t], offset_address_spaces=False)
        shared = [e for e in s.directory.values() if e[0] == 0b11]
        assert shared, "expected blocks shared by both cores"

    def test_write_invalidates_remote_copy(self, cfg):
        """Single-writer invariant on a shared read-write stream."""
        s = MultiCoreSystem(cfg, "baseline")
        a = make_trace("shared_rw", n=600, seed=1)
        b = make_trace("shared_rw", n=600, seed=2)
        s.run([a, b], offset_address_spaces=False)
        # After the run, no block is dirty-owned by one core while
        # resident in the other core's private caches.
        for block, entry in s.directory.items():
            owner = entry[1]
            if owner >= 0:
                for c, h in enumerate(s.cores):
                    if c != owner:
                        assert not h.l1d.contains(block)
                        assert not h.l2c.contains(block)

    def test_sdc_dirty_exclusive_across_cores(self, cfg):
        """§III-C: dirty copies are exclusive across all SDCs and all
        private hierarchies (clean copies may be shared)."""
        s = MultiCoreSystem(cfg, "sdc_lp")
        a = make_trace("shared_rw", n=1500, seed=3)
        b = make_trace("shared_rw", n=1500, seed=4)
        s.run([a, b], offset_address_spaces=False)
        all_resident, all_dirty = [], []
        for sdc in s.sdcs:
            all_resident.append(set(sdc.resident_blocks()))
            all_dirty.append(set(sdc.dirty_blocks()))
        for h in s.cores:
            all_resident.append(set(h.l1d.resident_blocks())
                                | set(h.l2c.resident_blocks()))
            all_dirty.append(set(h.l1d.dirty_blocks())
                             | set(h.l2c.dirty_blocks()))
        for i, dirty in enumerate(all_dirty):
            for j, resident in enumerate(all_resident):
                if i != j:
                    assert not (dirty & resident), (i, j)

    def test_sdc_prefetch_skips_a_block_another_sdc_holds(self, cfg):
        # Regression: the SDC prefetcher tested only its own core's SDC,
        # so it installed a stale copy beside another core's dirty one.
        from repro.validate.invariants import check_multicore_system
        s = MultiCoreSystem(cfg, "sdc_lp")
        s._access_via_sdc(0, 101, True)        # dirty in SDC 0
        s._access_via_sdc(1, 100, False)       # next-line target: 101
        assert s.sdcs[0].is_dirty(101)
        assert not s.sdcs[1].contains(101)
        check_multicore_system(s)

    def test_sdcdir_subset_invariant(self, cfg):
        s = MultiCoreSystem(cfg, "sdc_lp")
        s.run([make_trace("random", n=1200, seed=5),
               make_trace("random", n=1200, seed=6)])
        tracked = set(s.sdcdir.tracked_blocks())
        for sdc in s.sdcs:
            assert set(sdc.resident_blocks()) <= tracked
