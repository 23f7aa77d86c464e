"""Tests for the Distill Cache (LOC + WOC) baseline."""

import pytest

from repro.config import CacheConfig
from repro.mem.distill import WORDS_PER_BLOCK, DistillCache


def make(blocks=16, ways=4, woc_ways=2):
    return DistillCache(CacheConfig("dllc", blocks * 64, ways, 10, 8,
                                    "lru"), woc_ways=woc_ways)


class TestConstruction:
    def test_loc_capacity_reduced(self):
        d = make(blocks=16, ways=4, woc_ways=2)
        assert d.loc.config.ways == 2
        assert d.loc.config.size_bytes == 8 * 64

    def test_invalid_woc_ways(self):
        with pytest.raises(ValueError):
            make(ways=4, woc_ways=4)
        with pytest.raises(ValueError):
            make(ways=4, woc_ways=0)


class TestDistillation:
    def test_used_word_survives_eviction(self):
        d = make(blocks=8, ways=4, woc_ways=2)   # LOC: 2 ways, 2 sets
        nsets = d.num_sets
        d.fill(0, aux=3)          # word 3 used
        d.access(0, False, aux=3)
        # Evict block 0 from LOC by filling its set.
        d.fill(nsets, aux=0)
        d.fill(2 * nsets, aux=0)
        assert not d.loc.contains(0)
        # The used word is still served from the WOC.
        assert d.access(0, False, aux=3)
        assert d.woc_hits == 1

    def test_unused_word_misses_after_eviction(self):
        d = make(blocks=8, ways=4, woc_ways=2)
        nsets = d.num_sets
        d.fill(0, aux=3)
        d.fill(nsets, aux=0)
        d.fill(2 * nsets, aux=0)
        assert not d.access(0, False, aux=5)    # word 5 never touched

    def test_usage_tracked_per_word(self):
        d = make()
        d.fill(1, aux=0)
        d.access(1, False, aux=2)
        d.access(1, False, aux=7)
        assert d.usage[1] == (1 << 0) | (1 << 2) | (1 << 7)

    def test_woc_capacity_bounded(self):
        d = make(blocks=8, ways=4, woc_ways=1)
        nsets = d.num_sets
        cap = d.woc_capacity
        # Distill many fully-used lines into one WOC set.
        for i in range(6):
            block = i * nsets     # all map to set 0
            d.fill(block)
            for w in range(WORDS_PER_BLOCK):
                d.access(block, False, aux=w)
        assert all(len(ws) <= cap for ws in d.woc)

    def test_invalidate_clears_woc(self):
        d = make(blocks=8, ways=4, woc_ways=2)
        nsets = d.num_sets
        d.fill(0, aux=1)
        d.fill(nsets, aux=0)
        d.fill(2 * nsets, aux=0)   # 0 distilled to WOC
        d.invalidate(0)
        assert not d.access(0, False, aux=1)

    def test_flush(self):
        d = make()
        d.fill(0, aux=0)
        d.flush()
        assert not d.contains(0)
        assert d.usage == {}


class TestInterface:
    def test_stats_consistent(self):
        d = make()
        d.access(0, False, aux=0)      # miss
        d.fill(0, aux=0)
        d.access(0, False, aux=0)      # hit
        assert d.stats.accesses == 2
        assert d.stats.hits == 1
        assert d.stats.misses == 1

    def test_mark_dirty_delegates(self):
        d = make()
        d.fill(0)
        assert d.mark_dirty(0)
        assert not d.mark_dirty(99)

    def test_works_as_llc_in_hierarchy(self):
        """Integration: mount DistillCache as the LLC."""
        import dataclasses
        from repro.config import scaled_config
        from repro.mem.hierarchy import MemoryHierarchy
        base = scaled_config(64)
        cfg = dataclasses.replace(
            base, l1d=dataclasses.replace(base.l1d, prefetcher=None),
            l2c=dataclasses.replace(base.l2c, prefetcher=None))
        llc = DistillCache(cfg.llc)
        h = MemoryHierarchy(cfg, llc=llc)
        for b in range(100):
            h.access(b, False)
        assert llc.stats.accesses > 0
