"""Tests for the three-level hierarchy: lookup cascades, fills,
writebacks, and latency accounting."""

import dataclasses

import pytest

from repro.config import SystemConfig, scaled_config
from repro.mem.hierarchy import DRAM, L1D, L2C, LLC, MemoryHierarchy


@pytest.fixture
def cfg():
    # No prefetchers: deterministic residency for these tests.
    base = scaled_config(64)
    return dataclasses.replace(
        base,
        l1d=dataclasses.replace(base.l1d, prefetcher=None),
        l2c=dataclasses.replace(base.l2c, prefetcher=None))


@pytest.fixture
def hier(cfg):
    return MemoryHierarchy(cfg, enable_prefetch=False)


class TestLookupCascade:
    def test_cold_access_reaches_dram(self, hier, cfg):
        level, latency = hier.access(1000, False)
        assert level == DRAM
        assert latency >= (cfg.l1d.latency + cfg.l2c.latency +
                           cfg.llc.latency + cfg.dram.row_hit_latency)

    def test_second_access_hits_l1(self, hier, cfg):
        hier.access(1000, False)
        assert hier.access(1000, False) == (L1D, cfg.l1d.latency)

    def test_fill_installs_all_levels(self, hier):
        hier.access(42, False)
        assert hier.l1d.contains(42)
        assert hier.l2c.contains(42)
        assert hier.llc.contains(42)

    def test_l2_hit_after_l1_eviction(self, hier, cfg):
        hier.access(0, False)
        # Thrash L1 set 0 without evicting from the larger L2.
        nsets_l1 = hier.l1d.num_sets
        for i in range(1, hier.l1d.ways + 1):
            hier.access(i * nsets_l1, False)
        level, latency = hier.access(0, False)
        assert level in (L2C, LLC)
        assert latency >= cfg.l1d.latency + cfg.l2c.latency

    def test_latency_monotone_with_depth(self, hier):
        _, lat_dram = hier.access(7, False)
        _, lat_l1 = hier.access(7, False)
        assert lat_dram > lat_l1


class TestWritebacks:
    def test_dirty_l1_eviction_writes_to_l2(self, hier):
        hier.access(0, True)     # dirty in L1
        nsets_l1 = hier.l1d.num_sets
        for i in range(1, hier.l1d.ways + 1):
            hier.access(i * nsets_l1, False)
        assert not hier.l1d.contains(0)
        # L2 must hold the dirty copy now.
        assert hier.l2c.contains(0)
        _, dirty = hier.l2c.invalidate(0)
        assert dirty

    def test_llc_dirty_eviction_writes_dram(self, cfg):
        h = MemoryHierarchy(cfg, enable_prefetch=False)
        h._writeback_to_llc(1)
        # Fill the LLC set of block 1 until it evicts block 1.
        nsets = h.llc.num_sets
        for i in range(1, h.llc.ways + 1):
            h._fill_llc(1 + i * nsets)
        assert h.dram.stats.writes >= 1

    def test_write_allocates(self, hier):
        level, _ = hier.access(55, True)
        assert level == DRAM
        assert hier.l1d.contains(55)


class TestCoherenceHelpers:
    def test_contains_any_level(self, hier):
        hier.access(9, False)
        assert hier.contains(9)
        hier.l1d.invalidate(9)
        assert hier.contains(9)      # still in L2/LLC

    def test_extract_removes_everywhere(self, hier):
        hier.access(9, False)
        present, lat = hier.extract(9)
        assert present
        assert lat > 0
        assert not hier.contains(9)

    def test_extract_absent(self, hier):
        present, lat = hier.extract(12345)
        assert not present
        assert lat == 0


class TestPrefetchers:
    def test_next_line_prefetch_fills_l1(self):
        cfg = scaled_config(64)
        h = MemoryHierarchy(cfg)   # prefetchers on
        h.access(100, False)
        assert h.l1d.contains(101)
        assert h.l1d.stats.prefetch_fills >= 1

    def test_sequential_stream_benefits(self):
        cfg = scaled_config(64)
        h_pf = MemoryHierarchy(cfg)
        h_no = MemoryHierarchy(cfg, enable_prefetch=False)
        for b in range(200):
            h_pf.access(b, False)
            h_no.access(b, False)
        assert h_pf.l1d.stats.misses < h_no.l1d.stats.misses


class TestSharedStructures:
    def test_external_llc_used(self, cfg):
        from repro.mem.cache import SetAssocCache
        shared = SetAssocCache(cfg.llc)
        h1 = MemoryHierarchy(cfg, llc=shared, enable_prefetch=False)
        h2 = MemoryHierarchy(cfg, llc=shared, enable_prefetch=False)
        h1.access(77, False)
        level, _ = h2.access(77, False)
        assert level == LLC        # h2 hits h1's LLC fill
