"""Tests for the SDCDir directory extension (§III-C)."""

import pytest

from repro.config import SDCDirConfig
from repro.core.sdcdir import SDCDirectory


def sdcdir(entries=16, ways=4, cores=1):
    return SDCDirectory(SDCDirConfig(entries_per_core=entries, ways=ways),
                        num_cores=cores)


class TestBasics:
    def test_insert_and_lookup(self):
        d = sdcdir()
        d.insert(100, core=0, dirty=False)
        entry = d.lookup(100)
        assert entry is not None
        assert entry[0] == 1       # core 0 sharer bit

    def test_lookup_miss(self):
        d = sdcdir()
        assert d.lookup(5) is None

    def test_sharer_bits_accumulate(self):
        d = sdcdir(cores=4)
        d.insert(7, core=0, dirty=False)
        d.insert(7, core=2, dirty=False)
        assert d.sharers(7) == 0b101

    def test_dirty_ownership(self):
        d = sdcdir(cores=2)
        d.insert(7, core=1, dirty=True)
        assert d.lookup(7)[1] == 1
        d.mark_dirty(7, 0)
        assert d.lookup(7)[1] == 0

    def test_remove_sharer_drops_empty_entry(self):
        d = sdcdir(cores=2)
        d.insert(7, core=0, dirty=False)
        d.insert(7, core=1, dirty=False)
        d.remove_sharer(7, 0)
        assert d.sharers(7) == 0b10
        d.remove_sharer(7, 1)
        assert d.lookup(7) is None

    def test_remove_sharer_clears_ownership(self):
        d = sdcdir(cores=2)
        d.insert(7, core=0, dirty=True)
        d.insert(7, core=1, dirty=False)
        d.remove_sharer(7, 0)
        assert d.lookup(7)[1] == -1


class TestRemoveSharerReturns:
    """Regression: remove_sharer used to silently discard dirty
    ownership — callers could not know a writeback was owed."""

    def test_absent_block(self):
        assert sdcdir().remove_sharer(9, 0) == (False, False)

    def test_clean_sharer(self):
        d = sdcdir(cores=2)
        d.insert(7, core=0, dirty=False)
        assert d.remove_sharer(7, 0) == (True, False)

    def test_dirty_owner_reported(self):
        d = sdcdir(cores=2)
        d.insert(7, core=0, dirty=True)
        d.insert(7, core=1, dirty=False)
        assert d.remove_sharer(7, 0) == (True, True)
        # Ownership was surrendered with the flag.
        assert d.lookup(7)[1] == -1

    def test_non_owner_not_reported(self):
        d = sdcdir(cores=2)
        d.insert(7, core=0, dirty=True)
        d.insert(7, core=1, dirty=False)
        assert d.remove_sharer(7, 1) == (True, False)
        assert d.lookup(7)[1] == 0      # core 0 still owns


class TestProbeOnlyLookup:
    def test_touch_false_preserves_victim_choice(self):
        # Regression: miss-path coherence probes used to bump recency,
        # keeping dead entries alive and perturbing victim selection.
        d = sdcdir(entries=4, ways=2)
        nsets = d.num_sets
        d.insert(0, 0, False)
        d.insert(nsets, 0, False)
        d.lookup(0, touch=False)           # pure probe
        displaced = d.insert(2 * nsets, 0, False)
        assert displaced[0] == 0           # block 0 is still the LRU


class TestClearDirty:
    def test_clears_ownership(self):
        d = sdcdir(cores=2)
        d.insert(7, core=1, dirty=True)
        assert d.clear_dirty(7) is True
        assert d.lookup(7)[1] == -1

    def test_clean_or_absent_is_noop(self):
        d = sdcdir()
        assert d.clear_dirty(7) is False
        d.insert(7, core=0, dirty=False)
        assert d.clear_dirty(7) is False


class TestCapacity:
    def test_eviction_on_full_set(self):
        d = sdcdir(entries=4, ways=2)     # 2 sets
        nsets = d.num_sets
        d.insert(0, 0, False)
        d.insert(nsets, 0, False)
        displaced = d.insert(2 * nsets, 0, True)
        assert displaced is not None
        assert displaced[0] == 0          # LRU victim

    def test_lru_respects_lookups(self):
        d = sdcdir(entries=4, ways=2)
        nsets = d.num_sets
        d.insert(0, 0, False)
        d.insert(nsets, 0, False)
        d.lookup(0)                        # refresh block 0
        displaced = d.insert(2 * nsets, 0, False)
        assert displaced[0] == nsets

    def test_displaced_entry_reports_sharers(self):
        d = sdcdir(entries=2, ways=1, cores=4)   # 2 sets x 1 way
        d.insert(0, 1, True)
        disp = d.insert(d.num_sets, 2, False)    # same set as block 0
        assert disp is not None
        assert disp[0] == 0
        assert disp[1] == 1 << 1     # core 1 held it
        assert disp[2] == 1          # dirty owner was core 1

    def test_entries_scale_with_cores(self):
        assert sdcdir(entries=128, ways=8, cores=4).entries == 512

    def test_tracked_blocks(self):
        d = sdcdir()
        for b in (1, 2, 3):
            d.insert(b, 0, False)
        assert set(d.tracked_blocks()) == {1, 2, 3}


class TestSystemWritebackAccounting:
    """The remove_sharer return value drives DRAM writeback accounting
    in ``SDCDirectory.install``; pin both directions on a crafted fill
    stream of the single-core system."""

    def rig(self):
        """``(fill(block, dirty), sdc, sdcdir, dram)`` of the core."""
        from repro.config import scaled_config
        from repro.core.system import SingleCoreSystem
        system = SingleCoreSystem(scaled_config(64), "sdc_lp")
        dram = system.hierarchy.dram
        return (lambda block, dirty: system.sdcdir.install(
                    system.sdcs, 0, block, dram, dirty=dirty),
                system.sdc, system.sdcdir, dram)

    def test_dirty_sdc_eviction_writes_back(self):
        fill, sdc, _, dram = self.rig()
        ways = sdc.ways * sdc.num_sets
        fill(0, True)
        nsets = sdc.num_sets
        for k in range(1, ways + 1):       # conflict block 0 out
            fill(k * nsets, False)
        assert not sdc.contains(0)
        assert dram.stats.writes == 1

    def test_cleaned_line_not_written_back_twice(self):
        # Regression: a shared read cleans the SDC line and writes it
        # back; the directory's dirty owner must drop with it, or the
        # later eviction pays a second, bogus writeback.
        fill, sdc, sdcdir, dram = self.rig()
        fill(0, True)
        assert sdc.clear_dirty(0) is True
        assert sdcdir.clear_dirty(0) is True
        ways = sdc.ways * sdc.num_sets
        nsets = sdc.num_sets
        for k in range(1, ways + 1):
            fill(k * nsets, False)
        assert not sdc.contains(0)
        assert dram.stats.writes == 0


class TestMultiCoreWritebackAccounting(TestSystemWritebackAccounting):
    """The same cases on core 1 of a two-core system, plus an SDCDir
    entry shared by both cores."""

    def rig(self):
        from repro.config import scaled_config
        from repro.core.multicore import MultiCoreSystem
        system = MultiCoreSystem(scaled_config(64, num_cores=2), "sdc_lp")
        return (lambda block, dirty: system.sdcdir.install(
                    system.sdcs, 1, block, system.dram, dirty=dirty),
                system.sdcs[1], system.sdcdir, system.dram)

    def test_displaced_shared_entry_writes_back_once(self):
        # A displaced SDCDir entry shared by two cores, core 0 its dirty
        # owner: both SDC copies go, and DRAM sees the one dirty line.
        import dataclasses
        from repro.config import scaled_config
        from repro.core.multicore import MultiCoreSystem
        cfg = dataclasses.replace(
            scaled_config(64, num_cores=2),
            sdcdir=SDCDirConfig(entries_per_core=1, ways=1))
        system = MultiCoreSystem(cfg, "sdc_lp")
        sdcdir, sdcs, dram = system.sdcdir, system.sdcs, system.dram
        sdcdir.install(sdcs, 0, 0, dram, dirty=True)
        sdcdir.install(sdcs, 1, 0, dram)
        assert sdcdir.sharers(0) == 0b11
        sdcdir.install(sdcs, 1, sdcdir.num_sets, dram)   # same SDCDir set
        assert sdcdir.lookup(0) is None
        assert not sdcs[0].contains(0) and not sdcs[1].contains(0)
        assert sdcs[1].contains(sdcdir.num_sets)
        assert system.dram.stats.writes == 1
