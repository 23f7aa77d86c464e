"""System-level property tests: invariants that must hold for *any*
access stream, checked with hypothesis-generated traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import scaled_config
from repro.core.system import SingleCoreSystem
from repro.trace.layout import AddressSpace
from repro.trace.record import ACCESS_DTYPE, Trace


def build_trace(ops):
    """ops: list of (block_index, write, pc_choice, gap)."""
    space = AddressSpace()
    space.add("arena", 64, 1 << 16)
    base = space["arena"].base
    acc = np.zeros(len(ops), dtype=ACCESS_DTYPE)
    for i, (blk, write, pc, gap) in enumerate(ops):
        acc["addr"][i] = base + blk * 64
        acc["write"][i] = write
        acc["pc"][i] = 0x400000 + 4 * pc
        acc["gap"][i] = gap
    acc["dep"] = -1
    return Trace(acc, space)


ops_strategy = st.lists(
    st.tuples(st.integers(0, 4000), st.booleans(), st.integers(0, 12),
              st.integers(0, 5)),
    min_size=1, max_size=400)


@pytest.fixture(scope="module")
def cfg():
    return scaled_config(64)


class TestInvariants:
    @given(ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_stats_conservation_baseline(self, ops):
        cfg = scaled_config(64)
        trace = build_trace(ops)
        stats = SingleCoreSystem(cfg, "baseline").run(trace)
        # Every access hits or misses; every L1 miss proceeds downward.
        assert stats.l1d.accesses == len(trace)
        assert stats.l1d.hits + stats.l1d.misses == stats.l1d.accesses
        assert stats.l2c.accesses == stats.l1d.misses
        assert stats.llc.accesses == stats.l2c.misses
        assert stats.dram.reads == stats.llc.misses

    @given(ops_strategy)
    @settings(max_examples=30, deadline=None)
    def test_first_level_conservation_sdc_lp(self, ops):
        cfg = scaled_config(64)
        trace = build_trace(ops)
        stats = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        # LP routes each access to exactly one first-level structure.
        assert stats.l1d.accesses + stats.sdc.accesses == len(trace)
        assert stats.lp.lookups == len(trace)
        assert stats.lp.predicted_irregular == stats.sdc.accesses

    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_dirty_exclusivity_any_stream(self, ops):
        cfg = scaled_config(64)
        trace = build_trace(ops)
        system = SingleCoreSystem(cfg, "sdc_lp")
        system.run(trace, backend="ref")    # the kernel keeps no state
        h = system.hierarchy
        hier = (set(h.l1d.resident_blocks()) | set(h.l2c.resident_blocks())
                | set(h.llc.resident_blocks()))
        hier_dirty = (set(h.l1d.dirty_blocks())
                      | set(h.l2c.dirty_blocks())
                      | set(h.llc.dirty_blocks()))
        sdc = set(system.sdc.resident_blocks())
        sdc_dirty = set(system.sdc.dirty_blocks())
        assert not (sdc_dirty & hier)
        assert not (hier_dirty & sdc)
        assert sdc <= set(system.sdcdir.tracked_blocks())

    @given(ops_strategy)
    @settings(max_examples=20, deadline=None)
    def test_cycles_monotone_in_config_latency(self, ops):
        """A uniformly slower memory system can never run faster."""
        import dataclasses
        trace = build_trace(ops)
        fast_cfg = scaled_config(64)
        slow_cfg = dataclasses.replace(
            fast_cfg,
            l2c=dataclasses.replace(fast_cfg.l2c, latency=50),
            llc=dataclasses.replace(fast_cfg.llc, latency=200))
        fast = SingleCoreSystem(fast_cfg, "baseline").run(trace)
        slow = SingleCoreSystem(slow_cfg, "baseline").run(trace)
        assert slow.cycles >= fast.cycles

    @given(ops_strategy)
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, ops):
        cfg = scaled_config(64)
        trace = build_trace(ops)
        a = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        b = SingleCoreSystem(cfg, "sdc_lp").run(trace)
        assert a.cycles == b.cycles
        assert a.dram.reads == b.dram.reads

    @given(ops_strategy)
    @settings(max_examples=20, deadline=None)
    def test_victim_cache_never_changes_correctness_counters(self, ops):
        """The victim cache variant serves the same access stream with
        the same totals (performance differs, conservation holds)."""
        cfg = scaled_config(64)
        trace = build_trace(ops)
        stats = SingleCoreSystem(cfg, "victim").run(trace)
        assert stats.l1d.accesses == len(trace)
        assert stats.instructions == trace.num_instructions
