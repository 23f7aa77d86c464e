"""Tests for replacement policies, including the Belady optimality
property that underpins the T-OPT baseline."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.core.multicore import MultiCoreSystem
from repro.core.system import SingleCoreSystem
from repro.experiments.runner import default_config
from repro.mem.cache import SetAssocCache
from repro.mem.replacement import (BeladyOPT, DRRIPPolicy, LRUPolicy,
                                   SHiPPolicy, SRRIPPolicy, make_policy)


def simulate(policy_name, blocks, ways=4, aux_list=None):
    """Count misses of a fully-associative cache under a policy."""
    if policy_name == "opt":
        policy = BeladyOPT()
    else:
        policy = make_policy(policy_name)
    cache = SetAssocCache(CacheConfig("t", ways * 64, ways, 1, 4, "lru"),
                          policy)
    misses = 0
    for i, b in enumerate(blocks):
        aux = aux_list[i] if aux_list is not None else None
        if not cache.access(b, False, aux=aux):
            misses += 1
            cache.fill(b, aux=aux)
    return misses


def next_use(blocks):
    nxt = [BeladyOPT.NEVER] * len(blocks)
    last = {}
    for i in range(len(blocks) - 1, -1, -1):
        nxt[i] = last.get(blocks[i], BeladyOPT.NEVER)
        last[blocks[i]] = i
    return nxt


class TestMakePolicy:
    def test_known_names(self):
        assert isinstance(make_policy("lru"), LRUPolicy)
        assert isinstance(make_policy("srrip"), SRRIPPolicy)
        assert isinstance(make_policy("opt"), BeladyOPT)
        assert make_policy("topt").irregular_only

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_policy("clock")


class TestLRU:
    def test_victim_is_least_recent(self):
        p = LRUPolicy()
        lines = {}
        for tag in (1, 2, 3):
            line = [0, 0, 0]
            p.on_fill(line, None)
            lines[tag] = line
        p.on_hit(lines, 1, None)
        assert p.victim(lines) == 2


class TestSRRIP:
    def test_fill_inserts_long_rereference(self):
        p = SRRIPPolicy()
        line = [0, 0, 0]
        p.on_fill(line, None)
        assert line[0] == SRRIPPolicy.MAX_RRPV - 1

    def test_hit_promotes(self):
        p = SRRIPPolicy()
        line = [2, 0, 0]
        p.on_hit({7: line}, 7, None)
        assert line[0] == 0

    def test_victim_ages_until_found(self):
        p = SRRIPPolicy()
        lines = {1: [0, 0, 0], 2: [2, 0, 0]}
        assert p.victim(lines) == 2
        # Aging happened: line 1 got older.
        assert lines[1][0] >= 1

    def test_scan_resistance(self):
        """SRRIP must beat LRU on a thrash pattern with a hot subset."""
        hot = list(range(3))
        pattern = []
        for i in range(60):
            pattern.extend(hot)
            pattern.append(100 + i)   # one-shot scans
        assert simulate("srrip", pattern) <= simulate("lru", pattern)


class TestDRRIP:
    def test_leader_sets_disjoint(self):
        p = DRRIPPolicy(num_sets=2048)
        assert not (p._srrip_leaders & p._brrip_leaders)
        assert p._srrip_leaders and p._brrip_leaders

    def test_selector_moves_on_leader_misses(self):
        p = DRRIPPolicy(num_sets=64)
        start = p.psel
        p.bind_set(next(iter(p._srrip_leaders)))
        p.on_miss()
        assert p.psel == start + 1
        p.bind_set(next(iter(p._brrip_leaders)))
        p.on_miss()
        p.on_miss()
        assert p.psel == start - 1

    def test_follower_insertion_tracks_selector(self):
        p = DRRIPPolicy(num_sets=64)
        follower = next(s for s in range(64)
                        if s not in p._srrip_leaders
                        and s not in p._brrip_leaders)
        p.bind_set(follower)
        p.psel = 0                       # SRRIP wins
        line = [0, 0, 0]
        p.on_fill(line, None)
        assert line[0] == DRRIPPolicy.MAX_RRPV - 1
        p.psel = (1 << DRRIPPolicy.PSEL_BITS) - 1   # BRRIP wins
        fills = []
        for _ in range(64):
            line = [0, 0, 0]
            p.on_fill(line, None)
            fills.append(line[0])
        # Mostly distant insertions with the 1/32 exception.
        assert fills.count(DRRIPPolicy.MAX_RRPV) > 48
        assert DRRIPPolicy.MAX_RRPV - 1 in fills

    @pytest.mark.parametrize("cores", (1, 2))
    def test_llc_leader_sets_follow_its_geometry(self, cores):
        """The LLC of a single- or multi-core system duels on its own
        sets: 16 SRRIP and 16 BRRIP leaders on the default config's
        128-set LLC, as a bare DRRIP cache of that geometry gets."""
        base = default_config()
        cfg = dataclasses.replace(base, num_cores=cores,
                                  llc=dataclasses.replace(
                                      base.llc, replacement="drrip"))
        llc = SingleCoreSystem(cfg, "baseline").hierarchy.llc \
            if cores == 1 else MultiCoreSystem(cfg, "baseline").llc
        pol = llc.policy
        assert pol.num_sets == llc.num_sets
        for leaders in (pol._srrip_leaders, pol._brrip_leaders):
            assert len([s for s in leaders if s < llc.num_sets]) == 16
        bare = SetAssocCache(llc.config).policy
        assert (pol._srrip_leaders, pol._brrip_leaders) == \
            (bare._srrip_leaders, bare._brrip_leaders)

    def test_runs_inside_cache(self):
        cache = SetAssocCache(CacheConfig("t", 64 * 64, 4, 1, 4, "drrip"))
        for b in range(500):
            if not cache.access(b % 97, False):
                cache.fill(b % 97)
        s = cache.stats
        assert s.hits + s.misses == s.accesses


class TestSHiP:
    def test_dead_signature_inserted_distant(self):
        p = SHiPPolicy()
        pc = 0x44
        sig = p._signature(pc)
        p.shct[sig] = 0
        line = [0, 0, 0]
        p.on_fill(line, pc)
        assert line[0] == SHiPPolicy.MAX_RRPV

    def test_reuse_trains_counter_up(self):
        p = SHiPPolicy()
        pc = 0x48
        sig = p._signature(pc)
        before = p.shct[sig]
        line = [0, 0, 0]
        p.on_fill(line, pc)
        lines = {1: line}
        p.on_hit(lines, 1, pc)
        assert p.shct[sig] == before + 1
        # Second hit on the same line does not double-count.
        p.on_hit(lines, 1, pc)
        assert p.shct[sig] == before + 1

    def test_dead_eviction_trains_counter_down(self):
        p = SHiPPolicy()
        pc = 0x4C
        sig = p._signature(pc)
        p.shct[sig] = 3
        lines = {}
        line = [SHiPPolicy.MAX_RRPV, 0, 0]
        p._sig[id(line)] = sig
        p._reused[id(line)] = False
        lines[1] = line
        p.victim(lines)
        assert p.shct[sig] == 2

    def test_scan_signature_learned_dead(self):
        """A PC that streams without reuse ends with a zero counter and
        distant insertions."""
        cache = SetAssocCache(CacheConfig("t", 64 * 8, 4, 1, 4, "ship"))
        scan_pc, hot_pc = 0x100, 0x200
        for rep in range(40):
            for b in (0, 2):             # hot blocks, always reused
                if not cache.access(b, False, aux=hot_pc):
                    cache.fill(b, aux=hot_pc)
            blk = 100 + rep              # scans, never reused
            if not cache.access(blk, False, aux=scan_pc):
                cache.fill(blk, aux=scan_pc)
        policy = cache.policy
        assert policy.shct[policy._signature(scan_pc)] == 0
        assert policy.shct[policy._signature(hot_pc)] > 0
        # Hot blocks still resident despite the scan stream.
        assert cache.contains(0) and cache.contains(2)


class TestBeladyOPT:
    def test_classic_opt_example(self):
        # Belady on a textbook string with 3 frames.
        blocks = [1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]
        misses = simulate("opt", blocks, ways=3,
                          aux_list=next_use(blocks))
        assert misses == 7   # known OPT result for this string

    def test_victim_is_farthest_future(self):
        p = BeladyOPT()
        lines = {}
        for tag, nxt in ((1, 10), (2, 99), (3, 5)):
            line = [0, 0, 0]
            p.on_fill(line, nxt)
            lines[tag] = line
        assert p.victim(lines) == 2

    def test_never_referenced_preferred_victim(self):
        p = BeladyOPT()
        lines = {1: [50, 0, 0], 2: [0, 0, 0]}
        p.on_fill(lines[2], None)   # aux None = never again
        assert p.victim(lines) == 2

    @given(st.lists(st.integers(0, 12), min_size=5, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_opt_never_worse_than_lru(self, blocks):
        """Belady's optimality: OPT misses <= LRU misses on any trace."""
        aux = next_use(blocks)
        assert simulate("opt", blocks, ways=3, aux_list=aux) <= \
            simulate("lru", blocks, ways=3)

    @given(st.lists(st.integers(0, 12), min_size=5, max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_opt_never_worse_than_srrip(self, blocks):
        aux = next_use(blocks)
        assert simulate("opt", blocks, ways=3, aux_list=aux) <= \
            simulate("srrip", blocks, ways=3)


class TestTOPTMode:
    def test_regular_lines_fall_back_to_recency(self):
        p = BeladyOPT(irregular_only=True)
        lines = {}
        for tag in (1, 2):
            line = [0, 0, 0]
            p.on_fill(line, (0, False))   # regular line
            lines[tag] = line
        # Oracle-known irregular line with near-future reuse wins tenure.
        line3 = [0, 0, 0]
        p.on_fill(line3, (5, True))
        lines[3] = line3
        victim = p.victim(lines)
        assert victim in (1, 2)

    def test_far_future_irregular_evicted_before_regular(self):
        p = BeladyOPT(irregular_only=True)
        lines = {}
        line1 = [0, 0, 0]
        p.on_fill(line1, (BeladyOPT.NEVER, True))   # never reused
        lines[1] = line1
        line2 = [0, 0, 0]
        p.on_fill(line2, (0, False))
        lines[2] = line2
        assert p.victim(lines) == 1
