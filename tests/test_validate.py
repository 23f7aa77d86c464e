"""Tests for the repro.validate harness: invariant checks, the
periodic run-loop hook, and the differential pairs.

The multi-core differential tests pin the coherence walk with one core
to the single-core reference loop under every LLC policy and the PC-
aware L1 prefetcher; the invariant tests both exercise the checkers on
healthy systems and prove they actually fire on corrupted state.
"""

import dataclasses

import numpy as np
import pytest

from repro.config import CacheConfig, SDCDirConfig, SystemConfig, \
    scaled_config
from repro.core.multicore import MultiCoreSystem
from repro.core.sdcdir import SDCDirectory
from repro.core.system import SingleCoreSystem
from repro.mem.cache import SetAssocCache
from repro.trace.layout import AddressSpace
from repro.trace.record import ACCESS_DTYPE, Trace
from repro.validate import (DEFAULT_CHECK_INTERVAL, InvariantViolation,
                            check_interval, check_single_core_system)
from repro.validate.differential import (LLC_POLICIES,
                                         DifferentialMismatch,
                                         assert_stats_equal,
                                         diff_multicore1_vs_single)
from repro.validate.invariants import (check_cache_stats,
                                       check_lru_order,
                                       check_multicore_system,
                                       check_sdc_coherence,
                                       check_sdcdir_structure)


def mixed_trace(n=4000, seed=7, write_frac=0.25) -> Trace:
    """Half-sequential half-random synthetic trace (golden-trace shape,
    smaller)."""
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
    acc["write"] = rng.random(n) < write_frac
    acc["gap"] = 2
    acc["dep"] = -1
    return Trace(acc, space)


@pytest.fixture(scope="module")
def trace():
    return mixed_trace()


@pytest.fixture(scope="module")
def config():
    return scaled_config(64)


# ---------------------------------------------------------------------------
# check_interval / REPRO_VALIDATE parsing
# ---------------------------------------------------------------------------

class TestCheckInterval:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert check_interval(128) == 128

    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert check_interval() == 0

    def test_env_one_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert check_interval() == DEFAULT_CHECK_INTERVAL

    def test_env_n_is_interval(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "500")
        assert check_interval() == 500

    def test_env_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert check_interval() == 0

    def test_garbage_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "yes")
        assert check_interval() == DEFAULT_CHECK_INTERVAL


# ---------------------------------------------------------------------------
# Invariants pass on healthy systems and fire on corrupted state
# ---------------------------------------------------------------------------

class TestInvariantsOnHealthySystems:
    @pytest.mark.parametrize("variant",
                             ["baseline", "sdc_lp", "topt", "victim"])
    def test_single_core_run_with_checking(self, trace, config, variant):
        system = SingleCoreSystem(config, variant, check_every=512)
        system.run(trace)
        check_single_core_system(system)

    def test_multicore_run_with_checking(self, trace, config):
        cfg = dataclasses.replace(config, num_cores=2)
        system = MultiCoreSystem(cfg, "sdc_lp", check_every=512)
        system.run([trace, mixed_trace(seed=11)])
        check_multicore_system(system)

    def test_warmup_reset_suspends_ledger(self, trace, config):
        # A mid-run stat reset breaks fills-evictions-invalidations ==
        # occupancy; the system must flag it so the hook skips that law.
        system = SingleCoreSystem(config, "baseline", check_every=256)
        system.run(trace, warmup=1000)
        assert system._ledger_valid is False
        check_single_core_system(system)   # still passes, ledger skipped


class TestInvariantsFireOnCorruption:
    def test_lru_order_violation(self):
        cache = SetAssocCache(CacheConfig("t", 4 * 64, 4, 1, 4, "lru"))
        for b in range(3):
            cache.fill(b)
        # Swap two priorities so dict order is no longer recency order.
        lines = cache.sets[0]
        tags = list(lines)
        lines[tags[0]][0], lines[tags[1]][0] = \
            lines[tags[1]][0], lines[tags[0]][0]
        with pytest.raises(InvariantViolation) as exc:
            check_lru_order(cache, "t")
        assert exc.value.invariant == "lru-dict-order"

    def test_stats_conservation_violation(self):
        cache = SetAssocCache(CacheConfig("t", 4 * 64, 4, 1, 4, "lru"))
        cache.access(1, False)
        cache.stats.hits += 1          # forge a hit out of thin air
        with pytest.raises(InvariantViolation) as exc:
            check_cache_stats(cache, "t")
        assert exc.value.invariant == "stats-conservation"

    def test_fill_ledger_violation(self):
        cache = SetAssocCache(CacheConfig("t", 4 * 64, 4, 1, 4, "lru"))
        cache.fill(1)
        del cache.sets[0][cache._split(1)[1]]     # drop behind the stats
        with pytest.raises(InvariantViolation) as exc:
            check_cache_stats(cache, "t")
        assert exc.value.invariant == "fill-ledger"

    def test_sdc_subset_violation(self, config):
        system = SingleCoreSystem(config, "sdc_lp")
        system.sdc.fill(42)            # resident but never registered
        with pytest.raises(InvariantViolation) as exc:
            check_sdc_coherence([system.sdc], system.sdcdir,
                                [system.hierarchy], system.hierarchy.llc)
        assert exc.value.invariant == "sdc-subset"

    def test_sdc_dirty_owner_violation(self, config):
        system = SingleCoreSystem(config, "sdc_lp")
        system.sdcdir.insert(42, 0, dirty=True)
        system.sdc.fill(42, dirty=False)   # directory says owner, line clean
        with pytest.raises(InvariantViolation) as exc:
            check_sdc_coherence([system.sdc], system.sdcdir,
                                [system.hierarchy], system.hierarchy.llc)
        assert exc.value.invariant == "sdc-dirty-owner"

    def test_hierarchy_dirty_exclusive_violation(self, config):
        system = SingleCoreSystem(config, "sdc_lp")
        system.sdcdir.insert(42, 0, dirty=False)
        system.sdc.fill(42)
        system.hierarchy.l2c.fill(42, dirty=True)   # stale SDC duplicate
        with pytest.raises(InvariantViolation) as exc:
            check_sdc_coherence([system.sdc], system.sdcdir,
                                [system.hierarchy], system.hierarchy.llc)
        assert exc.value.invariant == "hierarchy-dirty-exclusive"

    def test_sdcdir_occupancy_violation(self):
        d = SDCDirectory(SDCDirConfig(entries_per_core=8, ways=2))
        d.sets[0][1] = [1, -1, 1]
        d.sets[0][2] = [1, -1, 2]
        d.sets[0][3] = [1, -1, 3]      # 3 entries in a 2-way set
        with pytest.raises(InvariantViolation) as exc:
            check_sdcdir_structure(d)
        assert exc.value.invariant == "sdcdir-occupancy"

    def test_hook_fires_during_run(self, trace, config):
        system = SingleCoreSystem(config, "sdc_lp", check_every=64)

        original = system.sdc.fill
        calls = {"n": 0}

        def sabotage(block, **kw):
            calls["n"] += 1
            if calls["n"] == 20:
                # Install a line the SDCDir never hears about.
                return original(block + 9999, **kw)
            return original(block, **kw)

        system.sdc.fill = sabotage
        with pytest.raises(InvariantViolation) as exc:
            system.run(trace)
        assert "access" in exc.value.context

    def test_violation_carries_context(self):
        err = InvariantViolation("demo", "something broke",
                                 {"access": 7, "block": 42})
        assert err.invariant == "demo"
        assert err.context["access"] == 7
        assert "block" in str(err)


# ---------------------------------------------------------------------------
# Differential pairs: implementations that must agree, bit-for-bit
# ---------------------------------------------------------------------------

def stride_trace(n=4000) -> Trace:
    """Two interleaved PCs striding 3 and 5 blocks through one region:
    an IP-stride prefetcher that sees the PCs learns both strides, one
    that sees a single global stream learns neither."""
    space = AddressSpace()
    region = space.add("strided", 64, 1 << 16)
    k = np.arange(n) // 2
    acc = np.zeros(n, dtype=ACCESS_DTYPE)
    acc["addr"] = region.addr(np.where(np.arange(n) % 2 == 0,
                                       3 * k, (1 << 15) + 5 * k))
    acc["pc"] = np.where(np.arange(n) % 2 == 0, 0x400010, 0x400020)
    acc["gap"] = 1
    acc["dep"] = -1
    return Trace(acc, space)


def stride_config():
    cfg = scaled_config(16)
    return dataclasses.replace(
        cfg, l1d=dataclasses.replace(cfg.l1d, prefetcher="stride"))


#: (variant, LLC policy) pairs for the multi-core twin; the LRU cases
#: keep their historical ids.
MULTICORE_CASES = [
    pytest.param(v, p, id=v if p == "lru" else f"{v}-{p}")
    for p in LLC_POLICIES for v in ("baseline", "sdc_lp")
] + [pytest.param("topt", "lru", id="topt")]


class TestDifferentialPairs:
    @pytest.mark.parametrize("variant,policy", MULTICORE_CASES)
    def test_multicore1_vs_single(self, trace, config, variant, policy):
        cfg = dataclasses.replace(config, llc=dataclasses.replace(
            config.llc, replacement=policy))
        single, multi = diff_multicore1_vs_single(trace, cfg, variant)
        assert single.cycles == multi.cycles

    @pytest.mark.parametrize("variant", ["baseline", "sdc_lp"])
    def test_multicore1_vs_single_stride_prefetcher(self, variant):
        # Regression: the multi-core walk called the L1 prefetcher
        # without the PC, so IP-stride saw one global stream there.
        diff_multicore1_vs_single(stride_trace(), stride_config(), variant)

    def test_multicore1_vs_single_without_sdc_prefetcher(self, trace,
                                                         config):
        # Regression: the multi-core SDC prefetcher ignored
        # ``sdc.prefetcher is None`` and kept prefetching, so a 1-core
        # system diverged from the single-core one under that config.
        cfg = dataclasses.replace(
            config, sdc=dataclasses.replace(config.sdc, prefetcher=None))
        diff_multicore1_vs_single(trace, cfg, "sdc_lp")

    def test_mismatch_is_reported(self, trace, config):
        a = SingleCoreSystem(config, "baseline").run(trace)
        b = SingleCoreSystem(config, "baseline").run(trace)
        b = dataclasses.replace(b, cycles=b.cycles + 1)
        with pytest.raises(DifferentialMismatch) as exc:
            assert_stats_equal(a, b, "forged")
        assert "cycles" in str(exc.value)


# ---------------------------------------------------------------------------
# Non-pow2 geometries, end to end
# ---------------------------------------------------------------------------

def confined_trace(n=3000, seed=3, modulus=48, residues=6) -> Trace:
    """Blocks confined to residues [0, residues) mod ``modulus``.

    48 is a common multiple of the set counts used below (6, 8, 12, 16),
    so any two such blocks collide in the 6-set cache iff they collide
    in the padded 8-set one (and likewise 12 vs 16) — the two runs see
    identical per-set streams and must behave identically.
    """
    space = AddressSpace()
    region = space.add("blocks", 64, 1 << 16)
    rng = np.random.default_rng(seed)
    acc = np.zeros(n, dtype=ACCESS_DTYPE)
    idx = (rng.integers(0, 40, size=n) * modulus
           + rng.integers(0, residues, size=n))
    acc["addr"] = region.addr(idx)
    acc["pc"] = 0x400100
    acc["write"] = rng.random(n) < 0.3
    acc["gap"] = 1
    acc["dep"] = -1
    return Trace(acc, space)


class TestNonPow2EndToEnd:
    def test_non_pow2_matches_padded_divmod(self, config):
        def with_sets(c, sets):
            return c.resized(sets * c.ways * c.block_size)

        cfg_np = dataclasses.replace(config,
                                     l1d=with_sets(config.l1d, 6),
                                     l2c=with_sets(config.l2c, 12))
        cfg_p2 = dataclasses.replace(config,
                                     l1d=with_sets(config.l1d, 8),
                                     l2c=with_sets(config.l2c, 16))
        trace = confined_trace()
        # Prefetching is off: a next-line candidate crosses residue
        # classes, which would legitimately differ between geometries.
        sys_np = SingleCoreSystem(cfg_np, "baseline",
                                  enable_prefetch=False)
        a = sys_np.run(trace, record_levels=True)

        sys_p2 = SingleCoreSystem(cfg_p2, "baseline", enable_prefetch=False)
        b = sys_p2.run(trace, record_levels=True)

        np.testing.assert_array_equal(a.levels, b.levels)
        assert a.cycles == b.cycles
        assert dataclasses.asdict(a.dram) == dataclasses.asdict(b.dram)

    def test_non_pow2_run_under_checking(self, config):
        def with_sets(c, sets):
            return c.resized(sets * c.ways * c.block_size)

        cfg = dataclasses.replace(config, l1d=with_sets(config.l1d, 6),
                                  l2c=with_sets(config.l2c, 12))
        system = SingleCoreSystem(cfg, "baseline", check_every=128)
        system.run(confined_trace(n=1500))
        check_single_core_system(system)
