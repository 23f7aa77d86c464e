"""Single-core system: routes a trace through one design variant.

Variants (paper §IV-E):

* ``baseline``  — conventional L1D/L2C/LLC hierarchy (Table I).
* ``sdc_lp``    — the proposal: LP routes irregular accesses to the SDC,
  whose misses bypass L2C/LLC straight to DRAM (§III).
* ``topt``      — T-OPT: trace-exact Belady replacement at the LLC for
  irregular-region lines (DESIGN.md substitution #4).
* ``distill``   — Distill Cache LLC (LOC + WOC).
* ``l1iso``     — L1D enlarged to 40 KiB / 10-way (iso-storage with SDC).
* ``llc2x``     — LLC with doubled set count.
* ``expert``    — Expert Programmer: per-data-structure routing to the
  SDC from profiled DRAM fractions (no LP).

Ablations beyond the paper's comparison set:

* ``victim``    — L1D victim cache (Jouppi [27]) holding L1 evictions,
  iso-storage with the SDC; probes on L1 misses, swap on hit.
* ``lp_bypass`` — LP routing *without* the SDC: irregular accesses skip
  the L2C/LLC lookups and go straight to DRAM but get no side storage
  (isolates the bypass benefit from the SDC's caching benefit).
* ``sdc_clp``   — the SDC fronted by a cache-level predictor
  (:mod:`repro.core.clp`, per Jalili & Erez) instead of the LP: PCs
  are routed by the hierarchy level that has been serving them.
* ``sdc_lp_tagless`` — the tag-less/larger-table LP ablation: the LP's
  tag bits buy a 4x larger direct-mapped table whose slots alias
  across PCs (:func:`repro.config.tagless_lp_config`).

Single-valid-copy coherence between the SDC and the hierarchy is
enforced by the SDCDir exactly as §III-C describes: a block entering
the SDC is extracted from the hierarchy and vice versa.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.config import BLOCK_BITS, SystemConfig, tagless_lp_config
from repro.core.batch import resolve_backend, try_run_batch
from repro.core.clp import CacheLevelPredictor
from repro.core.lp import LargePredictor, LPStats
from repro.core.sdcdir import SDCDirectory
from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.distill import DistillCache
from repro.mem.dram import DRAMStats
from repro.mem.hierarchy import (DRAM, L1D, L2C, LLC, SDC_LEVEL,
                                 MemoryHierarchy)
from repro.mem.replacement import BeladyOPT
from repro.mem.timing import CoreTimer
from repro.mem.tlb import PAGE_BITS, TLBHierarchy, TLBStats
from repro.telemetry import telemetry_interval
from repro.telemetry.probes import (Timeline, WindowProbe,
                                    single_core_snapshot)
from repro.trace.record import Trace
from repro.validate import check_interval
from repro.validate.invariants import check_single_core_system

VARIANTS = ("baseline", "sdc_lp", "topt", "distill", "l1iso", "llc2x",
            "expert", "victim", "lp_bypass", "sdc_clp", "sdc_lp_tagless")

#: Variants that pair an SDC with the conventional hierarchy.
SDC_VARIANTS = ("sdc_lp", "expert", "sdc_clp", "sdc_lp_tagless")

NEVER = BeladyOPT.NEVER


@dataclass
class SystemStats:
    """Aggregate results of one simulation run."""

    variant: str
    instructions: int
    cycles: float
    l1d: CacheStats
    l2c: CacheStats
    llc: CacheStats
    sdc: CacheStats | None
    dram: DRAMStats
    lp: LPStats | None
    levels: np.ndarray | None = None     # per-access serving level codes
    tlb: TLBStats | None = None
    timeline: Timeline | None = None     # windowed metrics (telemetry)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def mpki(self, cache: str) -> float:
        stats = getattr(self, cache)
        if stats is None:
            return 0.0
        return stats.mpki(self.instructions)

    @property
    def l1_family_mpki(self) -> float:
        """Combined first-level MPKI: L1D plus SDC (Fig. 9's right bars)."""
        m = self.l1d.misses + (self.sdc.misses if self.sdc else 0)
        return 1000.0 * m / self.instructions if self.instructions else 0.0

    def to_payload(self) -> dict:
        """Lossless JSON-friendly serialization (for the result cache).

        Per-access ``levels`` arrays are intentionally unsupported:
        results recorded with ``record_levels=True`` are not cacheable.
        """
        if self.levels is not None:
            raise ValueError("SystemStats with per-access levels cannot "
                             "be serialized to a cache payload")
        return {
            "variant": self.variant,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "l1d": dataclasses.asdict(self.l1d),
            "l2c": dataclasses.asdict(self.l2c),
            "llc": dataclasses.asdict(self.llc),
            "sdc": dataclasses.asdict(self.sdc) if self.sdc else None,
            "dram": dataclasses.asdict(self.dram),
            "lp": dataclasses.asdict(self.lp) if self.lp else None,
            "tlb": dataclasses.asdict(self.tlb) if self.tlb else None,
            "timeline": (self.timeline.to_payload()
                         if self.timeline is not None else None),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SystemStats":
        """Inverse of :meth:`to_payload`."""
        def opt(key, factory):
            d = payload.get(key)
            return factory(**d) if d is not None else None

        return cls(
            variant=payload["variant"],
            instructions=payload["instructions"],
            cycles=payload["cycles"],
            l1d=CacheStats(**payload["l1d"]),
            l2c=CacheStats(**payload["l2c"]),
            llc=CacheStats(**payload["llc"]),
            sdc=opt("sdc", CacheStats),
            dram=DRAMStats(**payload["dram"]),
            lp=opt("lp", LPStats),
            tlb=opt("tlb", TLBStats),
            timeline=(Timeline.from_payload(payload["timeline"])
                      if payload.get("timeline") is not None else None),
        )

    def as_dict(self) -> dict:
        """Flat JSON-friendly summary (no per-access arrays)."""
        out = {
            "variant": self.variant,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "dram_reads": self.dram.reads,
            "dram_writes": self.dram.writes,
        }
        for cache in ("l1d", "l2c", "llc", "sdc"):
            cs = getattr(self, cache)
            if cs is None:
                continue
            out[f"{cache}_accesses"] = cs.accesses
            out[f"{cache}_misses"] = cs.misses
            out[f"{cache}_mpki"] = self.mpki(cache)
        if self.lp is not None:
            out["lp_irregular"] = self.lp.predicted_irregular
            out["lp_lookups"] = self.lp.lookups
        if self.tlb is not None:
            out["tlb_walks"] = self.tlb.walks
        return out


def variant_config(config: SystemConfig, variant: str) -> SystemConfig:
    """Apply a variant's structural changes to the base configuration."""
    if variant == "l1iso":
        # +2 ways: 32 KiB 8-way -> 40 KiB 10-way (paper: +8 KiB, the SDC
        # budget, as extra associativity).
        l1 = config.l1d
        return dataclasses.replace(config, l1d=l1.resized(
            l1.size_bytes * 10 // 8, ways=l1.ways + 2))
    if variant == "llc2x":
        llc = config.llc
        return dataclasses.replace(config, llc=llc.resized(
            llc.size_bytes * 2))
    if variant == "sdc_lp_tagless":
        return dataclasses.replace(config,
                                   lp=tagless_lp_config(config.lp))
    return config


def irregular_access_mask(trace: Trace) -> np.ndarray:
    """Boolean mask of accesses falling in irregular-annotated regions."""
    space = trace.address_space
    rids = space.classify_addresses(trace.accesses["addr"].astype(np.int64))
    names = list(space.regions)
    irr_ids = [i for i, name in enumerate(names)
               if space.regions[name].irregular_hint]
    return np.isin(rids, irr_ids)


def next_use_indices(blocks: np.ndarray) -> np.ndarray:
    """For each access, the index of the next access to the same block
    (``NEVER`` when none) — the oracle feed for Belady/T-OPT."""
    n = len(blocks)
    order = np.lexsort((np.arange(n), blocks))
    sb = blocks[order]
    nxt = np.full(n, NEVER, dtype=np.int64)
    same = sb[1:] == sb[:-1]
    nxt[order[:-1][same]] = order[1:][same]
    return nxt


# -- per-trace aux memoization ------------------------------------------------
# The aux feeds (next-use oracle, irregularity masks, distill word
# indices) are pure functions of the trace, but short-window runs used
# to recompute them on every run() call, dominating startup cost.  They
# are memoized on the trace object itself so the cache lives exactly as
# long as the trace and both backends share one copy.

def _trace_aux_memo(trace: Trace) -> dict:
    memo = getattr(trace, "_aux_cache", None)
    if memo is None:
        memo = {}
        trace._aux_cache = memo
    return memo


def topt_aux_arrays(trace: Trace, blocks: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Memoized ``(next_use_indices, irregular_access_mask)`` arrays."""
    memo = _trace_aux_memo(trace)
    out = memo.get("topt")
    if out is None:
        if blocks is None:
            blocks = (trace.accesses["addr"] >> BLOCK_BITS).astype(np.int64)
        out = (next_use_indices(blocks), irregular_access_mask(trace))
        memo["topt"] = out
    return out


def distill_aux_words(trace: Trace) -> np.ndarray:
    """Memoized word-within-block indices (8 B words) per access."""
    memo = _trace_aux_memo(trace)
    out = memo.get("distill")
    if out is None:
        out = ((trace.accesses["addr"] >> 3) & 7).astype(np.int64)
        memo["distill"] = out
    return out


def expert_block_mask(trace: Trace, regions: set[int]) -> np.ndarray:
    """Memoized per-access mask of the expert-routed regions."""
    memo = _trace_aux_memo(trace)
    key = ("expert", frozenset(regions))
    out = memo.get(key)
    if out is None:
        space = trace.address_space
        rids = space.classify_addresses(
            trace.accesses["addr"].astype(np.int64))
        out = np.isin(rids, list(regions))
        memo[key] = out
    return out


SPENT_MESSAGE = (
    "this system is spent: it ran on the batch kernel, which returns "
    "only the stats and keeps no Python state; build a new system, and "
    "run it with backend=\"ref\" to inspect its structures or run it "
    "again")


class _Spent:
    """Stands in for every structure of a system that ran on the
    kernel: reading any attribute raises instead of returning state
    the kernel never wrote back."""

    __slots__ = ()

    def __getattr__(self, name):
        raise RuntimeError(SPENT_MESSAGE)


SPENT = _Spent()


class SingleCoreSystem:
    """One core, one trace, one design variant."""

    #: The structures a kernel run replaces with :data:`SPENT`.
    STRUCTURES = ("hierarchy", "tlb", "sdc", "lp", "clp", "sdcdir",
                  "victim")

    def __init__(self, config: SystemConfig | None = None,
                 variant: str = "baseline",
                 expert_regions: set[int] | None = None,
                 enable_prefetch: bool = True,
                 enable_tlb: bool = True,
                 check_every: int | None = None,
                 telemetry_every: int | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; "
                             f"choose from {VARIANTS}")
        self.variant = variant
        # Invariant checking (repro.validate): 0 = off.  Resolved once
        # here from the argument or REPRO_VALIDATE so the run loop pays
        # a single falsy test per access when disabled.
        self._check_every = check_interval(check_every)
        # Windowed telemetry (repro.telemetry): 0 = off, same contract.
        self._telemetry_every = telemetry_interval(telemetry_every)
        self._ledger_valid = True
        base = config or SystemConfig()
        self.config = variant_config(base, variant)
        self.expert_regions = expert_regions or set()
        if variant == "expert" and expert_regions is None:
            raise ValueError("expert variant needs expert_regions "
                             "(see repro.core.expert.classify_regions)")

        llc_policy = None
        llc = None
        if variant == "topt":
            llc_policy = BeladyOPT(irregular_only=True)
        elif variant == "distill":
            llc = DistillCache(self.config.llc)
        self.hierarchy = MemoryHierarchy(self.config, llc_policy=llc_policy,
                                         llc=llc,
                                         enable_prefetch=enable_prefetch)
        self.tlb = TLBHierarchy() if enable_tlb else None

        self.has_sdc = variant in SDC_VARIANTS
        self.sdc: SetAssocCache | None = None
        self.lp: LargePredictor | None = None
        self.clp: CacheLevelPredictor | None = None
        self.sdcdir: SDCDirectory | None = None
        if self.has_sdc:
            self.sdc = SetAssocCache(self.config.sdc)
            self.sdcdir = SDCDirectory(self.config.sdcdir, num_cores=1)
            if variant in ("sdc_lp", "sdc_lp_tagless"):
                self.lp = LargePredictor(self.config.lp)
            elif variant == "sdc_clp":
                self.clp = CacheLevelPredictor(self.config.clp)
        elif variant == "lp_bypass":
            self.lp = LargePredictor(self.config.lp)

        self.victim: SetAssocCache | None = None
        if variant == "victim":
            # Fully-associative, iso-storage with the SDC, 1-cycle probe.
            vc_blocks = max(1, self.config.sdc.num_blocks)
            self.victim = SetAssocCache(dataclasses.replace(
                self.config.sdc, name="VC", ways=vc_blocks,
                size_bytes=vc_blocks * self.config.sdc.block_size,
                prefetcher=None))

    # -- SDC plumbing -------------------------------------------------------
    def _sdc_fill(self, block: int, dirty: bool) -> None:
        """Install a block in the SDC, maintaining the SDCDir subset
        invariant and single-valid-copy."""
        sdc, sdcdir = self.sdc, self.sdcdir
        displaced = sdcdir.insert(block, 0, dirty)
        if displaced is not None:
            # SDCDir eviction invalidates the SDC copy (§III-C).  Either
            # dirty flag (the line's bit or the directory's recorded
            # owner) obliges a writeback.
            was, was_dirty = sdc.invalidate(displaced[0])
            if (was and was_dirty) or displaced[2] == 0:
                self.hierarchy.dram.write(displaced[0])
        evicted = sdc.fill(block, dirty=dirty)
        if evicted is not None:
            ev_block, ev_dirty = evicted
            # The departing line's dirty bit and the directory's dirty
            # ownership must agree; honour either so a writeback can
            # never be lost to a stale flag on one side.
            _, was_owner = sdcdir.remove_sharer(ev_block, 0)
            if ev_dirty or was_owner:
                self.hierarchy.dram.write(ev_block)

    def _sdc_prefetch(self, block: int) -> None:
        """Next-line prefetch into the SDC (Table I; disabled when the
        SDC prefetcher config is None), avoiding duplicates of blocks
        live in the hierarchy."""
        sdc = self.sdc
        if self.config.sdc.prefetcher is None:
            return
        if sdc.contains(block) or self.hierarchy.contains(block):
            return
        displaced = self.sdcdir.insert(block, 0, False)
        if displaced is not None:
            was, was_dirty = sdc.invalidate(displaced[0])
            if (was and was_dirty) or displaced[2] == 0:
                self.hierarchy.dram.write(displaced[0])
        evicted = sdc.fill(block, prefetch=True)
        if evicted is not None:
            ev_block, ev_dirty = evicted
            _, was_owner = self.sdcdir.remove_sharer(ev_block, 0)
            if ev_dirty or was_owner:
                self.hierarchy.dram.write(ev_block)

    def _access_via_sdc(self, block: int, write: bool) -> tuple[int, int]:
        """Irregular path: SDC, then directory + DRAM (bypassing L2C/LLC).

        Coherence follows §III-C: clean blocks may be duplicated between
        the SDC and the hierarchy; a write claims the single valid copy
        by invalidating the others.  Returns (level_code, latency).
        """
        sdc = self.sdc
        h = self.hierarchy
        latency = sdc.latency
        if sdc.access(block, write):
            if write:
                self.sdcdir.mark_dirty(block, 0)
                # Clean duplicates in the hierarchy become stale.
                h.extract(block)
            # Next-line prefetch fires on SDC demand accesses.
            self._sdc_prefetch(block + 1)
            return SDC_LEVEL, latency
        # Miss: lightweight coherence message to the directory (§III-A).
        # A pure probe — it must not bump the entry's recency, or a
        # stream of misses to a dead block would keep its stale SDCDir
        # entry alive and skew victim selection.
        latency += self.config.sdc_miss_dir_latency
        self.sdcdir.lookup(block, touch=False)
        if write:
            present, probe_lat = h.extract(block)
            if present:
                latency += probe_lat
                self._sdc_fill(block, dirty=True)
                self._sdc_prefetch(block + 1)
                return L2C, latency
        else:
            served_lat = self._probe_hierarchy_clean(block)
            if served_lat is not None:
                # Served by the hierarchy; the SDC takes a clean copy
                # while the (now clean) hierarchy copy stays valid.
                latency += served_lat
                self._sdc_fill(block, dirty=False)
                self._sdc_prefetch(block + 1)
                return L2C, latency
        latency += h.dram.read(block)
        self._sdc_fill(block, dirty=write)
        self._sdc_prefetch(block + 1)
        return DRAM, latency

    def _probe_hierarchy_clean(self, block: int) -> int | None:
        """Non-destructive read probe of L1D/L2C/LLC: returns the probe
        latency of the shallowest level holding a copy, else None.

        Every resident copy is cleaned (single writeback when any level
        was dirty), not just the serving one: the block may live at
        several levels with the dirty bit at a deeper one (e.g. clean
        refetch into the L1 above a dirty L2 line), and a copy left
        dirty below a clean shared SDC copy breaks single-valid-copy.
        """
        h = self.hierarchy
        serve_latency = None
        was_dirty = False
        for cache in (h.l1d, h.l2c, h.llc):
            if cache.contains(block):
                if serve_latency is None:
                    serve_latency = cache.latency
                if cache.clear_dirty(block):
                    was_dirty = True
        if was_dirty:
            h.dram.write(block)
        return serve_latency

    def _access_regular_with_sdc(self, block: int, write: bool, aux,
                                 pc: int) -> tuple[int, int]:
        """Regular path when an SDC exists: the SDCDir is probed in
        parallel with the L2C on an L1D miss; an SDC-resident block is
        transferred back into the L1D."""
        h = self.hierarchy
        l1d = h.l1d
        sdc = self.sdc
        latency = l1d.latency
        l1_hit = l1d.access(block, write)
        for pf in h.l1_prefetches(block, l1_hit, pc):
            if not l1d.contains(pf) and not sdc.contains(pf):
                h._fill_l1(pf, prefetch=True)
        if l1_hit:
            # A write claims the single valid copy (§III-C): a clean
            # duplicate the SDC may hold (left by an earlier shared
            # read) is now stale and must be dropped.
            if write and sdc.invalidate(block)[0]:
                self.sdcdir.remove_sharer(block, 0)
            return L1D, latency
        if sdc.contains(block):
            # Parallel SDCDir hit: serve from the SDC.  A read leaves a
            # clean duplicate in the SDC (§III-C allows shared clean
            # copies); a write claims exclusivity.
            latency += max(h.l2c.latency, sdc.latency +
                           self.sdcdir.latency)
            if write:
                # Dirty ownership (if any) transfers with the data into
                # the L1 fill below (dirty=True), so the dropped
                # remove_sharer ownership flag incurs no writeback here.
                sdc.invalidate(block)
                self.sdcdir.remove_sharer(block, 0)
                h._fill_l1(block, dirty=True)
            else:
                if sdc.clear_dirty(block):
                    # The SDC copy was cleaned and written back; the
                    # directory's dirty ownership must drop with it or a
                    # later eviction double-counts the writeback.
                    self.sdcdir.clear_dirty(block)
                    h.dram.write(block)
                h._fill_l1(block, dirty=False)
            return SDC_LEVEL, latency

        # Continue the conventional walk below the L1D.
        latency += h.l2c.latency
        l2_hit = h.l2c.access(block, False)
        if h.l2_prefetcher is not None:
            for pf in h.l2_prefetcher.on_access(block, l2_hit):
                if not h.l2c.contains(pf) and not sdc.contains(pf):
                    h._fill_l2(pf, prefetch=True)
        if l2_hit:
            h._fill_l1(block, dirty=write)
            return L2C, latency
        latency += h.llc.latency
        if h.llc.access(block, False, aux=aux):
            h._fill_l2(block)
            h._fill_l1(block, dirty=write)
            return LLC, latency
        latency += h.dram.read(block)
        h._fill_llc(block, aux=aux)
        h._fill_l2(block)
        h._fill_l1(block, dirty=write)
        return DRAM, latency

    # -- ablation paths ------------------------------------------------------
    def _fill_l1_victim(self, block: int, dirty: bool = False,
                        prefetch: bool = False) -> None:
        """L1 fill whose evictions land in the victim cache (Jouppi)."""
        evicted = self.hierarchy.l1d.fill(block, dirty=dirty,
                                          prefetch=prefetch)
        if evicted is not None:
            vev = self.victim.fill(evicted[0], dirty=evicted[1])
            if vev is not None and vev[1]:
                self.hierarchy._writeback_to_l2(vev[0])

    def _access_victim(self, block: int, write: bool, aux, pc: int
                       ) -> tuple[int, int]:
        h = self.hierarchy
        latency = h.l1d.latency
        l1_hit = h.l1d.access(block, write)
        for pf in h.l1_prefetches(block, l1_hit, pc):
            if not h.l1d.contains(pf) and not self.victim.contains(pf):
                self._fill_l1_victim(pf, prefetch=True)
        if l1_hit:
            return L1D, latency
        latency += self.victim.latency
        if self.victim.access(block, write):
            # Swap the line back into the L1D.
            _, vdirty = self.victim.invalidate(block)
            self._fill_l1_victim(block, dirty=write or vdirty)
            return SDC_LEVEL, latency
        latency += h.l2c.latency
        l2_hit = h.l2c.access(block, False)
        if h.l2_prefetcher is not None:
            for pf in h.l2_prefetcher.on_access(block, l2_hit):
                if not h.l2c.contains(pf):
                    h._fill_l2(pf, prefetch=True)
        if l2_hit:
            self._fill_l1_victim(block, dirty=write)
            return L2C, latency
        latency += h.llc.latency
        if h.llc.access(block, False, aux=aux):
            h._fill_l2(block)
            self._fill_l1_victim(block, dirty=write)
            return LLC, latency
        latency += h.dram.read(block)
        h._fill_llc(block, aux=aux)
        h._fill_l2(block)
        self._fill_l1_victim(block, dirty=write)
        return DRAM, latency

    def _access_lp_bypass(self, block: int, write: bool, pc: int
                          ) -> tuple[int, int]:
        """Irregular path of the SDC-less ablation: skip the L2C/LLC
        lookups, go to DRAM after a directory check, fill only the L1D."""
        h = self.hierarchy
        latency = h.l1d.latency
        l1_hit = h.l1d.access(block, write)
        for pf in h.l1_prefetches(block, l1_hit, pc):
            if not h.l1d.contains(pf):
                h._fill_l1(pf, prefetch=True)
        if l1_hit:
            return L1D, latency
        latency += self.config.sdc_miss_dir_latency
        # The directory still finds copies below; serve them if present.
        if h.l2c.contains(block):
            latency += h.l2c.latency
            h.l2c.access(block, False)
            h._fill_l1(block, dirty=write)
            return L2C, latency
        if h.llc.contains(block):
            latency += h.llc.latency
            h.llc.access(block, False)
            h._fill_l1(block, dirty=write)
            return LLC, latency
        latency += h.dram.read(block)
        h._fill_l1(block, dirty=write)
        return DRAM, latency

    # -- main loop -----------------------------------------------------------
    def spend(self) -> None:
        """Replace every structure with :data:`SPENT` after a kernel
        run, which kept its state in the kernel's own buffers."""
        for name in self.STRUCTURES:
            if getattr(self, name) is not None:
                setattr(self, name, SPENT)

    def check_not_spent(self) -> None:
        """Raise if a kernel run has spent this system."""
        if self.hierarchy is SPENT:
            raise RuntimeError(SPENT_MESSAGE)

    def run(self, trace: Trace, record_levels: bool = False,
            warmup: int = 0, flush_sdc_every: int | None = None,
            backend: str | None = None) -> SystemStats:
        """Simulate a trace; ``warmup`` leading accesses touch state but
        are excluded from the timing/stat windows (paper §IV-C).

        ``flush_sdc_every`` models a hypothetical non-VIPT SDC that must
        be flushed on context switches (every N accesses): dirty SDC
        lines write back and the LP table clears.  §III-E argues the
        real SDC is VIPT and needs no flush; the context-switch study
        quantifies what that property is worth.

        ``backend`` picks the execution engine behind this seam:
        ``"ref"`` is the reference Python loop below, ``"batch"`` the
        compiled structure-of-arrays kernel (:mod:`repro.core.batch`),
        bit-identical by construction.  ``None`` defers to the
        ``REPRO_BACKEND`` environment variable (default ``batch``);
        ``"ref"`` pins the reference loop.  The batch backend falls
        back here whenever the run is outside its supported envelope
        (no compiler, invariant checking armed, exotic policies, warm
        state — see ``repro.core.batch.backend.unsupported_reason``),
        and counts the refusal in
        ``repro.core.batch.fallback_counts``; a kernel error raises
        ``repro.core.batch.KernelError``.

        A kernel run returns the stats and keeps no Python state: it
        leaves the system spent, each structure replaced by
        :data:`SPENT`, so reading one or running again raises.  The
        reference loop keeps its state in place, so a system run with
        ``backend="ref"`` stays inspectable and a later run continues
        from it.
        """
        self.check_not_spent()
        if resolve_backend(backend) == "batch":
            stats = try_run_batch(self, trace, record_levels=record_levels,
                                  warmup=warmup,
                                  flush_sdc_every=flush_sdc_every)
            if stats is not None:
                return stats
        records = trace.accesses.tolist()
        n = len(records)
        aux_list = self._precompute_aux(trace, self.variant, self.config)
        if aux_list is None:
            aux_list = [None] * n
        expert_irr = (self._expert_block_classifier(trace,
                                                    self.expert_regions)
                      if self.variant == "expert" else None)
        levels = np.zeros(n, dtype=np.uint8) if record_levels else None
        completions = [0.0] * n
        timer = self._new_timer()
        stats_reset_at = min(warmup, n)
        check_every = self._check_every
        tele_every = self._telemetry_every
        probe = WindowProbe(tele_every,
                            lambda: single_core_snapshot(self, timer)) \
            if tele_every else None

        for i, ((pc, addr, write, gap, dep), aux) in enumerate(
                zip(records, aux_list)):
            if flush_sdc_every and i and i % flush_sdc_every == 0:
                self._flush_sdc_state()
            if warmup and i == stats_reset_at:
                self._reset_stats()
                timer = self._new_timer()
                if probe is not None:
                    # Discard warm-up windows; the timeline measures
                    # the same window the stats do (paper §IV-C).
                    probe = WindowProbe(
                        tele_every,
                        lambda: single_core_snapshot(self, timer))
            block = addr >> BLOCK_BITS
            tlb_latency = self.tlb.translate_page(addr >> PAGE_BITS) \
                if self.tlb is not None else 0

            pool = 0
            if self.has_sdc:
                if expert_irr is not None:
                    irregular = expert_irr[i]
                elif self.clp is not None:
                    irregular = self.clp.predict(pc)
                else:
                    irregular = self.lp.predict_and_update(pc, block)
                if irregular:
                    level, latency = self._access_via_sdc(block, write)
                    pool = 1            # SDC's own MSHR file (Table I)
                else:
                    level, latency = self._access_regular_with_sdc(
                        block, write, aux, pc)
                if self.clp is not None:
                    self.clp.update(pc, level)
            elif self.victim is not None:
                level, latency = self._access_victim(block, write, aux, pc)
            elif self.variant == "lp_bypass" \
                    and self.lp.predict_and_update(pc, block):
                level, latency = self._access_lp_bypass(block, write, pc)
            else:
                level, latency = self.hierarchy.access(block, write, aux,
                                                       pc)

            completions[i] = timer.access(
                gap, latency + tlb_latency,
                completions[dep] if dep >= 0 else None, pool)
            if levels is not None:
                levels[i] = level
            if tele_every and (i + 1 - stats_reset_at) % tele_every == 0:
                probe.sample()
            if check_every and (i + 1) % check_every == 0:
                check_single_core_system(self, {
                    "access": i, "pc": pc, "block": block,
                    "level": level})

        if check_every and n:
            check_single_core_system(self, {"access": n - 1,
                                            "position": "end-of-run"})
        h = self.hierarchy
        return SystemStats(
            variant=self.variant,
            instructions=timer.instructions,
            cycles=timer.cycles,
            l1d=h.l1d.stats,
            l2c=h.l2c.stats,
            llc=h.llc.stats,
            sdc=self.sdc.stats if self.sdc else None,
            dram=h.dram.stats,
            lp=(self.lp.stats if self.lp else
                self.clp.stats if self.clp is not None else None),
            levels=levels,
            tlb=self.tlb.stats if self.tlb else None,
            timeline=probe.timeline() if probe is not None else None)

    # -- helpers ---------------------------------------------------------------
    def _new_timer(self) -> CoreTimer:
        return CoreTimer(self.config.core, self.config.l1d.mshr_entries,
                         self.config.l1d.latency,
                         sdc_mshr_entries=self.config.sdc.mshr_entries)

    @staticmethod
    def _precompute_aux(trace: Trace, variant: str, config: SystemConfig):
        """Per-access aux values for the LLC policy of a variant under a
        config (None when the policy takes none); the single- and the
        multi-core loop both read them from here.

        Memoized per trace identity (see ``_trace_aux_memo``) — the aux
        feeds are pure trace functions and dominated short-run startup.
        """
        memo = _trace_aux_memo(trace)
        if variant == "topt":
            lst = memo.get("topt_list")
            if lst is None:
                nxt, irr = topt_aux_arrays(trace)
                lst = list(zip(nxt.tolist(), irr.tolist()))
                memo["topt_list"] = lst
            return lst
        if variant == "distill":
            # Word index within the block (8 B words).
            lst = memo.get("distill_list")
            if lst is None:
                lst = distill_aux_words(trace).tolist()
                memo["distill_list"] = lst
            return lst
        if config.llc.replacement == "ship":
            # SHiP keys its hit predictor on the access PC.
            lst = memo.get("ship_list")
            if lst is None:
                lst = trace.accesses["pc"].astype(np.int64).tolist()
                memo["ship_list"] = lst
            return lst
        return None

    @staticmethod
    def _expert_block_classifier(trace: Trace,
                                 regions: set[int]) -> list[bool]:
        """Memoized per-access flags of the expert-routed regions."""
        memo = _trace_aux_memo(trace)
        key = ("expert_list", frozenset(regions))
        lst = memo.get(key)
        if lst is None:
            lst = expert_block_mask(trace, regions).tolist()
            memo[key] = lst
        return lst

    def _flush_sdc_state(self) -> None:
        """Context-switch flush of the SDC and LP (see ``run``).

        Flush write-backs are accounted in the DRAM write counter but do
        not touch row-buffer state (they drain asynchronously between
        the switched processes, not ahead of the next access stream).
        """
        if self.sdc is not None:
            for _block in self.sdc.dirty_blocks():
                self.hierarchy.dram.stats.writes += 1
            self.sdc.flush()
            if self.sdcdir is not None:
                for s in self.sdcdir.sets:
                    s.clear()
        if self.lp is not None:
            for s in self.lp.sets:
                s.clear()
        if self.clp is not None:
            for s in self.clp.sets:
                s.clear()

    def _reset_stats(self) -> None:
        # The stat window no longer covers the caches' whole life, so
        # the fill/eviction/occupancy ledger cannot balance from here on.
        self._ledger_valid = False
        h = self.hierarchy
        h.l1d.stats = CacheStats()
        h.l2c.stats = CacheStats()
        h.llc.stats = CacheStats()
        h.dram.stats = DRAMStats()
        if self.sdc is not None:
            self.sdc.stats = CacheStats()
        if self.lp is not None:
            self.lp.stats = LPStats()
        if self.clp is not None:
            self.clp.stats = LPStats()
        if self.tlb is not None:
            self.tlb.stats = TLBStats()
