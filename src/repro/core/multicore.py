"""Multi-core system: 4 cores, private L1D/L2C/SDC, shared LLC (§IV-D).

* Each core has its own L1D, L2C, LP and SDC; the LLC and DRAM are
  shared, so multiprogrammed mixes contend for LLC capacity and DRAM row
  buffers exactly as in the paper's setup.
* Coherence: an MSI-style directory guards private-cache copies and the
  SDCDir (shared, per-core banked capacity) guards SDC copies.  The
  paper's mixes are multiprogrammed (disjoint address spaces, which we
  guarantee by giving each core its own address-space offset), but the
  protocol is fully implemented and exercised by the coherence tests
  with crafted shared-address streams.
* Scheduling interleaves cores by front-end progress (the core with the
  smallest issue clock runs next), which approximates concurrent
  execution without a global event queue.
* Methodology: cores that finish their trace replay it to keep
  contention alive until every core completes its first pass, but only
  first-pass cycles/stats count (standard weighted-speedup practice).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.config import BLOCK_BITS, SystemConfig
from repro.core.batch import record_fallback, resolve_backend
from repro.core.clp import CacheLevelPredictor
from repro.core.lp import LargePredictor
from repro.core.sdcdir import SDCDirectory
from repro.core.system import (SDC_VARIANTS, VARIANTS, SingleCoreSystem,
                               SystemStats, variant_config)
from repro.mem.cache import SetAssocCache
from repro.mem.distill import DistillCache
from repro.mem.dram import DRAMModel
from repro.mem.hierarchy import (DRAM, L1D, L2C, LLC, SDC_LEVEL, REMOTE,
                                 MemoryHierarchy)
from repro.mem.replacement import BeladyOPT
from repro.mem.timing import CoreTimer
from repro.mem.tlb import TLBHierarchy
from repro.telemetry import telemetry_interval
from repro.telemetry.probes import WindowProbe, core_snapshot
from repro.trace.record import Trace
from repro.validate import check_interval
from repro.validate.invariants import check_multicore_system

CORE_ADDR_STRIDE = 1 << 44   # bytes of VA space reserved per core

#: The refusal a ``backend="batch"`` multi-core run is counted under.
MULTICORE_FALLBACK = "multi-core system not implemented by the kernel"


@dataclass
class MultiCoreResult:
    """Per-core stats plus the shared-structure aggregates."""

    per_core: list[SystemStats]
    llc_accesses: int
    llc_misses: int

    def ipcs(self) -> list[float]:
        return [s.ipc for s in self.per_core]


class MultiCoreSystem:
    """N cores running one trace each under a design variant."""

    def __init__(self, config: SystemConfig | None = None,
                 variant: str = "baseline",
                 expert_regions: list[set[int]] | None = None,
                 check_every: int | None = None,
                 telemetry_every: int | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if variant in ("victim", "lp_bypass"):
            raise ValueError(f"{variant!r} is a single-core-only ablation")
        self._check_every = check_interval(check_every)
        self._telemetry_every = telemetry_interval(telemetry_every)
        base = config or SystemConfig(num_cores=4)
        self.config = variant_config(base, variant)
        self.variant = variant
        self.num_cores = max(1, self.config.num_cores)
        self.expert_regions = expert_regions

        # Shared structures.
        if variant == "distill":
            self.llc = DistillCache(self._shared_llc_config())
        else:
            policy = BeladyOPT(irregular_only=True) \
                if variant == "topt" else None
            self.llc = SetAssocCache(self._shared_llc_config(), policy)
        self.dram = DRAMModel(self.config.dram)
        self.directory: dict[int, list[int]] = {}   # block -> [sharers, owner]
        self.has_sdc = variant in SDC_VARIANTS
        self.sdcdir = SDCDirectory(self.config.sdcdir, self.num_cores) \
            if self.has_sdc else None

        # Private structures.
        self.cores: list[MemoryHierarchy] = []
        self.sdcs: list[SetAssocCache | None] = []
        self.lps: list[LargePredictor | None] = []
        self.clps: list[CacheLevelPredictor | None] = []
        self.tlbs: list[TLBHierarchy] = []
        for _ in range(self.num_cores):
            h = MemoryHierarchy(self.config, llc=self.llc, dram=self.dram)
            self.cores.append(h)
            self.sdcs.append(SetAssocCache(self.config.sdc)
                             if self.has_sdc else None)
            self.lps.append(LargePredictor(self.config.lp)
                            if variant in ("sdc_lp", "sdc_lp_tagless")
                            else None)
            self.clps.append(CacheLevelPredictor(self.config.clp)
                             if variant == "sdc_clp" else None)
            self.tlbs.append(TLBHierarchy())

    def _shared_llc_config(self):
        # Table I: 1.375 MiB *per core* — the shared LLC scales with the
        # core count (sets multiply, associativity fixed).
        import dataclasses
        llc = self.config.llc
        return dataclasses.replace(
            llc, size_bytes=llc.size_bytes * self.num_cores)

    # -- coherence actions ---------------------------------------------------
    def _dir_entry(self, block: int) -> list[int]:
        e = self.directory.get(block)
        if e is None:
            e = [0, -1]
            self.directory[block] = e
        return e

    def _invalidate_remote(self, block: int, requester: int,
                           include_sdc: bool = True) -> bool:
        """Invalidate all other cores' copies; True if a dirty copy was
        written back (the requester must then see DRAM/LLC latency)."""
        entry = self.directory.get(block)
        wrote_back = False
        if entry is not None and entry[0]:
            for c in range(self.num_cores):
                if c == requester or not (entry[0] & (1 << c)):
                    continue
                _, d1 = self.cores[c].l1d.invalidate(block)
                _, d2 = self.cores[c].l2c.invalidate(block)
                if d1 or d2:
                    self.dram.write(block)
                    wrote_back = True
            entry[0] &= 1 << requester
            if entry[1] != requester:
                entry[1] = -1
        if include_sdc and self.sdcdir is not None:
            sharers = self.sdcdir.sharers(block)
            for c in range(self.num_cores):
                if c == requester or not (sharers & (1 << c)):
                    continue
                was, dirty = self.sdcs[c].invalidate(block)
                # Honour either dirty flag (line or directory ownership)
                # so a writeback cannot be lost to a stale one.
                _, was_owner = self.sdcdir.remove_sharer(block, c)
                if (was and dirty) or was_owner:
                    self.dram.write(block)
                    wrote_back = True
        return wrote_back

    def _fetch_remote_dirty(self, block: int, requester: int) -> bool:
        """If a remote core owns the block dirty, collect it into the LLC.
        Returns True when a remote transfer happened."""
        entry = self.directory.get(block)
        if entry is None or entry[1] in (-1, requester):
            return False
        owner = entry[1]
        _, d1 = self.cores[owner].l1d.invalidate(block)
        _, d2 = self.cores[owner].l2c.invalidate(block)
        entry[0] &= ~(1 << owner)
        entry[1] = -1
        if d1 or d2:
            self._llc_fill(block, dirty=True)
            return True
        return False

    def _llc_fill(self, block: int, dirty: bool = False, aux=None) -> None:
        evicted = self.llc.fill(block, dirty=dirty, aux=aux)
        if evicted is not None and evicted[1]:
            self.dram.write(evicted[0])

    # -- per-core access paths -------------------------------------------------
    def _access_hierarchy(self, core: int, block: int, write: bool, aux,
                          pc: int) -> tuple[int, int]:
        h = self.cores[core]
        latency = h.l1d.latency
        l1_hit = h.l1d.access(block, write)
        for pf in h.l1_prefetches(block, l1_hit, pc):
            if (not h.l1d.contains(pf) and not self._in_sdc(pf)
                    and not self._remote_dirty(pf, core)):
                h._fill_l1(pf, prefetch=True)
                self._dir_entry(pf)[0] |= 1 << core
        if l1_hit:
            if write:
                entry = self._dir_entry(block)
                if entry[1] != core and entry[0] & ~(1 << core):
                    self._invalidate_remote(block, core)
                entry[1] = core
                # _invalidate_remote spares the requester, but the write
                # also stales a clean duplicate in its *own* SDC.
                if self.sdcdir is not None:
                    self.sdcdir.drop_duplicate(self.sdcs, core, block)
            return L1D, latency

        # Parallel SDCDir probe (paper §III-C): a copy in some SDC is
        # transferred into this core's L1D.
        if self.sdcdir is not None:
            served = self.sdcdir.transfer(self.sdcs, core, block, write, h)
            if served is not None:
                latency += served
                entry = self._dir_entry(block)
                entry[0] |= 1 << core
                if write:
                    entry[1] = core
                return SDC_LEVEL, latency

        latency += h.l2c.latency
        l2_hit = h.l2c.access(block, False)
        if h.l2_prefetcher is not None:
            for pf in h.l2_prefetcher.on_access(block, l2_hit):
                if (not h.l2c.contains(pf) and not self._in_sdc(pf)
                        and not self._remote_dirty(pf, core)):
                    h._fill_l2(pf, prefetch=True)
                    self._dir_entry(pf)[0] |= 1 << core
        entry = self._dir_entry(block)
        if l2_hit:
            if write and entry[0] & ~(1 << core):
                self._invalidate_remote(block, core)
            h._fill_l1(block, dirty=write)
            entry[0] |= 1 << core
            if write:
                entry[1] = core
            return L2C, latency

        remote = self._fetch_remote_dirty(block, core)
        if write and entry[0] & ~(1 << core):
            self._invalidate_remote(block, core)
        latency += h.llc.latency
        if self.llc.access(block, False, aux=aux):
            h._fill_l2(block)
            h._fill_l1(block, dirty=write)
            entry[0] |= 1 << core
            if write:
                entry[1] = core
            return (REMOTE if remote else LLC), latency

        latency += self.dram.read(block)
        self._llc_fill(block, aux=aux)
        h._fill_l2(block)
        h._fill_l1(block, dirty=write)
        entry[0] |= 1 << core
        if write:
            entry[1] = core
        return DRAM, latency

    def _in_sdc(self, block: int) -> bool:
        return self.sdcdir is not None and self.sdcdir.sharers(block) != 0

    def _remote_dirty(self, block: int, core: int) -> bool:
        """True when another core dirty-owns the block (prefetches must
        not break the single-writer invariant)."""
        entry = self.directory.get(block)
        return entry is not None and entry[1] not in (-1, core)

    def _access_via_sdc(self, core: int, block: int, write: bool
                        ) -> tuple[int, int]:
        """Irregular path with §III-C coherence: clean copies may be
        shared across SDCs and the hierarchy; writes claim exclusivity."""
        sdc = self.sdcs[core]
        latency = sdc.latency
        if sdc.access(block, write):
            if write:
                self.sdcdir.mark_dirty(block, core)
                self._claim_exclusive(block, core)
            self._sdc_prefetch(core, block + 1)
            return SDC_LEVEL, latency

        latency += self.config.sdc_miss_dir_latency
        if write:
            served = self._collect_for_write(block, core)
            level = L2C
        else:
            level, served = self._collect_for_read(block, core)
        if served is not None:
            latency += served
        else:
            latency += self.dram.read(block)
            level = DRAM
        self.sdcdir.install(self.sdcs, core, block, self.dram, dirty=write)
        self._sdc_prefetch(core, block + 1)
        return level, latency

    def _collect_for_read(self, block: int, core: int
                          ) -> tuple[int, int | None]:
        """Find the nearest valid copy for a read fill, leaving it in
        place (cleaned if it was dirty); returns its level code and probe
        latency, the latency None when no copy exists."""
        sharers = self.sdcdir.sharers(block)
        if sharers & ~(1 << core):
            self.sdcdir.clean(self.sdcs, block, self.dram)
            return REMOTE, self.config.sdc.latency
        for c in range(self.num_cores):
            h = self.cores[c]
            for cache in (h.l1d, h.l2c):
                if cache.contains(block):
                    # Clean every copy the serving core holds (the dirty
                    # bit may sit at a deeper level than the one that
                    # serves, e.g. clean L1 refetch above a dirty L2
                    # line) plus a dirty LLC copy left by an earlier
                    # collect — a dirty line below a clean shared SDC
                    # copy breaks single-valid-copy.  MSI guarantees no
                    # *other* core holds a dirty private copy.
                    d1 = h.l1d.clear_dirty(block)
                    d2 = h.l2c.clear_dirty(block)
                    dllc = self.llc.clear_dirty(block)
                    if d1 or d2 or dllc:
                        self.dram.write(block)
                        entry = self.directory.get(block)
                        if entry is not None and entry[1] == c:
                            entry[1] = -1
                    if c == core:
                        return L2C, cache.latency
                    return REMOTE, h.l2c.latency
        if self.llc.contains(block):
            if self.llc.clear_dirty(block):
                self.dram.write(block)
            # The single-core spec's label for any hierarchy-served SDC
            # read, which the cache-level predictor trains on.
            return L2C, self.llc.latency
        return DRAM, None

    def _claim_exclusive(self, block: int, core: int) -> None:
        """Invalidate every copy outside core's SDC (write upgrade)."""
        self._invalidate_remote(block, core)
        h = self.cores[core]
        _, d1 = h.l1d.invalidate(block)
        _, d2 = h.l2c.invalidate(block)
        self.llc.invalidate(block)
        entry = self.directory.get(block)
        if entry is not None:
            entry[0] &= ~(1 << core)
            if entry[1] == core:
                entry[1] = -1

    def _collect_for_write(self, block: int, core: int) -> int | None:
        """Gather/invalidate all copies before a write fill; returns the
        probe latency when any copy existed, else None."""
        found = None
        sharers = self.sdcdir.sharers(block)
        if sharers & ~(1 << core):
            # Dirty payloads transfer into the requester's write fill,
            # so the ownership flag remove_sharer drops needs no
            # writeback here (same as the write-claim path above).
            for c in range(self.num_cores):
                if c != core and sharers & (1 << c):
                    self.sdcs[c].invalidate(block)
                    self.sdcdir.remove_sharer(block, c)
            found = self.config.sdc.latency
        for c in range(self.num_cores):
            h = self.cores[c]
            p1, _ = h.l1d.invalidate(block)
            p2, _ = h.l2c.invalidate(block)
            if p1 or p2:
                entry = self.directory.get(block)
                if entry is not None:
                    entry[0] &= ~(1 << c)
                    if entry[1] == c:
                        entry[1] = -1
                if c == core:
                    # Deepest own-core level actually probed — charging
                    # the L1 latency for an L2-only copy understates the
                    # collect cost (MemoryHierarchy.extract semantics).
                    probe = max(h.l1d.latency if p1 else 0,
                                h.l2c.latency if p2 else 0)
                else:
                    probe = h.l2c.latency
                found = max(found or 0, probe)
        was, _ = self.llc.invalidate(block)
        if was:
            found = max(found or 0, self.llc.latency)
        return found

    def _sdc_prefetch(self, core: int, block: int) -> None:
        """Next-line prefetch into core's SDC unless some SDC or some
        cache of any core already holds the block: a copy beside
        another SDC's dirty one would be stale."""
        if (self.config.sdc.prefetcher is not None
                and not self._in_sdc(block)
                and not any(h.l1d.contains(block) or h.l2c.contains(block)
                            for h in self.cores)
                and not self.llc.contains(block)):
            self.sdcdir.install(self.sdcs, core, block, self.dram,
                                prefetch=True)

    # -- the run loop ------------------------------------------------------------
    def run(self, traces: list[Trace], offset_address_spaces: bool = True,
            backend: str | None = None) -> MultiCoreResult:
        """Run one trace per core to first-pass completion.

        ``backend`` is accepted for seam symmetry with
        :meth:`SingleCoreSystem.run` and validated, but the multi-core
        loop always executes on the reference path: cores interleave
        access-by-access on their front-end clocks, which the batch
        kernel (one linear trace, one core) cannot express.  A
        ``"batch"`` request therefore falls back here by design, and is
        counted in ``repro.core.batch.fallback_counts``.
        """
        if resolve_backend(backend) == "batch":
            record_fallback(MULTICORE_FALLBACK)
        if len(traces) != self.num_cores:
            raise ValueError(f"need {self.num_cores} traces, "
                             f"got {len(traces)}")
        n_cores = self.num_cores
        streams = []
        for c, trace in enumerate(traces):
            acc = trace.accesses
            blocks = (acc["addr"] >> BLOCK_BITS).astype(np.int64)
            if offset_address_spaces:
                blocks = blocks + c * (CORE_ADDR_STRIDE >> BLOCK_BITS)
            # The aux feeds and expert flags are the single-core loop's:
            # next-use indices do not move under the per-core offset.
            expert_irr = None
            if self.variant == "expert":
                expert_irr = SingleCoreSystem._expert_block_classifier(
                    trace, self.expert_regions[c]
                    if self.expert_regions else set())
            streams.append({
                "pcs": acc["pc"].astype(np.int64).tolist(),
                "blocks": blocks.tolist(),
                "pages": (blocks >> (12 - BLOCK_BITS)).tolist(),
                "writes": acc["write"].tolist(),
                "gaps": acc["gap"].tolist(),
                "deps": acc["dep"].tolist(),
                "aux": SingleCoreSystem._precompute_aux(
                    trace, self.variant, self.config),
                "expert_irr": expert_irr,
                "n": len(acc),
            })

        timers = [CoreTimer(self.config.core, self.config.l1d.mshr_entries,
                            self.config.l1d.latency,
                            sdc_mshr_entries=self.config.sdc.mshr_entries)
                  for _ in range(n_cores)]
        completions = [[0.0] * s["n"] for s in streams]
        pos = [0] * n_cores
        first_pass_done = [s["n"] == 0 for s in streams]
        wrapped = [False] * n_cores
        snapshots: list[SystemStats | None] = [None] * n_cores

        llc_acc_start = self.llc.stats.accesses
        llc_miss_start = self.llc.stats.misses
        check_every = self._check_every
        tele_every = self._telemetry_every
        # One probe per core, sampled on that core's own access count
        # (first pass only — replayed accesses keep contention alive
        # but are not part of the measured window).
        probes = [WindowProbe(tele_every, partial(
            core_snapshot, self.cores[c], self.sdcs[c], self.lps[c],
            timers[c])) for c in range(n_cores)] if tele_every else None
        total_accesses = 0

        while not all(first_pass_done):
            # Run the least-advanced core (by front-end clock); finished
            # cores keep replaying so contention stays realistic.
            core = min(range(n_cores), key=lambda c: timers[c].issue_time)
            s = streams[core]
            i = pos[core]
            block = s["blocks"][i]
            write = s["writes"][i]
            aux = s["aux"][i] if s["aux"] is not None else None

            pool = 0
            if self.has_sdc:
                clp = self.clps[core]
                if self.variant == "expert":
                    irregular = s["expert_irr"][i]
                elif clp is not None:
                    irregular = clp.predict(s["pcs"][i])
                else:
                    irregular = self.lps[core].predict_and_update(
                        s["pcs"][i], block)
                if irregular:
                    level, latency = self._access_via_sdc(core, block, write)
                    pool = 1
                else:
                    level, latency = self._access_hierarchy(
                        core, block, write, aux, s["pcs"][i])
                if clp is not None:
                    clp.update(s["pcs"][i], level)
            else:
                level, latency = self._access_hierarchy(
                    core, block, write, aux, s["pcs"][i])
            latency += self.tlbs[core].translate_page(s["pages"][i])
            dep = s["deps"][i]
            dep_c = completions[core][dep] if dep >= 0 and not wrapped[core] \
                else None
            completions[core][i] = timers[core].access(s["gaps"][i], latency,
                                                       dep_c, pool=pool)
            pos[core] += 1
            if tele_every and not wrapped[core] \
                    and pos[core] % tele_every == 0:
                probes[core].sample()
            if check_every:
                total_accesses += 1
                if total_accesses % check_every == 0:
                    check_multicore_system(self, {
                        "access": total_accesses, "core": core,
                        "block": block, "level": level})
            if pos[core] >= s["n"]:
                if not wrapped[core]:
                    first_pass_done[core] = True
                    snapshots[core] = self._snapshot(
                        core, timers[core],
                        probes[core].timeline() if probes else None)
                pos[core] = 0
                wrapped[core] = True

        if check_every:
            check_multicore_system(self, {"access": total_accesses,
                                          "position": "end-of-run"})
        per_core = [snap if snap is not None
                    else self._snapshot(c, timers[c],
                                        probes[c].timeline()
                                        if probes else None)
                    for c, snap in enumerate(snapshots)]
        return MultiCoreResult(
            per_core=per_core,
            llc_accesses=self.llc.stats.accesses - llc_acc_start,
            llc_misses=self.llc.stats.misses - llc_miss_start)

    def _snapshot(self, core: int, timer: CoreTimer,
                  timeline=None) -> SystemStats:
        import copy
        h = self.cores[core]
        return SystemStats(
            variant=self.variant,
            instructions=timer.instructions,
            cycles=timer.cycles,
            l1d=copy.copy(h.l1d.stats),
            l2c=copy.copy(h.l2c.stats),
            llc=copy.copy(self.llc.stats),
            sdc=copy.copy(self.sdcs[core].stats) if self.sdcs[core] else None,
            dram=copy.copy(self.dram.stats),
            lp=copy.copy(self.lps[core].stats) if self.lps[core]
            else (copy.copy(self.clps[core].stats)
                  if self.clps[core] else None),
            tlb=copy.copy(self.tlbs[core].stats),
            timeline=timeline)
