"""The conventional three-level hierarchy (L1D → L2C → LLC → DRAM).

Lookup latencies accumulate down the miss path exactly as the paper
describes: an access that misses everywhere pays
``L1 + L2 + LLC + DRAM`` cycles — the "useless look-ups" SDC routing
eliminates.  Fills install the block at every level on the way back
(ChampSim-style fill-on-miss); dirty evictions write back to the next
level below, allocating there if absent.

:meth:`MemoryHierarchy.access` is the one walk; the SDC, victim-cache
and bypass paths of :mod:`repro.core.system` and the multi-core walk
reuse its ``_fill_l*`` helpers and :meth:`~MemoryHierarchy.l1_prefetches`.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.mem.cache import SetAssocCache
from repro.mem.dram import DRAMModel
from repro.mem.prefetch import make_prefetcher

# Served-by level codes (used in per-access recording).
L1D, L2C, LLC, DRAM, SDC_LEVEL, REMOTE = 0, 1, 2, 3, 4, 5
LEVEL_NAMES = {L1D: "L1D", L2C: "L2C", LLC: "LLC", DRAM: "DRAM",
               SDC_LEVEL: "SDC", REMOTE: "REMOTE"}


class MemoryHierarchy:
    """Private L1D/L2C + LLC + DRAM for one core."""

    def __init__(self, config: SystemConfig,
                 llc_policy=None, llc: SetAssocCache | None = None,
                 dram: DRAMModel | None = None):
        self.config = config
        self.l1d = SetAssocCache(config.l1d)
        self.l2c = SetAssocCache(config.l2c)
        if llc is not None:
            self.llc = llc                       # shared LLC (multi-core)
        else:
            # Without an explicit policy the cache builds its own, sized
            # to its sets (DRRIP's leader sets follow the geometry).
            self.llc = SetAssocCache(config.llc, llc_policy)
        self.dram = dram if dram is not None else DRAMModel(config.dram)
        self.l1_prefetcher = make_prefetcher(config.l1d.prefetcher)
        self.l2_prefetcher = make_prefetcher(config.l2c.prefetcher)
        # PC-aware prefetchers (IP-stride) expose on_access_pc.
        self._l1_pf_pc = getattr(self.l1_prefetcher, "on_access_pc", None)

    # -- writeback plumbing ------------------------------------------------
    def _writeback_to_l2(self, block: int) -> None:
        if self.l2c.mark_dirty(block):
            return
        evicted = self.l2c.fill(block, dirty=True)
        if evicted is not None and evicted[1]:
            self._writeback_to_llc(evicted[0])

    def _writeback_to_llc(self, block: int, aux=None) -> None:
        if self.llc.mark_dirty(block):
            return
        evicted = self.llc.fill(block, dirty=True, aux=aux)
        if evicted is not None and evicted[1]:
            self.dram.write(evicted[0])

    def _fill_l1(self, block: int, dirty: bool = False,
                 prefetch: bool = False) -> None:
        evicted = self.l1d.fill(block, dirty=dirty, prefetch=prefetch)
        if evicted is not None and evicted[1]:
            self._writeback_to_l2(evicted[0])

    def _fill_l2(self, block: int, prefetch: bool = False) -> None:
        evicted = self.l2c.fill(block, prefetch=prefetch)
        if evicted is not None and evicted[1]:
            self._writeback_to_llc(evicted[0])

    def _fill_llc(self, block: int, aux=None, prefetch: bool = False) -> None:
        evicted = self.llc.fill(block, prefetch=prefetch, aux=aux)
        if evicted is not None and evicted[1]:
            self.dram.write(evicted[0])

    def l1_prefetches(self, block: int, hit: bool, pc: int):
        """The blocks the L1 prefetcher requests after a demand access
        (empty without one); a PC-aware prefetcher is given the PC.

        Every walk that looks up the L1D calls this once per access and
        fills the candidates it does not already hold.
        """
        if self._l1_pf_pc is not None:
            return self._l1_pf_pc(pc, block, hit)
        if self.l1_prefetcher is None:
            return ()
        return self.l1_prefetcher.on_access(block, hit)

    # -- demand path ---------------------------------------------------------
    def access(self, block: int, write: bool, aux=None,
               pc: int = 0) -> tuple[int, int]:
        """One demand access walking the hierarchy; returns the serving
        level's code and the latency on the critical path."""
        l1d = self.l1d
        latency = l1d.latency
        l1_hit = l1d.access(block, write)
        for pf in self.l1_prefetches(block, l1_hit, pc):
            if not l1d.contains(pf):
                self._fill_l1(pf, prefetch=True)
        if l1_hit:
            return L1D, latency

        latency += self.l2c.latency
        l2_hit = self.l2c.access(block, False)
        if self.l2_prefetcher is not None:
            for pf in self.l2_prefetcher.on_access(block, l2_hit):
                if not self.l2c.contains(pf):
                    self._fill_l2(pf, prefetch=True)
        if l2_hit:
            self._fill_l1(block, dirty=write)
            return L2C, latency

        latency += self.llc.latency
        if self.llc.access(block, False, aux=aux):
            self._fill_l2(block)
            self._fill_l1(block, dirty=write)
            return LLC, latency

        latency += self.dram.read(block)
        self._fill_llc(block, aux=aux)
        self._fill_l2(block)
        self._fill_l1(block, dirty=write)
        return DRAM, latency

    # -- coherence helpers (used by the SDC-equipped system) ---------------
    def contains(self, block: int) -> bool:
        return (self.l1d.contains(block) or self.l2c.contains(block)
                or self.llc.contains(block))

    def extract(self, block: int) -> tuple[bool, int]:
        """Invalidate a block everywhere; returns (was_present, latency).

        Used when the SDC pulls a block that currently lives in the
        conventional hierarchy (single-valid-copy transfer).  Latency is
        the deepest level that had to be probed to collect the copy.
        """
        present = False
        latency = 0
        p, dirty = self.l1d.invalidate(block)
        if p:
            present = True
            latency = max(latency, self.l1d.latency)
        p2, dirty2 = self.l2c.invalidate(block)
        if p2:
            present = True
            latency = max(latency, self.l2c.latency)
        p3, dirty3 = self.llc.invalidate(block)
        if p3:
            present = True
            latency = max(latency, self.llc.latency)
        return present, latency
