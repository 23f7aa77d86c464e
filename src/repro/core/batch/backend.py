"""Batch backend: fresh SoA buffers, kernel dispatch, stats.

:func:`try_run_batch` is the single entry point behind the dispatch
seam in ``SingleCoreSystem.run``.  It either simulates the whole trace
through the compiled structure-of-arrays kernel (``kernel.c``) and
returns a ``SystemStats`` that is bit-identical to what the reference
Python loop would have produced, or returns ``None``, in which case the
caller falls back to the reference path.  The kernel starts from
buffers sized by each structure's geometry alone (the system must be
fresh) and its stats are built straight from those buffers; no state
flows back into the Python objects, so the run leaves the system spent
(``SingleCoreSystem.spend``): each structure raises on any read.  Every
refusal is counted per process by its :func:`unsupported_reason` (see
:func:`fallback_counts`), and a kernel that returns an error raises
:class:`KernelError` instead of falling back.

Refusal rules (any one triggers ``None``):

* the kernel could not be compiled/loaded (no C compiler, load error);
* invariant checking is armed (``check_every != 0`` — the per-access
  hooks need the Python loop);
* a structure uses a policy/prefetcher outside the supported set
  (inlined LRU everywhere but the LLC, which may also run T-OPT Belady,
  distill LOC+WOC, SRRIP, DRRIP or SHiP; next-line and SPP
  prefetchers) — notably the generic-LRU differential twin
  (``_lru is None``) falls back, keeping that twin meaningful;
* the system is not fresh (non-empty caches or non-zero counters):
  the kernel starts all stamp clocks from zero.
"""

from __future__ import annotations

import ctypes
from collections import Counter

import numpy as np

from repro.config import BLOCK_BITS
from repro.core.batch.build import load_kernel
from repro.core.clp import LEVEL_WEIGHTS
from repro.core.lp import LPStats
from repro.core.sdcdir import SDCDirStats
from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.distill import DistillCache
from repro.mem.dram import DRAMStats
from repro.mem.prefetch import NextLinePrefetcher, SPPPrefetcher
from repro.mem.replacement import (BeladyOPT, DRRIPPolicy, SHiPPolicy,
                                   SRRIPPolicy)
from repro.mem.tlb import TLBStats
from repro.telemetry.probes import WindowProbe, _Snapshot

NBUF = 91
ICFG_LEN = 88

_I64 = np.int64
_U8 = np.uint8

# Codes shared with kernel.c, which refuses any other value.
PATH_PLAIN, PATH_SDC, PATH_VICTIM, PATH_BYPASS = range(4)
(LLC_LRU, LLC_BELADY, LLC_DISTILL, LLC_SRRIP, LLC_DRRIP,
 LLC_SHIP) = range(6)
PRED_NONE, PRED_LP, PRED_EXPERT, PRED_CLP = range(4)

#: Access path per variant; also the variant allowlist, the second
#: guard behind the kernel's own code check.
_PATHS = {
    "baseline": PATH_PLAIN, "topt": PATH_PLAIN, "distill": PATH_PLAIN,
    "l1iso": PATH_PLAIN, "llc2x": PATH_PLAIN,
    "sdc_lp": PATH_SDC, "expert": PATH_SDC, "sdc_clp": PATH_SDC,
    "sdc_lp_tagless": PATH_SDC,
    "victim": PATH_VICTIM, "lp_bypass": PATH_BYPASS,
}
_KERNEL_VARIANTS = frozenset(_PATHS)

_RRIP_KINDS = {SRRIPPolicy: LLC_SRRIP, DRRIPPolicy: LLC_DRRIP,
               SHiPPolicy: LLC_SHIP}

#: Nonzero returns of ``repro_batch_run``.
KERNEL_ERRORS = {
    1: "timer buffer allocation failed",
    2: "telemetry buffer overflow",
    3: "unknown path code",
    4: "unknown LLC kind",
    5: "unknown predictor code",
}


class KernelError(RuntimeError):
    """The kernel returned an error code for a run it was handed."""


#: backend="batch" refusals in this process, by unsupported_reason.
_fallbacks: Counter = Counter()


def fallback_counts() -> dict[str, int]:
    """Refusals of the batch backend so far in this process, keyed by
    the :func:`unsupported_reason` string (empty when every requested
    batch run took the kernel)."""
    return dict(_fallbacks)


def reset_fallback_counts() -> None:
    _fallbacks.clear()


def record_fallback(reason: str) -> None:
    """Count one batch request that ran on the reference loop."""
    _fallbacks[reason] += 1


def _zeros(n, dtype=_I64):
    return np.zeros(max(int(n), 1), dtype=dtype)


def _full(n, value, dtype=_I64):
    return np.full(max(int(n), 1), value, dtype=dtype)


class _CacheSoA:
    """Fresh flat arrays for one set-associative cache (or a dummy)."""

    def __init__(self, cache: SetAssocCache | None):
        if cache is None:
            self.sets, self.ways = 1, 1
            self.latency, self.mask, self.bits = 0, 0, 0
        else:
            self.sets, self.ways = cache.num_sets, cache.ways
            self.latency = cache.latency
            self.mask, self.bits = cache._set_mask, cache._set_bits
        n = self.sets * self.ways
        self.tags = _full(n, -1)
        self.prio = _zeros(n)
        self.seq = _zeros(n)
        self.dirty = _zeros(n, _U8)
        self.pf = _zeros(n, _U8)
        self.occ = _zeros(self.sets)
        self.stats = _zeros(9)

    def geometry(self):
        return [self.sets, self.ways, self.latency, self.mask, self.bits]

    def buffers(self):
        return [self.tags, self.prio, self.seq, self.dirty, self.pf,
                self.occ, self.stats]

    def cache_stats(self) -> CacheStats:
        return CacheStats(*self.stats.tolist())


class _Table:
    """Flat arrays for one fresh set-associative index table (LP/CLP,
    SDCDir, a TLB level): a key column (-1 = empty), value columns, a
    dict-order column, per-set occupancy."""

    def __init__(self, sets: int, ways: int, values: int):
        n = sets * ways
        self.sets, self.ways = sets, ways
        self.keys = _full(n, -1)
        self.cols = [_zeros(n) for _ in range(values)]
        self.order = _zeros(n)
        self.occ = _zeros(sets)


# ---------------------------------------------------------------------------
# Support gating
# ---------------------------------------------------------------------------

def _cache_fresh(cache: SetAssocCache) -> bool:
    return (not any(cache.sets)
            and cache.stats == CacheStats()
            and getattr(cache.policy, "_clock", 0) == 0)


def _plain_lru_ok(cache: SetAssocCache) -> bool:
    return (cache._lru is not None and cache._policy_bind is None
            and cache._policy_miss is None)


def _llc_kind(llc) -> int | None:
    """The kernel's code for an LLC, None when it has no model of it."""
    if isinstance(llc, DistillCache):
        return LLC_DISTILL
    if llc._lru is not None:
        return LLC_LRU
    pol = llc.policy
    if type(pol) is BeladyOPT:
        return LLC_BELADY if pol.irregular_only else None
    return _RRIP_KINDS.get(type(pol))


def _predictor(system) -> int:
    if system.variant == "expert":
        return PRED_EXPERT
    if system.clp is not None:
        return PRED_CLP
    return PRED_LP if system.lp is not None else PRED_NONE


def unsupported_reason(system, trace) -> str | None:
    """Why this run cannot take the batch kernel (None = it can)."""
    if load_kernel() is None:
        return "kernel unavailable"
    if system.variant not in _KERNEL_VARIANTS:
        return f"variant {system.variant!r} not implemented by the kernel"
    if system._check_every:
        return "invariant checking armed"
    h = system.hierarchy

    for name, cache in (("l1d", h.l1d), ("l2c", h.l2c)):
        if not _plain_lru_ok(cache):
            return f"{name} policy not inlined LRU"
        if not _cache_fresh(cache):
            return f"{name} not fresh"

    llc = h.llc
    kind = _llc_kind(llc)
    if kind == LLC_DISTILL:
        if not _plain_lru_ok(llc.loc):
            return "distill LOC policy not inlined LRU"
        if not _cache_fresh(llc.loc):
            return "distill LOC not fresh"
        if (llc._clock or llc.woc_hits or llc.usage
                or any(llc.woc) or llc.stats != CacheStats()):
            return "distill WOC not fresh"
    elif kind is None:
        return "llc policy unsupported"
    elif not _cache_fresh(llc):
        return "llc not fresh"

    for name, extra in (("sdc", system.sdc), ("victim", system.victim)):
        if extra is not None:
            if not _plain_lru_ok(extra):
                return f"{name} policy not inlined LRU"
            if not _cache_fresh(extra):
                return f"{name} not fresh"

    pf1 = h.l1_prefetcher
    if pf1 is not None and (type(pf1) is not NextLinePrefetcher
                            or h._l1_pf_pc is not None):
        return "l1 prefetcher unsupported"
    pf2 = h.l2_prefetcher
    if pf2 is not None:
        if type(pf2) is not SPPPrefetcher:
            return "l2 prefetcher unsupported"
        if pf2.trackers or pf2.patterns or pf2.totals:
            return "l2 prefetcher not fresh"

    if h.dram.stats != DRAMStats() or any(r != -1 for r in h.dram.open_rows):
        return "dram not fresh"

    for name, pred in (("lp", system.lp), ("clp", system.clp)):
        if pred is not None and (pred._clock or pred.stats != LPStats()
                                 or any(pred.sets)):
            return f"{name} not fresh"
    d = system.sdcdir
    if d is not None and (d._clock or d.stats != SDCDirStats()
                          or any(d.sets)):
        return "sdcdir not fresh"
    tlb = system.tlb
    if tlb is not None:
        if (tlb.stats != TLBStats() or tlb.l1._clock or tlb.l2._clock
                or any(tlb.l1.sets) or any(tlb.l2.sets)):
            return "tlb not fresh"

    acc = trace.accesses
    if len(acc):
        if int(acc["addr"].min()) >> BLOCK_BITS < 0:
            return "negative block address"
        deps = acc["dep"]
        if int(deps.max(initial=-1)) >= len(acc):
            return "forward dependency index"
    return None


# ---------------------------------------------------------------------------
# Aux arrays (shared trace-keyed memo with the reference path)
# ---------------------------------------------------------------------------

def _aux_arrays(system, trace, blocks):
    """(aux_mode, aux_next, aux_irr, aux_word) for the kernel.

    Mode 3 marks a SHiP LLC, whose aux is the access PC: the kernel
    reads it from the PC column it already has.
    """
    from repro.core.system import distill_aux_words, topt_aux_arrays
    if system.variant == "topt":
        nxt, irr = topt_aux_arrays(trace, blocks)
        return 1, np.ascontiguousarray(nxt, dtype=_I64), \
            np.ascontiguousarray(irr, dtype=_U8), _zeros(1)
    if system.variant == "distill":
        words = distill_aux_words(trace)
        return 2, _zeros(1), _zeros(1, _U8), \
            np.ascontiguousarray(words, dtype=_I64)
    if system.config.llc.replacement == "ship":
        return 3, _zeros(1), _zeros(1, _U8), _zeros(1)
    return 0, _zeros(1), _zeros(1, _U8), _zeros(1)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def try_run_batch(system, trace, record_levels=False, warmup=0,
                  flush_sdc_every=None):
    """Run the trace through the C kernel; None when unsupported.

    The returned ``SystemStats`` is built from the kernel's buffers,
    and nothing is written back: the system is spent afterwards
    (``SingleCoreSystem.spend``), so reading any of its structures or
    running it again raises.  A caller that needs the post-run state
    runs the system with ``backend="ref"``.

    Raises :class:`KernelError` when the kernel returns an error code;
    the system is untouched then.
    """
    system.check_not_spent()
    reason = unsupported_reason(system, trace)
    if reason is not None:
        record_fallback(reason)
        return None
    lib = load_kernel()
    h = system.hierarchy
    config = system.config
    acc = trace.accesses
    n = len(acc)

    blocks = np.ascontiguousarray(acc["addr"] >> BLOCK_BITS, dtype=_I64)
    pcs = np.ascontiguousarray(acc["pc"], dtype=_I64)
    writes = np.ascontiguousarray(acc["write"], dtype=_U8)
    gaps = np.ascontiguousarray(acc["gap"], dtype=_I64)
    deps = np.ascontiguousarray(acc["dep"], dtype=_I64)
    tlb_on = system.tlb is not None
    pages = np.ascontiguousarray(acc["addr"] >> 12, dtype=_I64) \
        if tlb_on else _zeros(1)

    aux_mode, aux_next, aux_irr, aux_word = _aux_arrays(
        system, trace, blocks)
    pred = _predictor(system)
    if pred == PRED_EXPERT:
        from repro.core.system import expert_block_mask
        expert_irr = np.ascontiguousarray(
            expert_block_mask(trace, system.expert_regions), dtype=_U8)
    else:
        expert_irr = _zeros(1, _U8)

    llc = h.llc
    llc_kind = _llc_kind(llc)
    distill = llc_kind == LLC_DISTILL
    policy = None if distill else llc.policy

    c_l1 = _CacheSoA(h.l1d)
    c_l2 = _CacheSoA(h.l2c)
    c_l3 = _CacheSoA(llc.loc if distill else llc)
    c_sd = _CacheSoA(system.sdc)
    c_vc = _CacheSoA(system.victim)
    l3_n = c_l3.sets * c_l3.ways

    # Distill WOC (dummy-sized when the LLC is not a distill cache).
    woc_cap = llc.woc_capacity if distill else 1
    woc_slots = woc_cap + 8
    woc_n = (c_l3.sets if distill else 1) * woc_slots
    woc_block = _zeros(woc_n)
    woc_word = _zeros(woc_n)
    woc_stamp = _zeros(woc_n)
    woc_len = _zeros(c_l3.sets if distill else 1)
    dstats = _zeros(9)

    # RRIP-family LLC state: DRRIP's leader role per set, SHiP's SHCT
    # and per-slot signature/reuse bits (dummies for other kinds).
    llc_role = _zeros(c_l3.sets if llc_kind == LLC_DRRIP else 1, _U8)
    if llc_kind == LLC_DRRIP:
        for role, leaders in ((1, policy._srrip_leaders),
                              (2, policy._brrip_leaders)):
            llc_role[[s for s in leaders if s < c_l3.sets]] = role
    ship = llc_kind == LLC_SHIP
    shct = np.array(policy.shct, dtype=_I64) if ship else _zeros(1)
    ship_sig = _zeros(l3_n if ship else 1)
    ship_reused = _zeros(l3_n if ship else 1, _U8)

    dram = h.dram
    dram_rows = _full(dram._banks, -1)
    dram_stats = _zeros(5)

    # One predictor table: the LP (addr, s_acc, stamp) or the CLP
    # (its counter in the s_acc column, addr unused).
    lp, clp = system.lp, system.clp
    pt = lp if lp is not None else clp
    ptab = _Table(pt.num_sets if pt is not None else 1,
                  pt.ways if pt is not None else 1, 3)
    pt_max = (lp._s_acc_max if lp is not None
              else clp._ctr_max if clp is not None else 0)
    pt_stats = _zeros(5)

    sdcdir = system.sdcdir
    dir_sets = sdcdir.num_sets if sdcdir is not None else 1
    dir_ways = sdcdir.ways if sdcdir is not None else 1
    dtab = _Table(dir_sets, dir_ways, 3)      # sharers, dirty core, stamp
    dir_stats = _zeros(4)

    tlb = system.tlb
    t1 = _Table(tlb.l1.num_sets if tlb_on else 1,
                tlb.l1.ways if tlb_on else 1, 1)
    t2 = _Table(tlb.l2.num_sets if tlb_on else 1,
                tlb.l2.ways if tlb_on else 1, 1)
    tlb_stats = _zeros(4)

    l2_spp = h.l2_prefetcher is not None
    sp_deltas = _zeros(4096 * 127 if l2_spp else 1, np.int8)
    sp_counts = _zeros(4096 * 127 if l2_spp else 1, np.int16)
    sp_len = _zeros(4096 if l2_spp else 1, np.int32)
    sp_tot = _zeros(4096 if l2_spp else 1, np.int32)
    tk_page = _full(16384 if l2_spp else 1, -1)
    tk_off = _zeros(16384 if l2_spp else 1)
    tk_sig = _zeros(16384 if l2_spp else 1)

    tele_every = system._telemetry_every
    tele_capacity = (n // tele_every + 2) if tele_every else 1
    tele = _zeros(tele_capacity * 11)
    misc = _zeros(32)
    dmisc = _zeros(4, np.float64)
    levels = _zeros(n if record_levels else 1, _U8)
    completions = _zeros(n, np.float64)

    core = config.core
    icfg_vals = [0] * ICFG_LEN
    icfg_vals[0:16] = [
        n, _PATHS[system.variant], llc_kind, pred,
        1 if lp is not None and lp.config.tagless else 0,
        min(warmup, n), 1 if warmup else 0, flush_sdc_every or 0,
        tele_every, 1 if record_levels else 0, 1 if tlb_on else 0,
        1 if h.l1_prefetcher is not None else 0, 1 if l2_spp else 0,
        1 if config.sdc.prefetcher is not None else 0,
        aux_mode, config.sdc_miss_dir_latency,
    ]
    icfg_vals[16:21] = c_l1.geometry()
    icfg_vals[21:26] = c_l2.geometry()
    icfg_vals[26:31] = c_l3.geometry()
    icfg_vals[31:36] = c_sd.geometry()
    icfg_vals[36:41] = c_vc.geometry()
    icfg_vals[41] = woc_cap
    icfg_vals[42] = woc_slots
    icfg_vals[43:47] = [
        dir_sets, dir_ways,
        sdcdir._set_mask if sdcdir is not None else 0,
        sdcdir.latency if sdcdir is not None else 0,
    ]
    icfg_vals[47:53] = [
        ptab.sets, ptab.ways,
        pt._set_bits if pt is not None else 0,
        pt._set_mask if pt is not None else 0,
        pt.tau if pt is not None else 0,
        pt_max,
    ]
    icfg_vals[53:58] = [dram._banks, dram._row_bits, dram._lat_hit,
                        dram._lat_miss, dram._lat_conflict]
    icfg_vals[58:61] = [t1.sets, t1.ways,
                        tlb.l1._set_mask if tlb_on else 0]
    icfg_vals[61:64] = [t2.sets, t2.ways,
                        tlb.l2._set_mask if tlb_on else 0]
    icfg_vals[64] = tlb.l2.config.latency if tlb_on else 0
    icfg_vals[65] = tlb.walk_latency if tlb_on else 0
    icfg_vals[66] = core.width
    icfg_vals[67] = max(8, core.rob_entries // 4)
    icfg_vals[68] = config.l1d.mshr_entries
    icfg_vals[69] = config.sdc.mshr_entries
    icfg_vals[70] = config.l1d.latency
    icfg_vals[71] = tele_capacity
    icfg_vals[72] = llc.latency
    if llc_kind == LLC_DRRIP:
        icfg_vals[73:77] = [policy.psel, policy._psel_max,
                            policy._brrip_tick, policy.BRRIP_EPSILON]
    if ship:
        icfg_vals[77:79] = [policy.TABLE_SIZE, policy.COUNTER_MAX]
    icfg_vals[79:84] = LEVEL_WEIGHTS[:5]

    usage = _zeros(l3_n, _U8)
    buffers = (
        c_l1.buffers() + c_l2.buffers() + c_l3.buffers()
        + c_sd.buffers() + c_vc.buffers()
        + [usage]
        + [woc_block, woc_word, woc_stamp, woc_len, dstats,
           dram_rows, dram_stats,
           ptab.keys, *ptab.cols, ptab.order, ptab.occ, pt_stats,
           dtab.keys, *dtab.cols, dtab.occ, dir_stats,
           t1.keys, *t1.cols, t1.order, t1.occ,
           t2.keys, *t2.cols, t2.order, t2.occ, tlb_stats,
           sp_deltas, sp_counts, sp_len, sp_tot,
           tk_page, tk_off, tk_sig,
           tele, misc, dmisc,
           blocks, pcs, writes, gaps, deps, pages,
           aux_next, aux_irr, aux_word, expert_irr,
           levels, completions,
           llc_role, shct, ship_sig, ship_reused]
    )
    assert len(buffers) == NBUF

    icfg_c = (ctypes.c_int64 * ICFG_LEN)(*icfg_vals)
    bufs_c = (ctypes.c_void_p * NBUF)(
        *[b.__array_interface__["data"][0] for b in buffers])
    rc = lib.repro_batch_run(icfg_c, bufs_c)
    if rc != 0:
        raise KernelError(f"batch kernel returned error {rc} "
                          f"({KERNEL_ERRORS.get(rc, 'unknown error')}) "
                          f"for variant {system.variant!r}")

    # ---- the result, built once from the kernel's buffers ------------
    from repro.core.system import SystemStats
    misc_l = misc.tolist()
    timeline = None
    if tele_every:
        probe = WindowProbe(tele_every, lambda: None)
        for row in tele[:misc_l[1] * 11].reshape(-1, 11).tolist():
            snap = _Snapshot(*row)
            probe._snap_fn = (lambda s=snap: s)
            probe.sample()
        timeline = probe.timeline()
    stats = SystemStats(
        variant=system.variant,
        instructions=misc_l[0],
        cycles=max(float(dmisc[0]), float(dmisc[1])),
        l1d=c_l1.cache_stats(),
        l2c=c_l2.cache_stats(),
        llc=(CacheStats(*dstats.tolist()) if distill
             else c_l3.cache_stats()),
        sdc=c_sd.cache_stats() if system.sdc is not None else None,
        dram=DRAMStats(*dram_stats.tolist()),
        lp=LPStats(*pt_stats.tolist()) if pt is not None else None,
        levels=levels if record_levels else None,
        tlb=TLBStats(*tlb_stats.tolist()) if tlb_on else None,
        timeline=timeline)
    system.spend()
    return stats
