"""Batch backend: support gating, kernel dispatch, stats.

:func:`try_run_batch` is the single entry point behind the dispatch
seam in ``SingleCoreSystem.run``.  It either simulates the whole trace
through the compiled structure-of-arrays kernel (``kernel.c``) and
returns a ``SystemStats`` that is bit-identical to what the reference
Python loop would have produced, or returns ``None``, in which case the
caller falls back to the reference path.  The kernel owns its state: it
allocates every structure's arrays from the geometry slots of the
config vector, starting them as a fresh system holds them (the system
must be fresh), and frees them before it returns.  What crosses the
seam is the trace's records (one pointer to the packed
``ACCESS_DTYPE`` array, read in place; the record size and the field
offsets ride in the config vector), the aux columns and DRRIP's leader
roles going in, and one counter vector, the two cycle doubles, the
telemetry rows and the per-access levels coming out; the stats are
built from those.  No state flows back into the Python objects, so the
run leaves the system spent (``SingleCoreSystem.spend``): each
structure raises on any read.  Every refusal is counted per process by
its :func:`unsupported_reason` (see :func:`fallback_counts`), and a
kernel that returns an error raises :class:`KernelError` instead of
falling back.

Refusal rules (any one triggers ``None``):

* the kernel could not be compiled/loaded (no C compiler, load error);
* invariant checking is armed (``check_every != 0`` — the per-access
  hooks need the Python loop);
* a structure uses a policy/prefetcher outside the supported set
  (LRU everywhere but the LLC, which may also run T-OPT Belady,
  distill LOC+WOC, SRRIP, DRRIP or SHiP; next-line and SPP
  prefetchers);
* the system is not fresh (non-empty caches or non-zero counters):
  the kernel starts all stamp clocks from zero;
* the trace's records are not ``ACCESS_DTYPE``, or a dependency
  points past the trace's end.
"""

from __future__ import annotations

import ctypes
from collections import Counter

import numpy as np

from repro.config import BLOCK_BITS
from repro.core.batch.build import load_kernel
from repro.core.clp import LEVEL_WEIGHTS
from repro.core.lp import LPStats
from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.distill import DistillCache
from repro.mem.dram import DRAMStats
from repro.mem.prefetch import NextLinePrefetcher, SPPPrefetcher
from repro.mem.replacement import (BeladyOPT, DRRIPPolicy, LRUPolicy,
                                   SHiPPolicy, SRRIPPolicy)
from repro.mem.tlb import PAGE_BITS, TLBStats
from repro.telemetry.probes import WindowProbe, _Snapshot
from repro.trace.record import ACCESS_DTYPE

NBUF = 10
ICFG_LEN = 92

#: The record fields the kernel reads and the type it reads each as
#: (kernel.c ``rec_*``).  The record size and these fields' offsets
#: cross in icfg slots 84-89 (kernel.c ``I_REC_SIZE``...).
_RECORD_FIELDS = (("pc", np.uint32), ("addr", np.uint64),
                  ("write", np.uint8), ("gap", np.uint16),
                  ("dep", np.int64))


def _record_layout(dtype: np.dtype) -> list[int]:
    """The record size and each ``_RECORD_FIELDS`` offset of ``dtype``;
    a field whose type is not the one the kernel reads raises, so a
    change to ``ACCESS_DTYPE`` fails here instead of being misread."""
    layout = [dtype.itemsize]
    for name, kind in _RECORD_FIELDS:
        field_type, offset = dtype.fields[name][:2]
        if field_type != np.dtype(kind):
            raise TypeError(f"ACCESS_DTYPE field {name!r} is {field_type},"
                            f" the kernel reads {np.dtype(kind)}")
        layout.append(offset)
    return layout


_RECORD_LAYOUT = _record_layout(ACCESS_DTYPE)

#: Slots of the kernel's counter vector (kernel.c ``OUT_*``): the
#: CacheStats of the L1D, L2C, LLC (the distill cache's own when it is
#: one) and SDC, then DRAMStats, LPStats, TLBStats, instructions and
#: telemetry rows.
_L1, _L2, _LLC, _SDC, _DRAM, _PRED, _TLB = 0, 9, 18, 27, 36, 41, 46
_INSTRUCTIONS, _TELE_ROWS, N_COUNTERS = 50, 51, 52

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
    1: "state allocation failed",
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


def _set_mask(num_sets: int) -> int:
    """The kernel's set mask for a set count: ``num_sets - 1`` when it is
    a power of two (shift/mask indexing), else -1 (div/mod)."""
    return num_sets - 1 if num_sets & (num_sets - 1) == 0 else -1


def _geometry(cache: SetAssocCache | None) -> list[int]:
    """A cache's five geometry slots; a 1x1 dummy when it is absent."""
    if cache is None:
        return [1, 1, 0, 0, 0]
    mask = _set_mask(cache.num_sets)
    return [cache.num_sets, cache.ways, cache.latency, mask,
            mask.bit_length() if mask > 0 else 0]


# ---------------------------------------------------------------------------
# Support gating
# ---------------------------------------------------------------------------

def _cache_fresh(cache: SetAssocCache) -> bool:
    return (not any(cache.sets)
            and cache.stats == CacheStats()
            and getattr(cache.policy, "_clock", 0) == 0)


def _plain_lru_ok(cache: SetAssocCache) -> bool:
    return type(cache.policy) is LRUPolicy


def _llc_kind(llc) -> int | None:
    """The kernel's code for an LLC, None when it has no model of it."""
    if isinstance(llc, DistillCache):
        return LLC_DISTILL
    pol = llc.policy
    if type(pol) is LRUPolicy:
        return LLC_LRU
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
            return f"{name} policy not LRU"
        if not _cache_fresh(cache):
            return f"{name} not fresh"

    llc = h.llc
    kind = _llc_kind(llc)
    if kind == LLC_DISTILL:
        if not _plain_lru_ok(llc.loc):
            return "distill LOC policy not LRU"
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
                return f"{name} policy not LRU"
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
    if d is not None and (d._clock or any(d.sets)):
        return "sdcdir not fresh"
    tlb = system.tlb
    if tlb is not None:
        if (tlb.stats != TLBStats() or tlb.l1._clock or tlb.l2._clock
                or any(tlb.l1.sets) or any(tlb.l2.sets)):
            return "tlb not fresh"

    if trace.accesses.dtype != ACCESS_DTYPE:
        return "trace records not ACCESS_DTYPE"
    from repro.core.system import max_dependency
    if max_dependency(trace) >= len(trace.accesses):
        return "forward dependency index"
    return None


# ---------------------------------------------------------------------------
# Aux arrays (shared trace-keyed memo with the reference path)
# ---------------------------------------------------------------------------

def _aux_arrays(system, trace):
    """(aux_mode, aux_next, aux_irr, aux_word) for the kernel.

    Mode 3 marks a SHiP LLC, whose aux is the access PC: the kernel
    reads it from the PC column it already has.
    """
    from repro.core.system import distill_aux_words, topt_aux_arrays
    if system.variant == "topt":
        nxt, irr = topt_aux_arrays(trace)
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

    The returned ``SystemStats`` is built from the kernel's outputs,
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
    # The records, in place (a store-opened trace's are a read-only
    # memmap); only a strided view is copied.
    records = np.ascontiguousarray(trace.accesses)
    n = len(records)
    tlb = system.tlb

    aux_mode, aux_next, aux_irr, aux_word = _aux_arrays(system, trace)
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
    l3 = llc.loc if distill else llc
    policy = None if distill else llc.policy
    llc_role = _zeros(l3.num_sets if llc_kind == LLC_DRRIP else 1, _U8)
    if llc_kind == LLC_DRRIP:
        for role, leaders in ((1, policy._srrip_leaders),
                              (2, policy._brrip_leaders)):
            llc_role[[s for s in leaders if s < l3.num_sets]] = role

    tele_every = system._telemetry_every
    tele_capacity = (n // tele_every + 2) if tele_every else 1
    counters = _zeros(N_COUNTERS)
    cycles = _zeros(2, np.float64)
    tele = _zeros(tele_capacity * 11)
    levels = _zeros(n if record_levels else 1, _U8)

    # The LP or the CLP: the kernel runs either in one predictor table.
    lp, clp = system.lp, system.clp
    pt = lp if lp is not None else clp
    sdcdir = system.sdcdir
    dram = h.dram
    core = config.core
    icfg_vals = [0] * ICFG_LEN
    icfg_vals[0:16] = [
        n, _PATHS[system.variant], llc_kind, pred,
        1 if lp is not None and lp.config.tagless else 0,
        min(warmup, n), 1 if warmup else 0, flush_sdc_every or 0,
        tele_every, 1 if record_levels else 0, 1 if tlb is not None else 0,
        1 if h.l1_prefetcher is not None else 0,
        1 if h.l2_prefetcher is not None else 0,
        1 if config.sdc.prefetcher is not None else 0,
        aux_mode, config.sdc_miss_dir_latency,
    ]
    icfg_vals[16:21] = _geometry(h.l1d)
    icfg_vals[21:26] = _geometry(h.l2c)
    icfg_vals[26:31] = _geometry(l3)
    icfg_vals[31:36] = _geometry(system.sdc)
    icfg_vals[36:41] = _geometry(system.victim)
    woc_cap = llc.woc_capacity if distill else 1
    icfg_vals[41:43] = [woc_cap, woc_cap + 8]
    icfg_vals[43:47] = [sdcdir.num_sets, sdcdir.ways,
                        _set_mask(sdcdir.num_sets), sdcdir.latency] \
        if sdcdir is not None else [1, 1, 0, 0]
    icfg_vals[47:53] = [
        pt.num_sets, pt.ways, pt._set_bits, pt._set_mask, pt.tau,
        lp._s_acc_max if lp is not None else clp._ctr_max,
    ] if pt is not None else [1, 1, 0, 0, 0, 0]
    icfg_vals[53:58] = [dram._banks, dram._row_bits, dram._lat_hit,
                        dram._lat_miss, dram._lat_conflict]
    icfg_vals[58:66] = [
        tlb.l1.num_sets, tlb.l1.ways, _set_mask(tlb.l1.num_sets),
        tlb.l2.num_sets, tlb.l2.ways, _set_mask(tlb.l2.num_sets),
        tlb.l2.config.latency, tlb.walk_latency,
    ] if tlb is not None else [1, 1, 0, 1, 1, 0, 0, 0]
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
    if llc_kind == LLC_SHIP:
        icfg_vals[77:79] = [policy.TABLE_SIZE, policy.COUNTER_MAX]
    icfg_vals[79:84] = LEVEL_WEIGHTS[:5]
    icfg_vals[84:90] = _RECORD_LAYOUT
    icfg_vals[90:92] = [BLOCK_BITS, PAGE_BITS]

    buffers = [records, aux_next, aux_irr, aux_word, expert_irr, llc_role,
               counters, cycles, tele, levels]
    icfg_c = (ctypes.c_int64 * ICFG_LEN)(*icfg_vals)
    bufs_c = (ctypes.c_void_p * NBUF)(
        *[b.__array_interface__["data"][0] for b in buffers])
    rc = lib.repro_batch_run(icfg_c, bufs_c)
    if rc != 0:
        raise KernelError(f"batch kernel returned error {rc} "
                          f"({KERNEL_ERRORS.get(rc, 'unknown error')}) "
                          f"for variant {system.variant!r}")

    # ---- the result, built once from the kernel's outputs ------------
    from repro.core.system import SystemStats
    c = counters.tolist()
    timeline = None
    if tele_every:
        rows = tele[:c[_TELE_ROWS] * 11].reshape(-1, 11).tolist()
        snapshots = (_Snapshot(*row) for row in rows)
        probe = WindowProbe(tele_every, snapshots.__next__)
        for _ in rows:
            probe.sample()
        timeline = probe.timeline()
    stats = SystemStats(
        variant=system.variant,
        instructions=c[_INSTRUCTIONS],
        cycles=max(cycles.tolist()),
        l1d=CacheStats(*c[_L1:_L2]),
        l2c=CacheStats(*c[_L2:_LLC]),
        llc=CacheStats(*c[_LLC:_SDC]),
        sdc=CacheStats(*c[_SDC:_DRAM]) if system.sdc is not None else None,
        dram=DRAMStats(*c[_DRAM:_PRED]),
        lp=LPStats(*c[_PRED:_TLB]) if pt is not None else None,
        levels=levels if record_levels else None,
        tlb=TLBStats(*c[_TLB:_INSTRUCTIONS]) if tlb is not None else None,
        timeline=timeline)
    system.spend()
    return stats
