"""Differential validation: redundant implementations must agree.

PR 1 specialised the simulator's hot paths (dict-order LRU with O(1)
victim pick, shift/mask set indexing, the inlined ``access_fast`` walk).
Each specialisation has a generic twin that is deliberately kept alive;
this module runs the same access stream through both and asserts
bit-identical final state and stats:

* **inlined LRU vs. generic policy** — the move-to-end dict discipline
  vs. ``LRUPolicy.victim``'s priority scan;
* **``access`` vs. ``access_fast``** — the allocation-free inlined walk
  vs. the result-object API;
* **shift/mask vs. div/mod indexing** — every pow2 geometry forced onto
  the ``_set_mask == -1`` fallback paths;
* **``MultiCoreSystem(num_cores=1)`` vs. ``SingleCoreSystem``** — the
  coherence-protocol walk with one core must degenerate exactly to the
  single-core system;
* **reference loop vs. batch kernel** — every single-core variant
  under every LLC replacement policy the DSE samples
  (:data:`LLC_POLICIES`).

The reference-loop twins run with ``backend="ref"``: they police the
Python loop's specialisations, which the default batch engine would
otherwise run past.  Used from ``tests/test_validate.py``; any mismatch
is a bug in one of the twins (the bugfix history lives in CHANGES.md).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import BLOCK_BITS, SystemConfig
from repro.core.multicore import MultiCoreSystem
from repro.core.system import SingleCoreSystem, SystemStats
from repro.mem.cache import SetAssocCache
from repro.mem.hierarchy import MemoryHierarchy
from repro.trace.record import Trace


class DifferentialMismatch(AssertionError):
    """Two implementations that must agree produced different results."""


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------

_STAT_FIELDS = ("instructions", "cycles", "l1d", "l2c", "llc", "sdc",
                "dram", "lp", "tlb")


def stats_delta(a: SystemStats, b: SystemStats,
                ignore: tuple[str, ...] = ()) -> list[str]:
    """Field-by-field differences between two runs (empty = identical)."""
    diffs: list[str] = []
    for field in _STAT_FIELDS:
        if field in ignore:
            continue
        va, vb = getattr(a, field), getattr(b, field)
        if dataclasses.is_dataclass(va) and dataclasses.is_dataclass(vb):
            da, db = dataclasses.asdict(va), dataclasses.asdict(vb)
            for key in sorted(set(da) | set(db)):
                if da.get(key) != db.get(key):
                    diffs.append(f"{field}.{key}: {da.get(key)} != "
                                 f"{db.get(key)}")
        elif va != vb:
            diffs.append(f"{field}: {va} != {vb}")
    return diffs


def assert_stats_equal(a: SystemStats, b: SystemStats, label: str,
                       ignore: tuple[str, ...] = ()) -> None:
    diffs = stats_delta(a, b, ignore=ignore)
    if a.levels is not None and b.levels is not None \
            and not np.array_equal(a.levels, b.levels):
        first = int(np.argmax(a.levels != b.levels))
        diffs.append(f"levels diverge first at access {first}: "
                     f"{a.levels[first]} != {b.levels[first]}")
    if diffs:
        raise DifferentialMismatch(
            f"{label}: final state diverged\n  " + "\n  ".join(diffs))


# ---------------------------------------------------------------------------
# Twin-selection helpers
# ---------------------------------------------------------------------------

def _system_caches(system: SingleCoreSystem) -> list[SetAssocCache]:
    h = system.hierarchy
    caches = [h.l1d, h.l2c]
    if isinstance(h.llc, SetAssocCache):
        caches.append(h.llc)
    for extra in (system.sdc, system.victim):
        if extra is not None:
            caches.append(extra)
    return caches


def use_generic_lru(system: SingleCoreSystem) -> SingleCoreSystem:
    """Disable the inlined-LRU fast path on every cache of a system.

    The caches keep their ``LRUPolicy`` instances; clearing ``_lru``
    routes every hit/fill/victim decision through the generic
    ``on_hit``/``on_fill``/``victim`` protocol instead of the
    move-to-end dict discipline.
    """
    for cache in _system_caches(system):
        cache._lru = None
    return system


def force_divmod(system) -> object:
    """Force the div/mod set-indexing fallback on every structure.

    Works on a :class:`SingleCoreSystem` or :class:`MultiCoreSystem`;
    flips ``_set_mask`` to the sentinel ``-1`` so every inlined
    shift/mask probe takes its generic branch.
    """
    if isinstance(system, MultiCoreSystem):
        caches: list = []
        for h in system.cores:
            caches.extend([h.l1d, h.l2c])
        if isinstance(system.llc, SetAssocCache):
            caches.append(system.llc)
        caches.extend(s for s in system.sdcs if s is not None)
        dirs = [system.sdcdir] if system.sdcdir is not None else []
    else:
        caches = _system_caches(system)
        dirs = [system.sdcdir] if system.sdcdir is not None else []
    for cache in caches:
        cache._set_mask = -1
        cache._set_bits = 0
    for d in dirs:
        d._set_mask = -1
    return system


# ---------------------------------------------------------------------------
# The differential pairs
# ---------------------------------------------------------------------------

def diff_inlined_vs_generic_lru(trace: Trace,
                                config: SystemConfig | None = None,
                                variant: str = "baseline"
                                ) -> tuple[SystemStats, SystemStats]:
    """Inlined dict-order LRU vs. the generic ``LRUPolicy`` protocol."""
    cfg = config or SystemConfig()
    fast = SingleCoreSystem(cfg, variant).run(trace, record_levels=True,
                                              backend="ref")
    generic_system = use_generic_lru(SingleCoreSystem(cfg, variant))
    generic = generic_system.run(trace, record_levels=True, backend="ref")
    assert_stats_equal(fast, generic, "inlined-LRU vs generic-LRU")
    return fast, generic


def diff_access_vs_access_fast(trace: Trace,
                               config: SystemConfig | None = None) -> None:
    """``MemoryHierarchy.access`` vs. ``access_fast``, access by access."""
    cfg = config or SystemConfig()
    via_result = MemoryHierarchy(cfg)
    via_fast = MemoryHierarchy(cfg)
    acc = trace.accesses
    blocks = (acc["addr"] >> BLOCK_BITS).astype(np.int64).tolist()
    writes = acc["write"].tolist()
    pcs = acc["pc"].astype(np.int64).tolist()
    for i, (block, write, pc) in enumerate(zip(blocks, writes, pcs)):
        res = via_result.access(block, bool(write), pc=pc)
        level, latency = via_fast.access_fast(block, bool(write), pc=pc)
        if (res.level, res.latency) != (level, latency):
            raise DifferentialMismatch(
                f"access vs access_fast: access {i} (block {block}) "
                f"served ({res.level}, {res.latency}) vs "
                f"({level}, {latency})")
    for name in ("l1d", "l2c", "llc"):
        a = dataclasses.asdict(getattr(via_result, name).stats)
        b = dataclasses.asdict(getattr(via_fast, name).stats)
        if a != b:
            raise DifferentialMismatch(
                f"access vs access_fast: {name} stats diverged: {a} != {b}")
    if dataclasses.asdict(via_result.dram.stats) != \
            dataclasses.asdict(via_fast.dram.stats):
        raise DifferentialMismatch("access vs access_fast: DRAM stats "
                                   "diverged")


def diff_pow2_vs_divmod(trace: Trace, config: SystemConfig | None = None,
                        variant: str = "baseline"
                        ) -> tuple[SystemStats, SystemStats]:
    """Shift/mask indexing vs. the forced div/mod fallback."""
    cfg = config or SystemConfig()
    pow2 = SingleCoreSystem(cfg, variant).run(trace, record_levels=True,
                                              backend="ref")
    fallback_system = force_divmod(SingleCoreSystem(cfg, variant))
    fallback = fallback_system.run(trace, record_levels=True,
                                   backend="ref")
    assert_stats_equal(pow2, fallback, "pow2 shift/mask vs div/mod")
    return pow2, fallback


def diff_multicore1_vs_single(trace: Trace,
                              config: SystemConfig | None = None,
                              variant: str = "baseline"
                              ) -> tuple[SystemStats, SystemStats]:
    """A 1-core ``MultiCoreSystem`` must degenerate to the single-core
    system: identical per-core stats, cycles and DRAM traffic."""
    cfg = dataclasses.replace(config or SystemConfig(), num_cores=1)
    single = SingleCoreSystem(cfg, variant).run(trace, backend="ref")
    multi = MultiCoreSystem(cfg, variant).run([trace], backend="ref")
    assert_stats_equal(single, multi.per_core[0],
                       f"multicore(1) vs single-core [{variant}]")
    return single, multi.per_core[0]


#: The six fig. 7 comparison variants the ref-vs-batch twin must cover.
FIG7_VARIANTS = ("baseline", "l1iso", "distill", "topt", "llc2x",
                 "sdc_lp")

#: The LLC replacement policies the DSE samples; the ref-vs-batch twin
#: covers every single-core variant under each.
LLC_POLICIES = ("lru", "srrip", "drrip", "ship")


def diff_ref_vs_batch(trace: Trace, config: SystemConfig | None = None,
                      variant: str = "baseline",
                      telemetry_every: int = 4096, warmup: int = 0
                      ) -> tuple[SystemStats, SystemStats]:
    """Reference Python loop vs. the compiled SoA batch backend.

    The strongest twin in the suite: the batch backend re-implements the
    whole single-core state machine in C over structure-of-arrays
    buffers (:mod:`repro.core.batch`), so *every* field of the result —
    counters, float cycles, per-access serving levels and the windowed
    telemetry payload — must be bit-identical to the reference.

    Raises :class:`RuntimeError` when the kernel cannot be loaded on
    this host (no C compiler): callers skip rather than fail, while the
    CI gate runs on hosts that are guaranteed a compiler.
    """
    from repro.core.batch import (kernel_available, try_run_batch,
                                  unsupported_reason)
    if not kernel_available():
        raise RuntimeError("batch kernel unavailable on this host")
    cfg = config or SystemConfig()
    kwargs = {}
    if variant == "expert":
        from repro.core.expert import expert_regions_for
        kwargs["expert_regions"] = expert_regions_for(trace, cfg)
    ref = SingleCoreSystem(cfg, variant, telemetry_every=telemetry_every,
                           **kwargs).run(
        trace, record_levels=True, warmup=warmup, backend="ref")
    label = f"ref vs batch [{variant}]"
    batch_system = SingleCoreSystem(cfg, variant,
                                    telemetry_every=telemetry_every,
                                    **kwargs)
    got = try_run_batch(batch_system, trace, record_levels=True,
                        warmup=warmup)
    if got is None:
        raise DifferentialMismatch(
            f"{label}: batch backend refused the run "
            f"({unsupported_reason(batch_system, trace)})")
    assert_stats_equal(ref, got, label)
    ta = ref.timeline.to_payload() if ref.timeline is not None else None
    tb = got.timeline.to_payload() if got.timeline is not None else None
    if ta != tb:
        raise DifferentialMismatch(f"{label}: telemetry timeline diverged")
    return ref, got
