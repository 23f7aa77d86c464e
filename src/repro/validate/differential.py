"""Differential validation: implementations that must agree.

The reference loop is the spec; these twins run the same access
stream through two implementations and assert bit-identical final
stats:

* **``MultiCoreSystem(num_cores=1)`` vs. ``SingleCoreSystem``** — the
  coherence-protocol walk with one core must degenerate exactly to the
  single-core system, under every LLC policy and L1 prefetcher the
  single-core loop takes;
* **reference loop vs. batch kernel** — every single-core variant
  under every LLC replacement policy the DSE samples
  (:data:`LLC_POLICIES`).

The multi-core twin runs with ``backend="ref"`` on both sides, since
the kernel has no multi-core model.  Used from ``tests/test_validate.py``
and ``tests/test_batch_backend.py``; any mismatch is a bug in one of
the twins (the bugfix history lives in CHANGES.md).  The live-state
invariants (:mod:`repro.validate.invariants`) police the rest.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import SystemConfig
from repro.core.multicore import MultiCoreSystem
from repro.core.system import SingleCoreSystem, SystemStats
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
# The differential pairs
# ---------------------------------------------------------------------------

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
