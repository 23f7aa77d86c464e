"""Run workloads under design variants, with caching of expert profiles."""

from __future__ import annotations

import functools
import math

from repro.config import SystemConfig, scaled_config
from repro.core.expert import expert_regions_for
from repro.core.system import SingleCoreSystem, SystemStats
from repro.experiments.workloads import (DEFAULT_TIER, DEFAULT_TRACE_LEN,
                                         Workload, workload_trace)
from repro.trace.record import Trace

DEFAULT_SCALE = 16
"""Cache-capacity divisor pairing with the DEFAULT_TIER graphs so that
the footprint/LLC ratio lands in the paper's regime (DESIGN.md §7)."""

GEOMEAN_CLAMP = 1e-12
"""Floor applied inside geometric means so degenerate ratios (zero or
negative cycle counts from pathological inputs) cannot poison the log;
shared with :func:`repro.experiments.figures.geomean`."""


@functools.lru_cache(maxsize=None)
def default_config(num_cores: int = 1) -> SystemConfig:
    """:data:`DEFAULT_SCALE`'s config for ``num_cores`` cores.  Cached:
    callers share one frozen config, so its memoised digest is computed
    once per process."""
    return scaled_config(DEFAULT_SCALE, num_cores=num_cores)


def run_variant(trace: Trace, variant: str,
                config: SystemConfig | None = None,
                record_levels: bool = False,
                expert_regions: set[int] | None = None,
                telemetry_every: int | None = None,
                backend: str | None = None) -> SystemStats:
    """Simulate one trace under one variant.

    ``telemetry_every`` enables windowed metric sampling every N
    accesses (see :mod:`repro.telemetry`); the resulting timeline
    rides on ``SystemStats.timeline``.  ``backend`` selects the
    execution engine behind ``SingleCoreSystem.run`` (``"batch"`` /
    ``"ref"``; None defers to ``REPRO_BACKEND``, default batch).  The
    system is built for this one run and dropped after it.
    """
    cfg = config or default_config()
    if variant == "expert" and expert_regions is None:
        expert_regions = expert_regions_for(trace, cfg)
    system = SingleCoreSystem(cfg, variant=variant,
                              expert_regions=expert_regions,
                              telemetry_every=telemetry_every)
    return system.run(trace, record_levels=record_levels,
                      backend=backend)


def run_workload(wl: Workload | str, variant: str = "baseline",
                 config: SystemConfig | None = None,
                 tier: str = DEFAULT_TIER,
                 length: int = DEFAULT_TRACE_LEN,
                 record_levels: bool = False) -> SystemStats:
    """Trace + simulate one workload under one variant."""
    trace = workload_trace(wl, tier=tier, length=length)
    return run_variant(trace, variant, config=config,
                       record_levels=record_levels)


def speedup(baseline: SystemStats, other: SystemStats) -> float:
    """Relative performance improvement (positive = faster), as the
    paper reports it: cycles(baseline) / cycles(other) - 1."""
    if other.cycles == 0:
        return 0.0
    return baseline.cycles / other.cycles - 1.0


def geomean_speedup(pairs: list[tuple[SystemStats, SystemStats]]) -> float:
    """Geometric-mean speedup over (baseline, variant) result pairs."""
    if not pairs:
        return 0.0
    log_sum = sum(math.log(max(GEOMEAN_CLAMP,
                               b.cycles / max(GEOMEAN_CLAMP, v.cycles)))
                  for b, v in pairs)
    return math.exp(log_sum / len(pairs)) - 1.0
