"""Expert Programmer baseline (paper §IV-E item v, §V-C).

The paper's expert inspects per-data-structure performance data and
marks the structures whose accesses are cache-averse for SDC routing.
We automate exactly that analysis: profile the workload on the Baseline
configuration, measure the fraction of each region's accesses that end
up served by DRAM, and classify regions above a threshold as
cache-averse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.mem.hierarchy import DRAM
from repro.trace.record import Trace


@dataclass(frozen=True)
class RegionProfile:
    """Per-data-structure profiling record."""

    region_id: int
    name: str
    accesses: int
    dram_accesses: int

    @property
    def dram_fraction(self) -> float:
        return self.dram_accesses / self.accesses if self.accesses else 0.0


def profile_regions(trace: Trace, config: SystemConfig | None = None,
                    levels: np.ndarray | None = None) -> list[RegionProfile]:
    """Measure the DRAM-served fraction of every region's accesses.

    ``levels`` may be supplied from a previous instrumented baseline run;
    otherwise a baseline simulation is performed here.
    """
    if levels is None:
        from repro.core.system import SingleCoreSystem
        system = SingleCoreSystem(config, variant="baseline")
        levels = system.run(trace, record_levels=True).levels
    space = trace.address_space
    rids = space.classify_addresses(trace.accesses["addr"].astype(np.int64))
    names = list(space.regions)
    out = []
    is_dram = levels == DRAM
    for rid, name in enumerate(names):
        sel = rids == rid
        out.append(RegionProfile(rid, name, int(sel.sum()),
                                 int((sel & is_dram).sum())))
    return out


def classify_regions(profiles: list[RegionProfile],
                     dram_threshold: float = 0.30,
                     min_accesses: int = 256) -> set[int]:
    """The expert's judgement: regions whose accesses mostly miss the
    whole hierarchy are cache-averse and belong in the SDC."""
    return {p.region_id for p in profiles
            if p.accesses >= min_accesses
            and p.dram_fraction >= dram_threshold}


def expert_regions_for(trace: Trace, config: SystemConfig | None = None,
                       dram_threshold: float = 0.30) -> set[int]:
    """Convenience: profile + classify in one step."""
    return classify_regions(profile_regions(trace, config),
                            dram_threshold=dram_threshold)


def expert_regions_best(trace: Trace, config: SystemConfig | None = None,
                        thresholds=(0.15, 0.30, 0.50)) -> set[int]:
    """The full Expert Programmer workflow (§IV-E item v): profile the
    workload, form candidate cache-averse sets at several DRAM-fraction
    thresholds, *measure* each candidate, and keep the fastest.

    This is what "judicious analysis of ... performance data" amounts
    to operationally — the expert iterates with a profiler until the
    classification performs.
    """
    from repro.core.system import SingleCoreSystem
    profiles = profile_regions(trace, config)
    candidates = {frozenset(classify_regions(profiles, dram_threshold=t))
                  for t in thresholds}
    candidates.add(frozenset())           # "route nothing" is always legal
    best: set[int] = set()
    best_cycles = None
    for cand in sorted(candidates, key=sorted):
        system = SingleCoreSystem(config, variant="expert",
                                  expert_regions=set(cand))
        cycles = system.run(trace).cycles
        if best_cycles is None or cycles < best_cycles:
            best_cycles = cycles
            best = set(cand)
    return best
