"""Memory-hierarchy substrate: caches, replacement, prefetchers, DRAM, timing.

The simulator is reference-granular (every access walks real tags, LRU
state, dirty bits and MSHR occupancy) with an interval timing model in
place of a cycle-accurate OOO pipeline — see DESIGN.md §5.
"""

from repro.mem.cache import CacheStats, SetAssocCache
from repro.mem.distill import DistillCache
from repro.mem.dram import DRAMModel
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.prefetch import (NextLinePrefetcher, SPPPrefetcher,
                                StridePrefetcher, make_prefetcher)
from repro.mem.replacement import (BeladyOPT, DRRIPPolicy, LRUPolicy,
                                   SHiPPolicy, SRRIPPolicy, make_policy)
from repro.mem.timing import CoreTimer
from repro.mem.tlb import TLBHierarchy

__all__ = [
    "SetAssocCache",
    "CacheStats",
    "DistillCache",
    "DRAMModel",
    "MemoryHierarchy",
    "LRUPolicy",
    "SRRIPPolicy",
    "DRRIPPolicy",
    "SHiPPolicy",
    "BeladyOPT",
    "make_policy",
    "NextLinePrefetcher",
    "StridePrefetcher",
    "SPPPrefetcher",
    "make_prefetcher",
    "CoreTimer",
    "TLBHierarchy",
]
