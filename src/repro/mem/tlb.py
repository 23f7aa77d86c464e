"""TLB hierarchy (paper Table I: L1 DTLB 64-entry/4-way/1-cycle,
L2 TLB 1536-entry/12-way/8-cycle).

Both the L1D and the SDC are VIPT (§III-E), so the L1 DTLB lookup
overlaps the cache index phase: a DTLB hit adds no latency, an L1 DTLB
miss pays the L2 TLB latency, and a full miss pays a page-walk penalty.
The walk cost models the radix-walk memory references hitting the cache
hierarchy (a fixed, configurable number of L2C-latency steps), which is
the standard trace-driven approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

PAGE_BITS = 12   # 4 KiB pages


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of one TLB level."""

    name: str
    entries: int
    ways: int
    latency: int

    @property
    def num_sets(self) -> int:
        if self.entries % self.ways:
            raise ValueError(f"{self.name}: entries not divisible by ways")
        return self.entries // self.ways


L1_DTLB = TLBConfig("L1-DTLB", 64, 4, 1)
L2_TLB = TLBConfig("L2-TLB", 1536, 12, 8)


@dataclass
class TLBStats:
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    walks: int = 0

    @property
    def l1_miss_rate(self) -> float:
        return 1 - self.l1_hits / self.accesses if self.accesses else 0.0


class _TLBLevel:
    """One set-associative TLB level (LRU)."""

    def __init__(self, config: TLBConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.sets: list[dict[int, int]] = [dict()
                                           for _ in range(self.num_sets)]
        self._clock = 0

    def access(self, page: int) -> bool:
        lines = self.sets[page % self.num_sets]
        self._clock += 1
        if page in lines:
            lines[page] = self._clock
            return True
        return False

    def fill(self, page: int) -> None:
        lines = self.sets[page % self.num_sets]
        self._clock += 1
        if page not in lines and len(lines) >= self.ways:
            victim = min(lines, key=lines.get)
            del lines[victim]
        lines[page] = self._clock


class TLBHierarchy:
    """L1 DTLB + L2 TLB + page-walk cost model."""

    def __init__(self, l1: TLBConfig = L1_DTLB, l2: TLBConfig = L2_TLB,
                 walk_latency: int = 60):
        self.l1 = _TLBLevel(l1)
        self.l2 = _TLBLevel(l2)
        self.walk_latency = walk_latency
        self.stats = TLBStats()

    def translate(self, addr: int) -> int:
        """Translate one byte address; returns the added latency
        (0 for an L1 DTLB hit — VIPT overlap)."""
        return self.translate_page(addr >> PAGE_BITS)

    def translate_page(self, page: int) -> int:
        """Translate a page number (a byte address >> ``PAGE_BITS``)."""
        st = self.stats
        st.accesses += 1
        if self.l1.access(page):
            st.l1_hits += 1
            return 0
        if self.l2.access(page):
            st.l2_hits += 1
            self.l1.fill(page)
            return self.l2.config.latency
        st.walks += 1
        self.l2.fill(page)
        self.l1.fill(page)
        return self.l2.config.latency + self.walk_latency
