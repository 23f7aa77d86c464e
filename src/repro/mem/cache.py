"""Set-associative cache with pluggable replacement.

Reference-granular state: real tags, dirty bits, per-line replacement
priority.  Timing (latencies, MSHR occupancy) is accounted one layer up
in :mod:`repro.mem.hierarchy` / :mod:`repro.mem.timing`; this class is
purely about *what is resident*.

Lines are plain 3-slot lists (``[prio, dirty, prefetch]``) inside one
dict per set.  A block's set is ``block % num_sets`` and its tag
``block // num_sets``.  Every hit and fill goes through the
replacement policy's hooks (:mod:`repro.mem.replacement`); LRU keeps
each set's dict in recency order, so its victim is the first key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CacheConfig
from repro.mem.replacement import make_policy


@dataclass
class CacheStats:
    """Demand/prefetch/writeback counters for one cache.

    ``fills`` counts line *installs* (not refreshes of already-resident
    lines) and ``invalidations`` counts removals via ``invalidate``/
    ``flush``, so the ledger ``fills - evictions - invalidations ==
    occupancy`` holds whenever the stat window covers the cache's whole
    life — one of the conservation laws ``repro.validate`` checks.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0       # demand hits on prefetched lines
    writebacks: int = 0
    evictions: int = 0
    fills: int = 0               # line installs (demand + prefetch)
    invalidations: int = 0       # removals via invalidate()/flush()

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        return 1000.0 * self.misses / instructions if instructions else 0.0

    def merged(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.accesses + other.accesses, self.hits + other.hits,
            self.misses + other.misses,
            self.prefetch_fills + other.prefetch_fills,
            self.prefetch_hits + other.prefetch_hits,
            self.writebacks + other.writebacks,
            self.evictions + other.evictions,
            self.fills + other.fills,
            self.invalidations + other.invalidations)


class SetAssocCache:
    """One level of set-associative cache."""

    def __init__(self, config: CacheConfig, policy=None):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.latency = config.latency
        self.sets: list[dict[int, list]] = [dict()
                                            for _ in range(self.num_sets)]
        if policy is not None:
            self.policy = policy
        elif config.replacement == "drrip":
            self.policy = make_policy("drrip", num_sets=self.num_sets)
        else:
            self.policy = make_policy(config.replacement)
        # Optional policy hooks (set-dueling policies need to know the
        # set and observe misses); resolved once to keep the hot path
        # free of hasattr checks.
        self._policy_bind = getattr(self.policy, "bind_set", None)
        self._policy_miss = getattr(self.policy, "on_miss", None)
        self.stats = CacheStats()

    def _split(self, block: int) -> tuple[int, int]:
        """(set_idx, tag) of a block."""
        return block % self.num_sets, block // self.num_sets

    def _join(self, set_idx: int, tag: int) -> int:
        """Reconstruct a block address from (set_idx, tag)."""
        return tag * self.num_sets + set_idx

    def _line(self, block: int) -> list | None:
        return self.sets[block % self.num_sets].get(block // self.num_sets)

    # -- residency queries (no state change) ------------------------------
    def contains(self, block: int) -> bool:
        return block // self.num_sets in self.sets[block % self.num_sets]

    def resident_blocks(self):
        """Iterate over all resident block addresses (for invariants)."""
        for set_idx, lines in enumerate(self.sets):
            for tag in lines:
                yield self._join(set_idx, tag)

    def dirty_blocks(self):
        """Iterate over resident blocks whose dirty bit is set."""
        for set_idx, lines in enumerate(self.sets):
            for tag, line in lines.items():
                if line[1]:
                    yield self._join(set_idx, tag)

    def is_dirty(self, block: int) -> bool:
        line = self._line(block)
        return bool(line[1]) if line is not None else False

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self.sets)

    # -- demand path -------------------------------------------------------
    def access(self, block: int, write: bool, aux=None) -> bool:
        """Demand lookup; returns True on hit.  Does NOT fill on miss —
        the hierarchy decides where fetched data is installed."""
        st = self.stats
        st.accesses += 1
        set_idx = block % self.num_sets
        tag = block // self.num_sets
        lines = self.sets[set_idx]
        if self._policy_bind is not None:
            self._policy_bind(set_idx)
        line = lines.get(tag)
        if line is None:
            st.misses += 1
            if self._policy_miss is not None:
                self._policy_miss()
            return False
        st.hits += 1
        if line[2]:
            st.prefetch_hits += 1
            line[2] = 0
        if write:
            line[1] = 1
        self.policy.on_hit(lines, tag, aux)
        return True

    def fill(self, block: int, dirty: bool = False, prefetch: bool = False,
             aux=None) -> tuple[int, bool] | None:
        """Install a block; returns ``(evicted_block, was_dirty)`` or None.

        Re-fill semantics (block already resident): the line's recency
        and dirty bit are updated, and no install is counted.  A
        *demand* re-fill (``prefetch=False``) additionally clears a
        stale prefetch bit — the line now holds demanded data, so a
        later demand hit must not be credited to the prefetcher.  A
        *prefetch* re-fill is a no-op for the prefetch machinery: the
        bit is left unchanged and ``prefetch_fills`` is not incremented
        (nothing was installed), so prefetch accuracy cannot be
        inflated by re-prefetching resident lines.
        """
        set_idx = block % self.num_sets
        tag = block // self.num_sets
        lines = self.sets[set_idx]
        if self._policy_bind is not None:
            self._policy_bind(set_idx)
        line = lines.get(tag)
        if line is not None:
            if dirty:
                line[1] = 1
            if not prefetch:
                line[2] = 0
            self.policy.on_hit(lines, tag, aux)
            return None
        st = self.stats
        evicted = None
        if len(lines) >= self.ways:
            victim_tag = self.policy.victim(lines)
            vline = lines.pop(victim_tag)
            st.evictions += 1
            if vline[1]:
                st.writebacks += 1
            evicted = (victim_tag * self.num_sets + set_idx, bool(vline[1]))
        new_line = [0, 1 if dirty else 0, 1 if prefetch else 0]
        self.policy.on_fill(new_line, aux)
        lines[tag] = new_line
        st.fills += 1
        if prefetch:
            st.prefetch_fills += 1
        return evicted

    def invalidate(self, block: int) -> tuple[bool, bool]:
        """Remove a block; returns ``(was_present, was_dirty)``."""
        line = self.sets[block % self.num_sets].pop(
            block // self.num_sets, None)
        if line is None:
            return False, False
        self.stats.invalidations += 1
        return True, bool(line[1])

    def clear_dirty(self, block: int) -> bool:
        """Clear the dirty bit (after an explicit writeback); returns
        True when the block was resident and dirty."""
        line = self._line(block)
        if line is None or not line[1]:
            return False
        line[1] = 0
        return True

    def mark_dirty(self, block: int) -> bool:
        """Set the dirty bit of a resident block (writeback arrival)."""
        line = self._line(block)
        if line is None:
            return False
        line[1] = 1
        return True

    def flush(self) -> None:
        for s in self.sets:
            self.stats.invalidations += len(s)
            s.clear()
