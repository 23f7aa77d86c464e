"""SDCDir — the cache-directory extension tracking SDC contents (§III-C).

Every block resident in any SDC has an SDCDir entry holding its tag,
coherence state and a sharer bit-vector (Fig. 6).  The structure is
set-associative and capacity-limited: when an SDCDir entry is evicted,
all SDC copies of that block are invalidated (written back if dirty),
so SDC contents are always a subset of SDCDir contents — the invariant
the coherence tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SDCDirConfig


@dataclass
class SDCDirStats:
    lookups: int = 0
    hits: int = 0
    inserts: int = 0
    evictions: int = 0


class SDCDirectory:
    """Set-associative directory over SDC-resident blocks."""

    def __init__(self, config: SDCDirConfig | None = None,
                 num_cores: int = 1):
        self.config = config or SDCDirConfig()
        self.num_cores = num_cores
        self.entries = self.config.entries_per_core * num_cores
        self.ways = self.config.ways
        self.num_sets = max(1, self.entries // self.ways)
        self.latency = self.config.latency
        # Per set: dict block -> [sharer_bits, dirty_core, lru]
        # dirty_core is -1 when clean, else the owning core id.
        self.sets: list[dict[int, list[int]]] = [dict()
                                                 for _ in range(self.num_sets)]
        self._clock = 0
        self.stats = SDCDirStats()

    def _lines(self, block: int) -> dict[int, list[int]]:
        return self.sets[block % self.num_sets]

    def lookup(self, block: int, touch: bool = True) -> list[int] | None:
        """Probe without allocation; returns the entry or None.

        ``touch=True`` (an access with allocation/reuse intent) bumps
        the entry's recency; ``touch=False`` is a pure coherence probe
        that must not perturb victim choice — read-only consultations
        (miss-path directory messages, residency checks) use it so they
        cannot keep dead entries alive.
        """
        self.stats.lookups += 1
        lines = self._lines(block)
        entry = lines.get(block)
        if entry is not None:
            self.stats.hits += 1
            if touch:
                self._clock += 1
                entry[2] = self._clock
                # Keep each set's dict in LRU order (see insert()).
                del lines[block]
                lines[block] = entry
        return entry

    def sharers(self, block: int) -> int:
        """Sharer bit-vector of a block (recency-neutral probe)."""
        entry = self._lines(block).get(block)
        return entry[0] if entry is not None else 0

    def insert(self, block: int, core: int, dirty: bool
               ) -> list[int] | None:
        """Register a block entering core's SDC.

        Returns ``[evicted_block, sharer_bits, dirty_core]`` when a
        victim entry had to be displaced (its SDC copies must be
        invalidated by the caller), else None.
        """
        lines = self._lines(block)
        self._clock += 1
        entry = lines.get(block)
        if entry is not None:
            entry[0] |= 1 << core
            if dirty:
                entry[1] = core
            entry[2] = self._clock
            del lines[block]
            lines[block] = entry
            return None
        self.stats.inserts += 1
        displaced = None
        if len(lines) >= self.ways:
            # Dict order is LRU order (every recency bump moves the
            # entry to the end), so the victim is the first key.
            victim = next(iter(lines))
            v = lines.pop(victim)
            self.stats.evictions += 1
            displaced = [victim, v[0], v[1]]
        lines[block] = [1 << core, core if dirty else -1, self._clock]
        return displaced

    def remove_sharer(self, block: int, core: int) -> tuple[bool, bool]:
        """Drop core's sharer bit; returns ``(was_present,
        was_dirty_owner)``.

        When the departing core was the dirty owner, its SDC copy held
        the only valid data — the caller must either write the line
        back to DRAM or hand the dirty payload to whoever takes over
        (e.g. an L1 fill with ``dirty=True``).  Silently discarding the
        second flag loses a writeback.
        """
        lines = self._lines(block)
        entry = lines.get(block)
        if entry is None:
            return False, False
        was_dirty_owner = entry[1] == core
        entry[0] &= ~(1 << core)
        if was_dirty_owner:
            entry[1] = -1
        if entry[0] == 0:
            del lines[block]
        return True, was_dirty_owner

    def drop(self, block: int) -> None:
        self._lines(block).pop(block, None)

    def mark_dirty(self, block: int, core: int) -> None:
        entry = self._lines(block).get(block)
        if entry is not None:
            entry[1] = core

    def clear_dirty(self, block: int) -> bool:
        """Clear dirty ownership (the owning SDC's copy was cleaned and
        written back); returns True when an owner was recorded.

        Keeps the directory's dirty state in lock-step with the SDC
        line's dirty bit — the agreement the coherence invariants
        assert."""
        entry = self._lines(block).get(block)
        if entry is None or entry[1] < 0:
            return False
        entry[1] = -1
        return True

    def tracked_blocks(self):
        for lines in self.sets:
            yield from lines
