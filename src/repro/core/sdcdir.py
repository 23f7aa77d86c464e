"""SDCDir — the cache-directory extension tracking SDC contents (§III-C).

Every block resident in any SDC has an SDCDir entry holding its tag,
coherence state and a sharer bit-vector (Fig. 6).  The structure is
set-associative and capacity-limited: when an SDCDir entry is evicted,
all SDC copies of that block are invalidated (written back if dirty),
so SDC contents are always a subset of SDCDir contents — the invariant
the coherence tests assert.

The §III-C rules that move SDC copies are methods here, written once
for any core: :meth:`SDCDirectory.install` (a demand or prefetch fill),
:meth:`~SDCDirectory.transfer` (an SDC copy into an L1D on a
regular-path miss) and :meth:`~SDCDirectory.drop_duplicate` (a write
hit in an L1D).  Each takes the per-core list of SDCs and a core id;
``SingleCoreSystem`` calls them as the one-core case.
"""

from __future__ import annotations

from repro.config import SDCDirConfig


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

    def _lines(self, block: int) -> dict[int, list[int]]:
        return self.sets[block % self.num_sets]

    def lookup(self, block: int, touch: bool = True) -> list[int] | None:
        """Probe without allocation; returns the entry or None.

        ``touch=True`` (an access with allocation/reuse intent) bumps
        the entry's recency; ``touch=False`` is a pure probe that must
        not perturb victim choice, so a read-only inspection cannot
        keep a dead entry alive.
        """
        lines = self._lines(block)
        entry = lines.get(block)
        if entry is not None:
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
        displaced = None
        if len(lines) >= self.ways:
            # Dict order is LRU order (every recency bump moves the
            # entry to the end), so the victim is the first key.
            victim = next(iter(lines))
            v = lines.pop(victim)
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

    # -- the §III-C rules, for any core ------------------------------------
    def install(self, sdcs: list, core: int, block: int, dram,
                dirty: bool = False, prefetch: bool = False) -> None:
        """Fill ``block`` into core's SDC (a demand fill, or a prefetch
        with ``prefetch=True``), keeping the subset invariant and single
        valid copy.

        An SDCDir entry the insert displaces takes every sharer's SDC
        copy with it, and the line the fill evicts drops its sharer bit.
        Either dirty flag (the line's bit or the directory's recorded
        owner) obliges a writeback, so a stale flag on one side can
        never lose one.
        """
        displaced = self.insert(block, core, dirty)
        if displaced is not None:
            ev_block, sharers, owner = displaced
            for c, sdc in enumerate(sdcs):
                if sharers >> c & 1:
                    was, was_dirty = sdc.invalidate(ev_block)
                    if (was and was_dirty) or owner == c:
                        dram.write(ev_block)
        evicted = sdcs[core].fill(block, dirty=dirty, prefetch=prefetch)
        if evicted is not None:
            ev_block, ev_dirty = evicted
            _, was_owner = self.remove_sharer(ev_block, core)
            if ev_dirty or was_owner:
                dram.write(ev_block)

    def clean(self, sdcs: list, block: int, dram) -> None:
        """A read shares ``block``, which some SDC holds: a dirty copy
        (the only copy while dirty, so the lowest sharer's) is written
        back and stays as a clean copy, and the directory's dirty
        ownership drops with it, or a later eviction would write it
        back again."""
        sharers = self.sharers(block)
        owner = (sharers & -sharers).bit_length() - 1
        if sdcs[owner].clear_dirty(block):
            self.clear_dirty(block)
            dram.write(block)

    def transfer(self, sdcs: list, core: int, block: int, write: bool,
                 hierarchy) -> int | None:
        """Serve a regular-path L1D miss of core from an SDC copy, probed
        in parallel with the L2C; returns the latency past the L1D, or
        None when no SDC holds ``block``.

        A read cleans the copy and leaves it shared; a write claims the
        single valid copy: every SDC copy is dropped, and dirty data
        rides into the L1D fill (``dirty=True``), so the ownership flag
        ``remove_sharer`` drops owes no writeback here.
        """
        sharers = self.sharers(block)
        if not sharers:
            return None
        if write:
            for c, sdc in enumerate(sdcs):
                if sharers >> c & 1:
                    sdc.invalidate(block)
                    self.remove_sharer(block, c)
        else:
            self.clean(sdcs, block, hierarchy.dram)
        hierarchy._fill_l1(block, dirty=write)
        return max(hierarchy.l2c.latency,
                   sdcs[core].latency + self.latency)

    def drop_duplicate(self, sdcs: list, core: int, block: int) -> None:
        """A write hit in core's L1D claims the single valid copy: the
        clean duplicate core's SDC may hold (left by an earlier shared
        read) is stale and goes."""
        if self.sharers(block) >> core & 1:
            sdcs[core].invalidate(block)
            self.remove_sharer(block, core)
