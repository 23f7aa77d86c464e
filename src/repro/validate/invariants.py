"""Checkable invariants over live simulator state.

Every predicate here is something the design argues must *always* hold
(paper §III-C coherence rules, structural capacity bounds, counter
conservation laws).  The checks are written against the public state of
the structures (``resident_blocks``, ``dirty_blocks``, ``sets``,
``stats``) so they exercise exactly what the reference loop mutates.

The catalogue (see docs/VALIDATION.md for the prose version):

* **Geometry** — per-set occupancy ≤ ways, total occupancy ≤ sets×ways,
  for every cache, the SDCDir and the LP table (the hardware-budget
  bounds of Table I/IV).
* **LRU order** — for LRU-managed caches the per-set dict order must be
  recency order (oldest first) and priorities strictly increasing; the
  O(1) victim pick (``LRUPolicy.victim``, the first key) is only correct
  under this.
* **Stats conservation** — ``accesses == hits + misses``,
  ``writebacks ≤ evictions``, ``prefetch_hits ≤ hits``, and the fill
  ledger ``fills - evictions - invalidations == occupancy`` (valid
  while the stat window covers the whole run).
* **Level chaining** — on variants where every L1D miss walks the
  conventional hierarchy, ``L2C accesses == L1D misses`` and
  ``LLC accesses == Σ L2C misses``.
* **SDC coherence (§III-C)** — SDC contents ⊆ SDCDir contents; sharer
  bit ⇔ residency agreement per core; directory dirty owner ⇔ SDC line
  dirty bit agreement; a dirty SDC line is the single valid copy
  (no duplicate anywhere in any hierarchy, SDC or the LLC).
* **MSI single-writer (multi-core)** — a block dirty in one core's
  private caches is owned by that core in the directory and resident in
  no other core's private caches or SDCs; at most one dirty owner.
* **Directory superset (multi-core)** — a block resident in core *c*'s
  private caches has its directory sharer bit *c* set.

All raise :class:`InvariantViolation` carrying a diagnostic context
(access index / PC / block of the triggering access when the periodic
hook fired the check, plus the offending structure contents).
"""

from __future__ import annotations

from repro.mem.cache import SetAssocCache
from repro.mem.replacement import LRUPolicy

DEFAULT_CHECK_INTERVAL = 4096
"""Accesses between periodic checks under ``REPRO_VALIDATE=1``."""

#: Variants on which every L1D miss continues into the L2C (no SDC /
#: victim-cache / bypass interception), so the level chain is strict.
STRICT_CHAIN_VARIANTS = frozenset(
    {"baseline", "topt", "distill", "l1iso", "llc2x"})


class InvariantViolation(AssertionError):
    """A machine-checked simulator invariant failed.

    Carries the invariant name, a human-readable detail line and a
    context dict (access index, PC, block, serving level, offending set
    contents — whatever the failing check could attribute).
    """

    def __init__(self, invariant: str, detail: str,
                 context: dict | None = None):
        self.invariant = invariant
        self.detail = detail
        self.context = dict(context or {})
        lines = [f"invariant violated: {invariant}", f"  {detail}"]
        for key, value in self.context.items():
            text = repr(value)
            if len(text) > 400:
                text = text[:400] + "…"
            lines.append(f"  {key} = {text}")
        super().__init__("\n".join(lines))


def _fail(invariant: str, detail: str, ctx: dict | None = None,
          **extra) -> None:
    context = dict(ctx or {})
    context.update(extra)
    raise InvariantViolation(invariant, detail, context)


# ---------------------------------------------------------------------------
# Per-structure checks
# ---------------------------------------------------------------------------

def check_cache_geometry(cache: SetAssocCache, name: str,
                         ctx: dict | None = None) -> None:
    """Occupancy bounds: per-set ≤ ways, total ≤ sets × ways."""
    if len(cache.sets) != cache.num_sets:
        _fail("cache-geometry", f"{name}: {len(cache.sets)} sets allocated, "
              f"config says {cache.num_sets}", ctx)
    for set_idx, lines in enumerate(cache.sets):
        if len(lines) > cache.ways:
            _fail("cache-occupancy",
                  f"{name}: set {set_idx} holds {len(lines)} lines, "
                  f"ways = {cache.ways}", ctx,
                  set_contents={t: list(l) for t, l in lines.items()})
    total = cache.occupancy
    if total > cache.num_sets * cache.ways:
        _fail("cache-occupancy", f"{name}: occupancy {total} exceeds "
              f"{cache.num_sets}x{cache.ways}", ctx)


def check_lru_order(cache: SetAssocCache, name: str,
                    ctx: dict | None = None) -> None:
    """For LRU caches, dict order must equal recency order.

    ``LRUPolicy`` evicts the set's first key in O(1); that is only the
    LRU victim if every recency bump moved the line to the dict's end,
    i.e. priorities are strictly increasing in dict order.
    """
    if type(cache.policy) is not LRUPolicy:
        return
    clock = cache.policy._clock
    for set_idx, lines in enumerate(cache.sets):
        prev = -1
        for tag, line in lines.items():
            if line[0] <= prev:
                _fail("lru-dict-order",
                      f"{name}: set {set_idx} dict order is not recency "
                      f"order (prio {line[0]} after {prev} at tag {tag})",
                      ctx,
                      set_contents={t: list(l) for t, l in lines.items()})
            prev = line[0]
            if line[0] > clock:
                _fail("lru-clock",
                      f"{name}: set {set_idx} tag {tag} has prio "
                      f"{line[0]} beyond the policy clock {clock}", ctx)


def check_cache_stats(cache: SetAssocCache, name: str,
                      ctx: dict | None = None,
                      ledger: bool = True) -> None:
    """Counter conservation laws for one cache."""
    s = cache.stats
    if s.hits + s.misses != s.accesses:
        _fail("stats-conservation",
              f"{name}: hits {s.hits} + misses {s.misses} != "
              f"accesses {s.accesses}", ctx)
    if s.writebacks > s.evictions:
        _fail("stats-conservation",
              f"{name}: writebacks {s.writebacks} > evictions "
              f"{s.evictions}", ctx)
    if s.prefetch_hits > s.hits:
        _fail("stats-conservation",
              f"{name}: prefetch_hits {s.prefetch_hits} > hits {s.hits}",
              ctx)
    if s.prefetch_fills > s.fills:
        _fail("stats-conservation",
              f"{name}: prefetch_fills {s.prefetch_fills} > fills "
              f"{s.fills}", ctx)
    if ledger and s.fills - s.evictions - s.invalidations != cache.occupancy:
        _fail("fill-ledger",
              f"{name}: fills {s.fills} - evictions {s.evictions} - "
              f"invalidations {s.invalidations} != occupancy "
              f"{cache.occupancy}", ctx)


def check_cache(cache, name: str, ctx: dict | None = None,
                ledger: bool = True) -> None:
    """All structural checks applicable to one cache level.

    Non-``SetAssocCache`` levels (e.g. the Distill LLC) only expose
    ``stats``; for those only the arithmetic conservation laws run.
    """
    if isinstance(cache, SetAssocCache):
        check_cache_geometry(cache, name, ctx)
        check_lru_order(cache, name, ctx)
        check_cache_stats(cache, name, ctx, ledger=ledger)
    else:
        s = cache.stats
        if s.hits + s.misses != s.accesses:
            _fail("stats-conservation",
                  f"{name}: hits {s.hits} + misses {s.misses} != "
                  f"accesses {s.accesses}", ctx)


def check_sdcdir_structure(sdcdir, ctx: dict | None = None) -> None:
    """SDCDir capacity/recency bounds (the Table IV budget is honoured
    only if the structure never exceeds its configured entry count)."""
    total = 0
    for set_idx, lines in enumerate(sdcdir.sets):
        if len(lines) > sdcdir.ways:
            _fail("sdcdir-occupancy",
                  f"SDCDir set {set_idx} holds {len(lines)} entries, "
                  f"ways = {sdcdir.ways}", ctx,
                  set_contents={b: list(e) for b, e in lines.items()})
        total += len(lines)
        prev = -1
        sharer_limit = 1 << sdcdir.num_cores
        for block, entry in lines.items():
            if entry[2] <= prev:
                _fail("sdcdir-lru-order",
                      f"SDCDir set {set_idx} dict order is not recency "
                      f"order at block {block}", ctx,
                      set_contents={b: list(e) for b, e in lines.items()})
            prev = entry[2]
            if entry[0] <= 0 or entry[0] >= sharer_limit:
                _fail("sdcdir-sharers",
                      f"SDCDir entry for block {block} has sharer bits "
                      f"{entry[0]:#b} outside (0, {sharer_limit:#b})", ctx)
            if not (-1 <= entry[1] < sdcdir.num_cores):
                _fail("sdcdir-owner",
                      f"SDCDir entry for block {block} has dirty owner "
                      f"{entry[1]} outside [-1, {sdcdir.num_cores})", ctx)
    if total > sdcdir.entries:
        _fail("sdcdir-budget", f"SDCDir holds {total} entries, budget is "
              f"{sdcdir.entries}", ctx)


def check_lp_structure(lp, ctx: dict | None = None) -> None:
    """LP table capacity bounds (Table I: entries / ways)."""
    if lp is None:
        return
    total = 0
    for set_idx, lines in enumerate(lp.sets):
        if len(lines) > lp.ways:
            _fail("lp-occupancy", f"LP set {set_idx} holds {len(lines)} "
                  f"entries, ways = {lp.ways}", ctx)
        total += len(lines)
    if total > lp.config.entries:
        _fail("lp-budget", f"LP holds {total} entries, budget is "
              f"{lp.config.entries}", ctx)


def check_clp_structure(clp, ctx: dict | None = None) -> None:
    """CLP table capacity bounds plus counter saturation range."""
    if clp is None:
        return
    total = 0
    ctr_max = clp.config.ctr_max
    for set_idx, lines in enumerate(clp.sets):
        if len(lines) > clp.ways:
            _fail("clp-occupancy", f"CLP set {set_idx} holds {len(lines)} "
                  f"entries, ways = {clp.ways}", ctx)
        total += len(lines)
        for tag, entry in lines.items():
            if not (0 <= entry.ctr <= ctr_max):
                _fail("clp-counter", f"CLP set {set_idx} tag {tag} counter "
                      f"{entry.ctr} outside [0, {ctr_max}]", ctx)
    if total > clp.config.entries:
        _fail("clp-budget", f"CLP holds {total} entries, budget is "
              f"{clp.config.entries}", ctx)


# ---------------------------------------------------------------------------
# Coherence checks
# ---------------------------------------------------------------------------

def check_sdc_coherence(sdcs: list, sdcdir, hierarchies: list, llc,
                        ctx: dict | None = None) -> None:
    """§III-C: subset rule, sharer/residency and dirty-owner agreement,
    and single-valid-copy for dirty SDC lines.

    ``sdcs``/``hierarchies`` are parallel per-core lists; ``llc`` is the
    shared LLC (or the single-core hierarchy's LLC).
    """
    tracked: dict[int, list[int]] = {}
    for lines in sdcdir.sets:
        tracked.update(lines)

    resident = [frozenset(sdc.resident_blocks()) for sdc in sdcs]
    for core, sdc in enumerate(sdcs):
        bit = 1 << core
        for block in resident[core]:
            entry = tracked.get(block)
            if entry is None:
                _fail("sdc-subset",
                      f"block {block} resident in SDC {core} but has no "
                      f"SDCDir entry", ctx, block=block,
                      set_contents={t: list(l) for t, l in
                                    sdc.sets[sdc._split(block)[0]].items()})
            elif not entry[0] & bit:
                _fail("sdc-sharer-agreement",
                      f"block {block} resident in SDC {core} but SDCDir "
                      f"sharer bits are {entry[0]:#b}", ctx, block=block,
                      entry=list(entry))
        # Dirty bits: line dirty ⇔ directory names this core as owner.
        for block in sdc.dirty_blocks():
            entry = tracked.get(block)
            if entry is None or entry[1] != core:
                _fail("sdc-dirty-owner",
                      f"block {block} dirty in SDC {core} but SDCDir "
                      f"owner is "
                      f"{'absent' if entry is None else entry[1]}",
                      ctx, block=block,
                      entry=None if entry is None else list(entry))

    # The dual single-valid-copy direction: a line dirty anywhere in a
    # conventional hierarchy must have no SDC duplicate (a write claims
    # exclusivity, so any surviving SDC copy would be stale).
    all_resident = frozenset().union(*resident) if resident else frozenset()
    dirty_sites = [(f"core{c}.{lname}", cache)
                   for c, h in enumerate(hierarchies)
                   for lname, cache in (("L1D", h.l1d), ("L2C", h.l2c))]
    if llc is not None and isinstance(llc, SetAssocCache):
        dirty_sites.append(("LLC", llc))
    for site, cache in dirty_sites:
        for block in cache.dirty_blocks():
            if block in all_resident:
                holders = [i for i, r in enumerate(resident) if block in r]
                _fail("hierarchy-dirty-exclusive",
                      f"block {block} dirty in {site} but still resident "
                      f"in SDC(s) {holders}", ctx, block=block)

    for block, entry in tracked.items():
        for core in range(len(sdcs)):
            if entry[0] & (1 << core) and block not in resident[core]:
                _fail("sdc-sharer-agreement",
                      f"SDCDir says core {core} holds block {block} but "
                      f"SDC {core} does not", ctx, block=block,
                      entry=list(entry))
        owner = entry[1]
        if owner >= 0:
            if owner >= len(sdcs) or not sdcs[owner].is_dirty(block):
                _fail("sdc-dirty-owner",
                      f"SDCDir says core {owner} dirty-owns block {block} "
                      f"but that SDC line is not dirty", ctx, block=block,
                      entry=list(entry))
            # Single valid copy: a dirty SDC line is duplicated nowhere.
            for c, h in enumerate(hierarchies):
                if h.l1d.contains(block) or h.l2c.contains(block):
                    _fail("sdc-dirty-exclusive",
                          f"block {block} dirty in SDC {owner} but also "
                          f"resident in core {c}'s private caches", ctx,
                          block=block)
            for c, other in enumerate(sdcs):
                if c != owner and block in resident[c]:
                    _fail("sdc-dirty-exclusive",
                          f"block {block} dirty in SDC {owner} but also "
                          f"resident in SDC {c}", ctx, block=block)
            if llc is not None and llc.contains(block):
                _fail("sdc-dirty-exclusive",
                      f"block {block} dirty in SDC {owner} but also "
                      f"resident in the LLC", ctx, block=block)


def check_msi_single_writer(cores: list, directory: dict, sdcs: list,
                            ctx: dict | None = None) -> None:
    """Multi-core MSI rules over the private hierarchies.

    * a dirty private line implies directory ownership by that core;
    * at most one core dirty-owns a block;
    * a dirty block is resident in no other core's private caches/SDCs;
    * any private residency implies the directory sharer bit.
    """
    dirty_owner: dict[int, int] = {}
    for c, h in enumerate(cores):
        for block in set(h.l1d.dirty_blocks()) | set(h.l2c.dirty_blocks()):
            if block in dirty_owner and dirty_owner[block] != c:
                _fail("msi-single-writer",
                      f"block {block} dirty in cores {dirty_owner[block]} "
                      f"and {c}", ctx, block=block)
            dirty_owner[block] = c
            entry = directory.get(block)
            if entry is None or entry[1] != c:
                _fail("msi-dirty-owner",
                      f"block {block} dirty in core {c} but directory "
                      f"owner is "
                      f"{'absent' if entry is None else entry[1]}",
                      ctx, block=block,
                      entry=None if entry is None else list(entry))
    for block, owner in dirty_owner.items():
        for c, h in enumerate(cores):
            if c != owner and (h.l1d.contains(block)
                               or h.l2c.contains(block)):
                _fail("msi-dirty-exclusive",
                      f"block {block} dirty in core {owner} but resident "
                      f"in core {c}'s private caches", ctx, block=block)
        for c, sdc in enumerate(sdcs):
            if sdc is not None and sdc.contains(block):
                _fail("msi-dirty-exclusive",
                      f"block {block} dirty in core {owner} but resident "
                      f"in SDC {c}", ctx, block=block)
    for c, h in enumerate(cores):
        bit = 1 << c
        for block in list(h.l1d.resident_blocks()) \
                + list(h.l2c.resident_blocks()):
            entry = directory.get(block)
            if entry is None or not entry[0] & bit:
                _fail("directory-superset",
                      f"block {block} resident in core {c}'s private "
                      f"caches but directory sharer bit {c} is clear",
                      ctx, block=block,
                      entry=None if entry is None else list(entry))


def check_level_chain(l1d, l2c, llc_accesses: int, l2_misses_total: int,
                      name: str, ctx: dict | None = None) -> None:
    """Strict-chain counting: every L1D miss becomes exactly one L2C
    access; every L2C miss becomes exactly one LLC access."""
    if l2c.stats.accesses != l1d.stats.misses:
        _fail("level-chain",
              f"{name}: L2C accesses {l2c.stats.accesses} != L1D misses "
              f"{l1d.stats.misses}", ctx)
    if llc_accesses != l2_misses_total:
        _fail("level-chain",
              f"{name}: LLC accesses {llc_accesses} != total L2C misses "
              f"{l2_misses_total}", ctx)


# ---------------------------------------------------------------------------
# Whole-system entry points (called by the run-loop hooks)
# ---------------------------------------------------------------------------

def check_single_core_system(system, ctx: dict | None = None) -> None:
    """All invariants applicable to a live :class:`SingleCoreSystem`."""
    h = system.hierarchy
    ledger = getattr(system, "_ledger_valid", True)
    check_cache(h.l1d, "L1D", ctx, ledger=ledger)
    check_cache(h.l2c, "L2C", ctx, ledger=ledger)
    check_cache(h.llc, "LLC", ctx, ledger=ledger)
    if system.victim is not None:
        check_cache(system.victim, "VC", ctx, ledger=ledger)
    check_lp_structure(system.lp, ctx)
    check_clp_structure(getattr(system, "clp", None), ctx)
    if system.variant in STRICT_CHAIN_VARIANTS:
        check_level_chain(h.l1d, h.l2c, h.llc.stats.accesses,
                          h.l2c.stats.misses, "single-core", ctx)
    if system.sdc is not None:
        check_cache(system.sdc, "SDC", ctx, ledger=ledger)
        check_sdcdir_structure(system.sdcdir, ctx)
        check_sdc_coherence([system.sdc], system.sdcdir, [h], h.llc, ctx)


def check_multicore_system(system, ctx: dict | None = None) -> None:
    """All invariants applicable to a live :class:`MultiCoreSystem`."""
    ledger = getattr(system, "_ledger_valid", True)
    l2_misses = 0
    for c, h in enumerate(system.cores):
        check_cache(h.l1d, f"core{c}.L1D", ctx, ledger=ledger)
        check_cache(h.l2c, f"core{c}.L2C", ctx, ledger=ledger)
        l2_misses += h.l2c.stats.misses
        check_lp_structure(system.lps[c], ctx)
        clps = getattr(system, "clps", None)
        if clps is not None:
            check_clp_structure(clps[c], ctx)
        if system.variant in STRICT_CHAIN_VARIANTS:
            if h.l2c.stats.accesses != h.l1d.stats.misses:
                _fail("level-chain",
                      f"core{c}: L2C accesses {h.l2c.stats.accesses} != "
                      f"L1D misses {h.l1d.stats.misses}", ctx)
    check_cache(system.llc, "LLC", ctx, ledger=ledger)
    if system.variant in STRICT_CHAIN_VARIANTS \
            and isinstance(system.llc, SetAssocCache):
        if system.llc.stats.accesses != l2_misses:
            _fail("level-chain",
                  f"LLC accesses {system.llc.stats.accesses} != total "
                  f"L2C misses {l2_misses}", ctx)
    check_msi_single_writer(system.cores, system.directory,
                            system.sdcs, ctx)
    if system.sdcdir is not None:
        for c, sdc in enumerate(system.sdcs):
            check_cache(sdc, f"core{c}.SDC", ctx, ledger=ledger)
        check_sdcdir_structure(system.sdcdir, ctx)
        check_sdc_coherence(system.sdcs, system.sdcdir, system.cores,
                            system.llc, ctx)
