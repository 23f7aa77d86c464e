"""Cache replacement policies.

A policy manages the per-line ``prio`` slot of the cache's line record
(``line[0]``) and picks victims from a set's ``{tag: line}`` dict.  The
cache calls three hooks: ``on_hit(lines, tag, aux)`` on a hit or a
re-fill of a resident line, ``on_fill(line, aux)`` on an install (the
cache then appends the line to its set), and ``victim(lines)`` when a
full set needs room.  ``aux`` is an opaque value passed through from
the caller — the T-OPT/Belady policy uses it to receive each access's
next-reference time, which the experiment harness precomputes from the
trace (DESIGN.md substitution #4), and SHiP the access's PC.

Line record layout (see :mod:`repro.mem.cache`):
``line = [prio, dirty, prefetch]``.
"""

from __future__ import annotations


class LRUPolicy:
    """Least-recently-used, kept in each set's dict order.

    A hit moves the line to the end of its set's dict and a fill is
    appended there, so every set lists its lines oldest first and the
    victim is the first key.  ``prio`` holds a stamp from a
    monotonically increasing clock, which the invariant checks hold
    against the dict order (``repro.validate.invariants``).
    """

    name = "lru"

    def __init__(self) -> None:
        self._clock = 0

    def on_hit(self, lines: dict, tag: int, aux) -> None:
        self._clock += 1
        line = lines.pop(tag)
        line[0] = self._clock
        lines[tag] = line

    def on_fill(self, line: list, aux) -> None:
        self._clock += 1
        line[0] = self._clock

    def victim(self, lines: dict) -> int:
        return next(iter(lines))


class SRRIPPolicy:
    """Static RRIP (Jaleel et al.): 2-bit re-reference prediction values.

    prio stores the RRPV; hits promote to 0, fills insert at 2, victims
    are lines at RRPV 3 (aging the set when none is).
    """

    name = "srrip"
    MAX_RRPV = 3

    def on_hit(self, lines: dict, tag: int, aux) -> None:
        lines[tag][0] = 0

    def on_fill(self, line: list, aux) -> None:
        line[0] = self.MAX_RRPV - 1

    def victim(self, lines: dict) -> int:
        while True:
            for tag, line in lines.items():
                if line[0] >= self.MAX_RRPV:
                    return tag
            for line in lines.values():
                line[0] += 1


class DRRIPPolicy:
    """Dynamic RRIP (Jaleel et al. [23]): set-dueling between SRRIP and
    BRRIP insertion.

    A few leader sets always use SRRIP insertion (RRPV = max-1), another
    few always use BRRIP (RRPV = max, promoted to max-1 with probability
    1/32); a saturating policy-selector counter driven by leader-set
    misses picks the insertion policy for the follower sets.

    The cache passes ``set_idx`` to the policy via :meth:`bind_set`
    before each operation (see SetAssocCache).
    """

    name = "drrip"
    MAX_RRPV = 3
    PSEL_BITS = 10
    LEADERS = 32
    BRRIP_EPSILON = 32     # 1-in-32 long-insertions get max-1

    def __init__(self, num_sets: int = 2048) -> None:
        self.num_sets = max(1, num_sets)
        self.psel = (1 << self.PSEL_BITS) // 2
        self._psel_max = (1 << self.PSEL_BITS) - 1
        self._brrip_tick = 0
        self._set_idx = 0
        stride = max(1, self.num_sets // self.LEADERS)
        self._srrip_leaders = set(range(0, self.num_sets, 2 * stride))
        self._brrip_leaders = set(range(stride, self.num_sets, 2 * stride))

    def bind_set(self, set_idx: int) -> None:
        self._set_idx = set_idx

    def _use_brrip(self) -> bool:
        if self._set_idx in self._srrip_leaders:
            return False
        if self._set_idx in self._brrip_leaders:
            return True
        return self.psel > self._psel_max // 2

    def on_miss(self) -> None:
        """Leader-set misses steer the selector (called by the cache)."""
        if self._set_idx in self._srrip_leaders:
            self.psel = min(self._psel_max, self.psel + 1)
        elif self._set_idx in self._brrip_leaders:
            self.psel = max(0, self.psel - 1)

    def on_hit(self, lines: dict, tag: int, aux) -> None:
        lines[tag][0] = 0

    def on_fill(self, line: list, aux) -> None:
        if self._use_brrip():
            self._brrip_tick += 1
            line[0] = (self.MAX_RRPV - 1
                       if self._brrip_tick % self.BRRIP_EPSILON == 0
                       else self.MAX_RRPV)
        else:
            line[0] = self.MAX_RRPV - 1

    def victim(self, lines: dict) -> int:
        while True:
            for tag, line in lines.items():
                if line[0] >= self.MAX_RRPV:
                    return tag
            for line in lines.values():
                line[0] += 1


class SHiPPolicy:
    """SHiP (Wu et al. [46]): signature-based hit prediction over RRIP.

    Each line remembers the PC-signature that filled it and whether it
    was ever re-referenced; a table of saturating counters per signature
    learns which signatures produce reused lines.  Fills from "dead"
    signatures insert at distant RRPV.  ``aux`` carries the access PC.

    Line record layout here: ``line[0]`` = RRPV; the per-line signature
    and outcome bits live in side dicts keyed by id(line).
    """

    name = "ship"
    MAX_RRPV = 3
    TABLE_SIZE = 1 << 12
    COUNTER_MAX = 7

    def __init__(self) -> None:
        self.shct = [self.COUNTER_MAX // 2] * self.TABLE_SIZE
        self._sig: dict[int, int] = {}
        self._reused: dict[int, bool] = {}

    def _signature(self, aux) -> int:
        pc = aux if isinstance(aux, int) else 0
        return (pc ^ (pc >> 7)) & (self.TABLE_SIZE - 1)

    def on_hit(self, lines: dict, tag: int, aux) -> None:
        line = lines[tag]
        line[0] = 0
        key = id(line)
        if key in self._sig and not self._reused.get(key, False):
            self._reused[key] = True
            sig = self._sig[key]
            self.shct[sig] = min(self.COUNTER_MAX, self.shct[sig] + 1)

    def on_fill(self, line: list, aux) -> None:
        sig = self._signature(aux)
        key = id(line)
        self._sig[key] = sig
        self._reused[key] = False
        predicted_dead = self.shct[sig] == 0
        line[0] = self.MAX_RRPV if predicted_dead else self.MAX_RRPV - 1

    def victim(self, lines: dict) -> int:
        while True:
            for tag, line in lines.items():
                if line[0] >= self.MAX_RRPV:
                    self._retire(line)
                    return tag
            for line in lines.values():
                line[0] += 1

    def _retire(self, line: list) -> None:
        key = id(line)
        sig = self._sig.pop(key, None)
        reused = self._reused.pop(key, True)
        if sig is not None and not reused:
            self.shct[sig] = max(0, self.shct[sig] - 1)


class BeladyOPT:
    """Belady's OPT using trace-exact next-reference times.

    ``aux`` must be the access's next-use index (``NEVER`` when the block
    is not referenced again).  The victim is the line whose next use is
    farthest in the future.  With ``irregular_only`` the oracle
    information is applied only to lines whose fill was flagged
    irregular (aux arrives as ``(next_use, is_irregular)``), and regular
    lines fall back to LRU ordering — this models T-OPT, which has
    transpose-derived oracle knowledge only for the graph-property data.
    """

    name = "opt"
    NEVER = 1 << 62

    def __init__(self, irregular_only: bool = False) -> None:
        self.irregular_only = irregular_only
        self._clock = 0

    def _prio(self, aux) -> int:
        if aux is None:
            return self.NEVER
        if self.irregular_only:
            next_use, is_irr = aux
            if not is_irr:
                # Regular line: LRU-like low priority so oracle lines
                # with near reuse beat it, but it is preferred as a
                # victim over far-future irregular lines.
                self._clock += 1
                return (1 << 40) + self._clock
            return next_use
        return aux

    def on_hit(self, lines: dict, tag: int, aux) -> None:
        lines[tag][0] = self._prio(aux)

    def on_fill(self, line: list, aux) -> None:
        line[0] = self._prio(aux)

    def victim(self, lines: dict) -> int:
        best_tag = -1
        best_prio = -1
        for tag, line in lines.items():
            if line[0] > best_prio:
                best_prio = line[0]
                best_tag = tag
        return best_tag


def make_policy(name: str, **kwargs):
    """Instantiate a replacement policy by name."""
    if name == "lru":
        return LRUPolicy()
    if name == "srrip":
        return SRRIPPolicy()
    if name == "drrip":
        return DRRIPPolicy(**kwargs)
    if name == "ship":
        return SHiPPolicy()
    if name == "opt":
        return BeladyOPT(**kwargs)
    if name == "topt":
        return BeladyOPT(irregular_only=True)
    raise ValueError(f"unknown replacement policy {name!r}")
