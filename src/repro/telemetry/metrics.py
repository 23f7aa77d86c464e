"""Metrics core: a counter, a windowed series and a clock.

:class:`Counter` is a deliberately tiny instrument — a method call and
an attribute update — because counters sit next to (never *inside*)
simulator hot loops; each :mod:`repro.store` artifact kind counts its
opens, writes and damage with it.  :class:`Stopwatch` and :func:`format_eta` are the clock and
rendering behind sweep progress lines.

:class:`TimeSeries` is the windowed workhorse behind
:class:`repro.telemetry.probes.WindowProbe`: a ring buffer (bounded
``collections.deque``) of per-window samples that keeps the *newest*
``capacity`` windows and counts how many old ones it dropped, so an
arbitrarily long simulation can stay instrumented in bounded memory.
"""

from __future__ import annotations

import time
from collections import deque

#: Default ring capacity of a :class:`TimeSeries` (windows retained).
DEFAULT_CAPACITY = 4096


class Counter:
    """Monotonically increasing count (events, accesses, bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class TimeSeries:
    """Ring-buffered windowed series: newest ``capacity`` samples kept.

    ``append`` is O(1); once full, each append drops the oldest sample
    and bumps ``dropped`` so consumers can tell a truncated series from
    a complete one.
    """

    __slots__ = ("name", "capacity", "_ring", "dropped")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, name: str = ""):
        if capacity <= 0:
            raise ValueError("TimeSeries capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, value: float) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(value)

    def values(self) -> list:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)


class Stopwatch:
    """Monotonic elapsed-time clock for rates and ETAs.

    The one clock the engine's progress/ETA math runs on, so tests can
    substitute a fake ``now`` and get deterministic output.
    """

    __slots__ = ("_now", "_t0")

    def __init__(self, now=time.monotonic):
        self._now = now
        self._t0 = now()

    def elapsed(self) -> float:
        return self._now() - self._t0

    def restart(self) -> None:
        self._t0 = self._now()


def format_eta(seconds: float) -> str:
    """Compact H:MM:SS / M:SS rendering of an ETA estimate."""
    if seconds != seconds or seconds in (float("inf"), float("-inf")):
        return "--:--"
    seconds = max(0, int(round(seconds)))
    h, rem = divmod(seconds, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}:{m:02d}:{s:02d}"
    return f"{m}:{s:02d}"
