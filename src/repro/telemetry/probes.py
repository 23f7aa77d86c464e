"""Windowed probes: time-resolved metrics sampled from live simulators.

The paper's analysis (Figs. 2-5) is built on *time-resolved* cache
behaviour — MPKI and cache-averse fractions evolving across a kernel's
phases (BFS frontier expansion vs. contraction, PageRank iteration
boundaries).  A :class:`WindowProbe` recovers exactly that from the
run loops: every ``interval`` accesses it snapshots the cumulative
stat counters, differences them against the previous snapshot, and
appends one window row to a set of ring-buffered
:class:`repro.telemetry.metrics.TimeSeries`.

The resulting :class:`Timeline` travels on
``repro.core.system.SystemStats.timeline``, round-trips through
``to_payload``/``from_payload``, and is rendered by
``repro timeline`` / :mod:`repro.telemetry.render`.

Sampling is the cold path (once per few thousand accesses); the hot
path pays one falsy integer test per access when telemetry is off —
the same contract as ``repro.validate``'s ``check_every=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.metrics import DEFAULT_CAPACITY, TimeSeries

#: Metric names a probe records per window, in render order.
#: ``l1d/l2c/llc_mpki`` are windowed misses per kilo-instruction;
#: ``sdc_hit_rate`` is the window's SDC hit fraction (0 when no SDC or
#: the SDC was idle); ``lp_irregular_frac`` is the fraction of LP
#: lookups predicted cache-averse (routed to the SDC / bypass);
#: ``bypass_frac`` is the fraction of the window's demand accesses that
#: took the bypass path (SDC accesses, or LP-irregular for the SDC-less
#: ablation); ``dram_reads``/``dram_writes`` are raw per-window DRAM
#: transfer counts.
TIMELINE_METRICS = ("l1d_mpki", "l2c_mpki", "llc_mpki", "sdc_hit_rate",
                    "lp_irregular_frac", "bypass_frac", "dram_reads",
                    "dram_writes")

TIMELINE_PAYLOAD_VERSION = 1


@dataclass
class Timeline:
    """Columnar per-window metric series for one simulation run.

    ``interval`` is the window width in demand accesses; all series in
    ``series`` have equal length (one entry per *complete* window).
    ``dropped`` counts windows evicted by the ring buffer — consumers
    see the newest ``len(self)`` of ``len(self) + dropped`` windows.
    """

    interval: int
    series: dict[str, list[float]] = field(default_factory=dict)
    instructions: list[int] = field(default_factory=list)  # per window
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def num_windows(self) -> int:
        return len(self.instructions)

    def metric(self, name: str) -> list[float]:
        return self.series[name]

    def to_payload(self) -> dict:
        return {
            "version": TIMELINE_PAYLOAD_VERSION,
            "interval": self.interval,
            "series": {k: list(v) for k, v in self.series.items()},
            "instructions": list(self.instructions),
            "dropped": self.dropped,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Timeline":
        if payload.get("version") != TIMELINE_PAYLOAD_VERSION:
            raise ValueError("unsupported timeline payload version "
                             f"{payload.get('version')!r}")
        return cls(interval=payload["interval"],
                   series={k: list(v)
                           for k, v in payload["series"].items()},
                   instructions=list(payload["instructions"]),
                   dropped=payload.get("dropped", 0))


@dataclass
class _Snapshot:
    """Cumulative counter values at the last window boundary."""

    accesses: int = 0
    instructions: int = 0
    l1d_misses: int = 0
    l2c_misses: int = 0
    llc_misses: int = 0
    sdc_accesses: int = 0
    sdc_hits: int = 0
    lp_lookups: int = 0
    lp_irregular: int = 0
    dram_reads: int = 0
    dram_writes: int = 0


class WindowProbe:
    """Samples one core's stat counters every ``interval`` accesses.

    The probe reads counters *through* a snapshot callable rather than
    holding references to the stat objects, because the run loops
    replace those objects wholesale on a warm-up stats reset
    (``_reset_stats``).  ``rebase()`` realigns the probe after such a
    reset so the first post-warm-up window is not polluted by warm-up
    deltas.
    """

    def __init__(self, interval: int, snap_fn,
                 capacity: int = DEFAULT_CAPACITY):
        if interval <= 0:
            raise ValueError("WindowProbe interval must be positive")
        self.interval = interval
        self._snap_fn = snap_fn
        self._prev = _Snapshot()
        self._series = {name: TimeSeries(capacity, name)
                        for name in TIMELINE_METRICS}
        self._instructions = TimeSeries(capacity, "instructions")

    def rebase(self) -> None:
        """Forget accumulated state (call after a warm-up stats reset);
        already-recorded windows are kept."""
        self._prev = _Snapshot()

    def sample(self) -> None:
        """Close the current window and append one row per metric."""
        cur: _Snapshot = self._snap_fn()
        prev = self._prev
        instr = cur.instructions - prev.instructions
        accesses = cur.accesses - prev.accesses
        kilo = instr / 1000.0
        s = self._series
        if kilo > 0:
            s["l1d_mpki"].append((cur.l1d_misses - prev.l1d_misses)
                                 / kilo)
            s["l2c_mpki"].append((cur.l2c_misses - prev.l2c_misses)
                                 / kilo)
            s["llc_mpki"].append((cur.llc_misses - prev.llc_misses)
                                 / kilo)
        else:
            s["l1d_mpki"].append(0.0)
            s["l2c_mpki"].append(0.0)
            s["llc_mpki"].append(0.0)
        sdc_acc = cur.sdc_accesses - prev.sdc_accesses
        s["sdc_hit_rate"].append(
            (cur.sdc_hits - prev.sdc_hits) / sdc_acc if sdc_acc else 0.0)
        lp_lk = cur.lp_lookups - prev.lp_lookups
        lp_irr = cur.lp_irregular - prev.lp_irregular
        s["lp_irregular_frac"].append(lp_irr / lp_lk if lp_lk else 0.0)
        bypassed = sdc_acc if sdc_acc else lp_irr
        s["bypass_frac"].append(bypassed / accesses if accesses else 0.0)
        s["dram_reads"].append(float(cur.dram_reads - prev.dram_reads))
        s["dram_writes"].append(float(cur.dram_writes - prev.dram_writes))
        self._instructions.append(instr)
        self._prev = cur

    def timeline(self) -> Timeline:
        return Timeline(
            interval=self.interval,
            series={name: ts.values()
                    for name, ts in self._series.items()},
            instructions=[int(v) for v in self._instructions.values()],
            dropped=self._instructions.dropped)


def core_snapshot(hierarchy, sdc, lp, timer) -> _Snapshot:
    """Cumulative counters of one core mid-run: its hierarchy, its SDC
    and LP (None when absent) and its timer.

    A multi-core core's hierarchy holds the shared LLC and DRAM, so
    their windowed deltas are *system-wide* traffic over this core's
    window — exactly the contention view the multi-core study cares
    about.
    """
    sdc = sdc.stats if sdc is not None else None
    lp = lp.stats if lp is not None else None
    return _Snapshot(
        accesses=hierarchy.l1d.stats.accesses + (sdc.accesses if sdc else 0),
        instructions=timer.instructions,
        l1d_misses=hierarchy.l1d.stats.misses,
        l2c_misses=hierarchy.l2c.stats.misses,
        llc_misses=hierarchy.llc.stats.misses,
        sdc_accesses=sdc.accesses if sdc else 0,
        sdc_hits=sdc.hits if sdc else 0,
        lp_lookups=lp.lookups if lp else 0,
        lp_irregular=lp.predicted_irregular if lp else 0,
        dram_reads=hierarchy.dram.stats.reads,
        dram_writes=hierarchy.dram.stats.writes)
