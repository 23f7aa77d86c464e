"""repro.telemetry — windowed metrics, run logs and trace export.

The observability layer of the experiment stack (docs/OBSERVABILITY.md),
in four parts:

* :mod:`repro.telemetry.metrics` — the ``Counter`` the stores count
  with, the ring-buffered windowed ``TimeSeries`` and the
  ``Stopwatch``/``format_eta`` clock behind progress lines;
* :mod:`repro.telemetry.probes` — :class:`WindowProbe`/:class:`Timeline`:
  per-window L1D/L2C/LLC MPKI, SDC hit rate, LP cache-averse fraction,
  bypass fraction and DRAM traffic sampled from the run loops and
  attached to ``SystemStats.timeline``;
* :mod:`repro.telemetry.events` — run_id-correlated JSONL event logs
  for ``run_grid`` sweeps (cell queued/started/retried/cached/
  quarantined/failed, per-worker shards merged by the supervisor);
* :mod:`repro.telemetry.trace_export` — Chrome/Perfetto ``trace_event``
  export rendering a sweep as worker lanes with per-attempt cell spans.

Enablement mirrors ``repro.validate``: the ``REPRO_TELEMETRY``
environment variable (unset/``0`` off, ``1`` = default 4096-access
windows, ``N`` = N-access windows) or explicit constructor arguments;
the CLI's ``--telemetry DIR`` activates the ambient
:class:`TelemetryConfig` that ``run_grid`` picks up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.metrics import (Counter, Stopwatch, TimeSeries,
                                     format_eta)
from repro.telemetry.probes import (TIMELINE_METRICS, Timeline,
                                    WindowProbe)

__all__ = [
    "DEFAULT_WINDOW",
    "Counter", "Stopwatch", "TimeSeries", "Timeline", "WindowProbe",
    "TIMELINE_METRICS",
    "TelemetryConfig", "activate", "active", "deactivate",
    "default_telemetry_dir", "format_eta", "telemetry_interval",
]

#: Default windowed-sampling interval (accesses per window).
DEFAULT_WINDOW = 4096


def telemetry_interval(explicit: int | None = None) -> int:
    """Resolve the windowed-sampling interval (0 = telemetry off).

    ``explicit`` (a constructor argument) wins; otherwise
    ``REPRO_TELEMETRY`` is consulted: unset/empty/``0`` disables,
    ``1`` enables at :data:`DEFAULT_WINDOW`, any larger integer is the
    window itself.  Mirrors ``repro.validate.check_interval``.
    """
    if explicit is not None:
        return max(0, explicit)
    raw = os.environ.get("REPRO_TELEMETRY", "").strip()
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_WINDOW
    if value <= 0:
        return 0
    return DEFAULT_WINDOW if value == 1 else value


def default_telemetry_dir() -> Path:
    """Where event logs land when ``--telemetry`` gives no directory."""
    from repro.experiments.workloads import cache_dir
    return cache_dir() / "telemetry"


@dataclass(frozen=True)
class TelemetryConfig:
    """One sweep's telemetry settings.

    ``directory`` receives the JSONL event log (and is where
    ``repro trace-export`` looks); ``window`` is the per-cell
    :class:`WindowProbe` interval (0 = no timelines, events only).
    """

    directory: Path | None = None
    window: int = DEFAULT_WINDOW


_active: TelemetryConfig | None = None


def activate(config: TelemetryConfig | None) -> None:
    """Install the ambient telemetry config (None deactivates).

    ``run_grid`` consults this when its ``telemetry`` argument is not
    given, so the CLI's ``--telemetry`` flag reaches every figure
    function without threading one more parameter through each.
    """
    global _active
    _active = config


def deactivate() -> None:
    activate(None)


def active() -> TelemetryConfig | None:
    return _active
