"""Chrome/Perfetto ``trace_event`` export of a ``run_grid`` sweep.

Renders one whole sweep as a trace loadable in ``chrome://tracing`` or
https://ui.perfetto.dev: one process lane per worker pid, one span per
cell *attempt* (so a fault-retried cell shows as several distinct
spans), instant markers for cache hits/dedups/quarantines and lost
worker processes on the supervisor lane.

Two sources, best first:

* the merged **JSONL event log** (``--telemetry`` sweeps) — spans come
  from ``cell_exec_started``/``cell_exec_finished`` pairs with real
  wall-clock boundaries, laid out on the pid that executed them;
* the **run manifest** alone (any sweep — every ``run_grid`` writes
  one) — no per-attempt timestamps survive, so completed cells are
  laid out end-to-end on a synthetic lane using their recorded wall
  seconds.  Coarser, but it means *every* historical run id can be
  visualized.

Span categories (``cat``) — filterable in the Perfetto UI: ``run``
(simulated on first attempt), ``retry`` (attempt > 1), ``failed``,
``cache``, ``dedup``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.store import atomic_write
from repro.telemetry.events import events_path, read_events

#: Synthetic tid for supervisor-lane instant markers.
SUPERVISOR_TID = 0

#: Minimum span duration (µs) so zero-length cells stay visible.
MIN_DUR_US = 1


def _meta(pid: int, name: str, sort_index: int | None = None) -> list:
    out = [{"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name}}]
    if sort_index is not None:
        out.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                    "tid": 0, "args": {"sort_index": sort_index}})
    return out


def _span(name: str, cat: str, ts_us: int, dur_us: int, pid: int,
          tid: int, **args) -> dict:
    return {"ph": "X", "name": name, "cat": cat, "ts": ts_us,
            "dur": max(MIN_DUR_US, dur_us), "pid": pid, "tid": tid,
            "args": args}


def _instant(name: str, cat: str, ts_us: int, pid: int, tid: int,
             **args) -> dict:
    return {"ph": "i", "s": "p", "name": name, "cat": cat, "ts": ts_us,
            "pid": pid, "tid": tid, "args": args}


def trace_from_events(records: list[dict]) -> dict:
    """Build a trace_event document from a merged JSONL event log."""
    if not records:
        raise ValueError("empty event log")
    t0 = min(r["ts"] for r in records)
    run_id = records[0].get("run_id", "?")

    def us(ts: float) -> int:
        return int(round((ts - t0) * 1e6))

    # key -> label from supervisor events (exec events only carry keys).
    labels: dict[str, str] = {}
    for r in records:
        if "label" in r and "key" in r:
            labels.setdefault(r["key"], r["label"])

    # Lane identity is (grid shard, pid): a merged multi-shard log
    # shows one lane *group* per shard (shard-prefixed lane names,
    # disjoint display-pid ranges), and two hosts that happened to
    # reuse an OS pid never share a lane.
    supervisor_pids = {r["pid"] for r in records
                       if r["event"] == "grid_started"}
    if not supervisor_pids:
        supervisor_pids = {records[0]["pid"]}

    def lane(r: dict) -> int:
        shard = r.get("shard")
        pid = r["pid"]
        return pid if shard is None else (shard + 1) * 10_000_000 + pid

    lanes: dict[int, str] = {}

    def lane_of(r: dict) -> int:
        shard, pid = r.get("shard"), r["pid"]
        display = lane(r)
        role = "supervisor" if pid in supervisor_pids \
            else f"worker {pid}"
        name = role if shard is None else f"shard {shard} · {role}"
        lanes.setdefault(display, name)
        return display

    events: list[dict] = []
    open_exec: dict[tuple, dict] = {}   # (lane, key, attempt) -> start
    have_exec_spans = False
    for r in records:
        ev, ts = r["event"], r["ts"]
        if ev == "cell_exec_started":
            open_exec[(lane_of(r), r["key"], r["attempt"])] = r
        elif ev == "cell_exec_finished":
            display = lane_of(r)
            start = open_exec.pop((display, r["key"], r["attempt"]),
                                  None)
            start_ts = start["ts"] if start is not None \
                else ts - r.get("seconds", 0.0)
            attempt = r["attempt"]
            cat = ("failed" if not r.get("ok", True)
                   else "retry" if attempt > 1 else "run")
            events.append(_span(
                labels.get(r["key"], r["key"][:12]), cat, us(start_ts),
                us(ts) - us(start_ts), display, r["pid"],
                key=r["key"], attempt=attempt, ok=r.get("ok", True)))
            have_exec_spans = True
        elif ev in ("cell_cached", "cell_dedup"):
            cat = "cache" if ev == "cell_cached" else "dedup"
            events.append(_span(
                r.get("label", r.get("key", "?")), cat, us(ts),
                MIN_DUR_US, lane_of(r), SUPERVISOR_TID,
                key=r.get("key"), source=cat))
        elif ev == "cell_quarantined":
            events.append(_instant(
                f"quarantined {r.get('label', '?')}", "quarantine",
                us(ts), lane_of(r), SUPERVISOR_TID,
                key=r.get("key")))
        elif ev == "worker_lost":
            events.append(_instant(ev, "engine", us(ts),
                                   lane_of(r), SUPERVISOR_TID,
                                   worker=r.get("worker"),
                                   reason=r.get("reason")))
        elif ev in ("grid_started", "grid_finished",
                    "shard_started", "shard_merged"):
            args = {}
            if "shard" in r:
                args["shard"] = r.get("shard")
                args["shard_count"] = r.get("shard_count")
            events.append(_instant(ev, "engine", us(ts),
                                   lane_of(r), SUPERVISOR_TID, **args))
    # A worker killed mid-cell leaves an unmatched exec_started: render
    # it as a failed span ending at the log's last timestamp.
    t_end = max(r["ts"] for r in records)
    for (display, key, attempt), start in open_exec.items():
        events.append(_span(labels.get(key, key[:12]), "failed",
                            us(start["ts"]), us(t_end) - us(start["ts"]),
                            display, start["pid"], key=key,
                            attempt=attempt, ok=False, truncated=True))
    if not have_exec_spans:
        # Old/minimal logs: fall back to supervisor started->done pairs.
        started: dict[str, dict] = {}
        for r in records:
            if r["event"] == "cell_started":
                started[r["key"]] = r
            elif r["event"] in ("cell_done", "cell_failed",
                                "cell_retried"):
                s = started.pop(r["key"], None)
                if s is None:
                    continue
                cat = {"cell_done": "run", "cell_failed": "failed",
                       "cell_retried": "retry"}[r["event"]]
                events.append(_span(
                    r.get("label", r["key"][:12]), cat, us(s["ts"]),
                    us(r["ts"]) - us(s["ts"]), lane_of(s),
                    SUPERVISOR_TID, key=r["key"],
                    attempt=r.get("attempt")))
    meta: list[dict] = []
    for i, (display, name) in enumerate(sorted(lanes.items())):
        meta.extend(_meta(display, name,
                          sort_index=0 if name == "supervisor"
                          else i + 1))
    return {"traceEvents": meta + events, "displayTimeUnit": "ms",
            "otherData": {"run_id": run_id, "source": "event-log"}}


def trace_from_manifest(manifest) -> dict:
    """Synthesize a trace from a run manifest's per-cell wall seconds.

    Cells are laid end-to-end (real start times are not recorded in
    the manifest); cached cells get minimum-width spans so they stay
    visible and countable.
    """
    pid = os.getpid()
    events = _meta(pid, f"run {manifest.run_id} (manifest replay)")
    cursor = 0
    for key, cell in manifest.cells.items():
        source = cell.get("source") or "run"
        status = cell.get("status")
        seconds = cell.get("seconds") or 0.0
        cat = ("failed" if status == "failed"
               else "cache" if source == "cache"
               else "retry" if cell.get("attempts", 1) > 1 else "run")
        dur = int(seconds * 1e6) if source != "cache" else MIN_DUR_US
        events.append(_span(cell.get("label", key[:12]), cat, cursor,
                            dur, pid, SUPERVISOR_TID, key=key,
                            status=status, source=source,
                            attempts=cell.get("attempts")))
        cursor += max(MIN_DUR_US, dur)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"run_id": manifest.run_id,
                          "source": "manifest"}}


def export_trace(run_id: str, telemetry_dir=None,
                 manifest_dir=None) -> dict:
    """Best-available trace for ``run_id``: event log, else manifest."""
    if telemetry_dir is not None:
        path = events_path(telemetry_dir, run_id)
        if path.is_file():
            return trace_from_events(read_events(path))
    from repro.experiments.manifest import RunManifest
    manifest = RunManifest.load(run_id, manifest_dir)
    return trace_from_manifest(manifest)


def write_trace(trace: dict, out_path) -> Path:
    """Atomic write of a trace document; returns the final path."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_path) as fh:
        fh.write(json.dumps(trace, separators=(",", ":")).encode("utf-8"))
    return out_path
