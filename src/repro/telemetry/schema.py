"""Schema validation for telemetry artifacts.

Two formats, both validated structurally (no external JSON-Schema
dependency — the container must not need new packages):

* the **JSONL event log** written by :mod:`repro.telemetry.events` —
  every line must carry ``ts``/``run_id``/``pid``/``event`` with an
  admissible event name, plus the per-event required fields below;
* the **Chrome/Perfetto ``trace_event`` JSON** produced by
  :mod:`repro.telemetry.trace_export` — the JSON Object Format
  (``{"traceEvents": [...]}``) with per-phase required fields, per the
  Trace Event Format spec (``ph``/``ts``/``pid``/``tid``/``name``;
  ``dur`` for complete events, ``args.name`` for ``process_name``
  metadata events).

Validators return a list of human-readable error strings (empty =
valid) so CI can print every problem at once instead of dying on the
first.  ``python -m repro.telemetry.schema <file...>`` validates files
by extension and exits non-zero on the first invalid one.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

from repro.telemetry.events import EVENT_NAMES, read_events

#: event name -> additional required fields (beyond the envelope).
EVENT_REQUIRED_FIELDS = {
    "grid_started": ("total_cells",),
    "grid_finished": ("status",),
    "shard_started": ("shard", "shard_count", "cells"),
    "shard_merged": ("shard", "shard_count", "cells"),
    "cell_queued": ("key", "label"),
    "cell_started": ("key", "label", "attempt"),
    "cell_retried": ("key", "label", "attempt", "error"),
    "cell_requeued": ("key", "label"),
    "cell_failed": ("key", "label", "attempt", "error"),
    "cell_done": ("key", "label", "source", "seconds"),
    "cell_cached": ("key", "label"),
    "cell_dedup": ("key", "label"),
    "cell_quarantined": ("key", "label"),
    "cell_exec_started": ("key", "attempt"),
    "cell_exec_finished": ("key", "attempt", "seconds", "ok"),
    # -- the supervisor's leases and worker processes --
    "cell_leased": ("key", "worker", "attempt"),
    "lease_renewed": ("key", "worker"),
    "lease_expired": ("key", "worker", "attempt", "reason"),
    "worker_spawned": ("worker",),
    "worker_lost": ("worker", "reason"),
    # -- repro.service lifecycle (docs/SERVICE.md) --
    "service_started": ("generation", "workers"),
    "service_stopped": ("status",),
    "service_drain": (),
    "job_submitted": ("job_id", "cells"),
    "job_started": ("job_id",),
    "job_finished": ("job_id", "status"),
    "job_cancelled": ("job_id",),
}

#: event name -> {optional field: admissible values}.  Logs written
#: before a field existed simply lack it.
EVENT_OPTIONAL_FIELDS = {
    "cell_exec_finished": {"engine": ("batch", "ref"), "fallback": None},
}

_ENVELOPE_FIELDS = (("ts", numbers.Real), ("run_id", str),
                    ("pid", numbers.Real), ("event", str))

#: trace_event phases the exporter may emit.
_TRACE_PHASES = {"X", "i", "I", "M", "B", "E", "C"}


def validate_event(record, where: str = "event") -> list[str]:
    """Structural validation of one parsed event-log record."""
    errors = []
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    for field, kind in _ENVELOPE_FIELDS:
        if field not in record:
            errors.append(f"{where}: missing required field "
                          f"{field!r}")
        elif not isinstance(record[field], kind) \
                or isinstance(record[field], bool):
            errors.append(f"{where}: field {field!r} has wrong type "
                          f"{type(record[field]).__name__}")
    name = record.get("event")
    if isinstance(name, str):
        if name not in EVENT_NAMES:
            errors.append(f"{where}: unknown event name {name!r}")
        else:
            for field in EVENT_REQUIRED_FIELDS.get(name, ()):
                if field not in record:
                    errors.append(f"{where}: {name} event missing "
                                  f"field {field!r}")
            for field, allowed in EVENT_OPTIONAL_FIELDS.get(name,
                                                            {}).items():
                if field not in record:
                    continue
                value = record[field]
                if not isinstance(value, str) or (
                        allowed is not None and value not in allowed):
                    errors.append(f"{where}: {name} field {field!r} has "
                                  f"inadmissible value {value!r}")
    return errors


def validate_events(records) -> list[str]:
    errors = []
    run_ids = set()
    for i, record in enumerate(records, 1):
        errors.extend(validate_event(record, f"line {i}"))
        if isinstance(record, dict) and isinstance(
                record.get("run_id"), str):
            run_ids.add(record["run_id"])
    if len(run_ids) > 1:
        errors.append(f"log mixes {len(run_ids)} run_ids: "
                      f"{sorted(run_ids)}")
    return errors


def validate_events_file(path) -> list[str]:
    try:
        records = read_events(path)
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if not records:
        return [f"{path}: empty event log"]
    return validate_events(records)


def _check_num(event: dict, field: str, i: int,
               errors: list[str]) -> None:
    v = event.get(field)
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        errors.append(f"traceEvents[{i}]: {field!r} must be a number, "
                      f"got {type(v).__name__}")


def validate_trace(obj) -> list[str]:
    """Validate a parsed Chrome ``trace_event`` JSON object."""
    if not isinstance(obj, dict):
        return ["trace root: not a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["trace root: missing 'traceEvents' array"]
    errors = []
    if not events:
        errors.append("traceEvents: empty")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"traceEvents[{i}]: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _TRACE_PHASES:
            errors.append(f"traceEvents[{i}]: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"traceEvents[{i}]: missing 'name'")
        _check_num(ev, "pid", i, errors)
        _check_num(ev, "tid", i, errors)
        if ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"traceEvents[{i}]: metadata event "
                              "needs a non-empty args object")
            elif ev.get("name") == "process_name" and "name" not in args:
                errors.append(f"traceEvents[{i}]: process_name "
                              "metadata needs args.name")
            continue
        _check_num(ev, "ts", i, errors)
        if ph == "X":
            _check_num(ev, "dur", i, errors)
    return errors


def validate_trace_file(path) -> list[str]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    return validate_trace(obj)


def main(argv=None) -> int:
    """Validate telemetry artifacts: ``.jsonl`` files as event logs,
    ``.json`` files as Chrome traces."""
    import sys
    argv = argv if argv is not None else sys.argv[1:]
    if not argv:
        print("usage: python -m repro.telemetry.schema "
              "<events.jsonl|trace.json>...", file=sys.stderr)
        return 2
    status = 0
    for arg in argv:
        validate = (validate_events_file if arg.endswith(".jsonl")
                    else validate_trace_file)
        errors = validate(arg)
        if errors:
            status = 1
            for err in errors:
                print(f"{arg}: {err}", file=sys.stderr)
        else:
            print(f"{arg}: OK")
    return status


if __name__ == "__main__":
    import sys
    sys.exit(main())
