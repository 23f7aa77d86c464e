"""Structured JSONL run logs for ``run_grid`` sweeps.

One sweep produces one ``events-<run_id>.jsonl`` file under the
telemetry directory.  Every line is a self-contained JSON object::

    {"ts": 1754822400.123456, "run_id": "20250806-...", "pid": 4242,
     "event": "cell_started", "key": "ab12...", "label": "pr.kron/sdc_lp",
     "attempt": 1}

The **supervisor** (the process running ``run_grid``) emits lifecycle
events — grid start/finish, cell queued/started/retried/failed/done/
cached/quarantined, lease grants and expiries, worker processes spawned
and lost.  **Workers** additionally emit
``cell_exec_started``/``cell_exec_finished`` pairs into private shard
files (``events-<run_id>.w<pid>.jsonl`` — one writer per file, so no
interleaving or locking), which the supervisor merges into the main
log, sorted by timestamp, when the grid finishes.  The merged log is
what :mod:`repro.telemetry.trace_export` turns into a Chrome/Perfetto
trace with one lane per worker process.

Writes are line-buffered and flushed per event: a crashed sweep leaves
a valid prefix of the log, never a torn line mid-file.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.store import atomic_write

#: Every event name the schema admits (see telemetry.schema).
EVENT_NAMES = (
    "grid_started", "grid_finished",
    "shard_started", "shard_merged",
    "cell_queued", "cell_started", "cell_retried", "cell_requeued",
    "cell_failed", "cell_done", "cell_cached", "cell_dedup",
    "cell_quarantined",
    "cell_exec_started", "cell_exec_finished",
    # -- the supervisor's leases and worker processes --
    "cell_leased", "lease_renewed", "lease_expired",
    "worker_spawned", "worker_lost",
    # -- repro.service lifecycle (docs/SERVICE.md) --
    "service_started", "service_stopped", "service_drain",
    "job_submitted", "job_started", "job_finished", "job_cancelled",
)


def file_run_id(run_id: str, shard: tuple[int, int] | None = None) -> str:
    """File-name identity of one supervisor's log: the run id, shard-
    qualified for sharded sweeps so N hosts sharing one telemetry
    directory never append to the same file."""
    if shard is None:
        return run_id
    return f"{run_id}.shard-{shard[0]}-of-{shard[1]}"


def events_path(directory, run_id: str,
                shard: tuple[int, int] | None = None) -> Path:
    return Path(directory) / f"events-{file_run_id(run_id, shard)}.jsonl"


def shard_path(directory, run_id: str, pid: int,
               shard: tuple[int, int] | None = None) -> Path:
    """Per-worker-process event file (a *worker shard* — one writer
    per file; unrelated to grid sharding, which is the ``shard``
    tuple)."""
    return Path(directory) / (f"events-{file_run_id(run_id, shard)}"
                              f".w{pid}.jsonl")


class EventLog:
    """Append-only JSONL writer bound to one (directory, run_id).

    ``shard=(I, N)`` binds the log to one grid shard: records gain a
    ``shard`` field (Perfetto lane grouping keys off it) and default
    paths carry the ``.shard-I-of-N`` infix.
    """

    def __init__(self, directory, run_id: str, path: Path | None = None,
                 shard: tuple[int, int] | None = None):
        self.run_id = run_id
        self.directory = Path(directory)
        self.shard = shard
        self.path = path if path is not None \
            else events_path(directory, run_id, shard)
        self._fh = None
        self.emitted = 0

    def _file(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def emit(self, event: str, **fields) -> None:
        record = {"ts": time.time(), "run_id": self.run_id,
                  "pid": os.getpid(), "event": event}
        if self.shard is not None:
            record["shard"] = self.shard[0]
        record.update(fields)
        fh = self._file()
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        fh.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- shard merge (supervisor side) ---------------------------------

    def merge_worker_shards(self) -> int:
        """Fold worker shard files into the main log, globally sorted
        by timestamp; returns the number of events merged."""
        self.close()
        return _fold(self.path, sorted(self.directory.glob(
            f"events-{file_run_id(self.run_id, self.shard)}.w*.jsonl")))


def merge_shard_logs(directory, run_id: str) -> int:
    """Fold per-grid-shard event logs (``events-<run_id>.shard-*-of-*
    .jsonl``) into the main ``events-<run_id>.jsonl``, globally sorted
    by timestamp; returns the number of records folded in.  Called by
    ``repro merge`` after a sharded sweep's manifests are validated and
    stitched (docs/RESILIENCE.md § Sharded sweeps)."""
    directory = Path(directory)
    logs = [p for p in
            sorted(directory.glob(f"events-{run_id}.shard-*.jsonl"))
            if ".w" not in p.name[len(f"events-{run_id}"):]]
    return _fold(events_path(directory, run_id), logs)


def _fold(main_path: Path, logs: list[Path]) -> int:
    """Merge JSONL ``logs`` into ``main_path`` sorted by timestamp, then
    remove them (so a re-merge never duplicates records); returns the
    number of records folded in.

    Unparseable lines (a writer killed mid-line) are dropped — the main
    log must stay schema-valid.  The rewrite is atomic: if it fails, the
    main log and the logs are left as they were.
    """
    records = []
    for log in logs:
        try:
            text = log.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    if records:
        try:
            main = [json.loads(line) for line in
                    main_path.read_text(encoding="utf-8").splitlines()]
        except (OSError, ValueError):
            main = []
        main.extend(records)
        main.sort(key=lambda r: r.get("ts", 0.0))
        with atomic_write(main_path) as fh:
            fh.write("".join(json.dumps(r, separators=(",", ":")) + "\n"
                             for r in main).encode("utf-8"))
    for log in logs:
        try:
            log.unlink()
        except OSError:
            pass
    return len(records)


def read_events(path) -> list[dict]:
    """Parse a JSONL event log; raises on unreadable files, skips
    nothing (a malformed line is a real error for consumers)."""
    out = []
    for i, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            out.append(json.loads(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{i}: bad JSONL line: {exc}") \
                from None
    return out


def latest_run_id(directory) -> str | None:
    """Run id of the newest main event log in ``directory``."""
    best: tuple[float, str] | None = None
    for p in Path(directory).glob("events-*.jsonl"):
        stem = p.name[len("events-"):-len(".jsonl")]
        if ".w" in stem:        # worker shard, not a main log
            continue
        if ".shard-" in stem:   # per-grid-shard log, merged separately
            continue
        try:
            mtime = p.stat().st_mtime
        except OSError:
            continue
        if best is None or mtime > best[0]:
            best = (mtime, stem)
    return best[1] if best else None


# -- worker-process context ------------------------------------------------

_worker_log: EventLog | None = None


def worker_init(ctx: tuple | None) -> None:
    """Pool-initializer half: arm per-worker event emission.

    ``ctx`` is ``(telemetry_dir, run_id)`` or
    ``(telemetry_dir, run_id, grid_shard)`` or None.  Each worker
    writes to its own pid-named shard file, so concurrent workers
    never share a file handle.
    """
    global _worker_log
    if ctx is None:
        _worker_log = None
        return
    directory, run_id = ctx[0], ctx[1]
    shard = ctx[2] if len(ctx) > 2 else None
    _worker_log = EventLog(directory, run_id, shard=shard,
                           path=shard_path(directory, run_id,
                                           os.getpid(), shard))


def worker_emit(event: str, **fields) -> None:
    """Emit from cell-execution code; no-op when telemetry is off.

    Never lets a telemetry failure (full disk, unlinked directory)
    take down the cell it is observing.
    """
    log = _worker_log
    if log is None:
        return
    try:
        log.emit(event, **fields)
    except OSError:
        pass
