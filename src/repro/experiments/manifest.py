"""Per-sweep run manifests: the checkpoint/resume state of ``run_grid``.

Every grid execution keeps a small JSON manifest at
``<REPRO_CACHE_DIR>/runs/<run_id>.json`` recording, per unique cell
(content-addressed cache key): its label, status, attempt count, last
error, wall seconds and result source.  The manifest lives in two
files.  The *snapshot* (``<run_id>.json``) is written atomically
before the first cell transition and when the run is finalized (a
shard also writes one when its cells are registered); each cell
transition appends one flushed JSON line to the *log*
(``<run_id>.json.log``), so a transition costs O(1) however large the
grid.  :meth:`RunManifest.load` replays the log past the snapshot, so
at any instant — including the instant a sweep is OOM-killed or ^C'd —
the two files on disk record exactly which cells completed.

Log records carry a sequence number and the snapshot stores the last
one it covers: a crash between a snapshot's rename and the removal of
the log it supersedes leaves records replay skips, never a cell rolled
back.  A torn last line (the writer died mid-append) is dropped, as
the service journal and the event logs do.

Resuming (``run_grid(run_id=...)`` / ``repro <fig> --resume <run_id>``)
re-opens the manifest: completed cells are satisfied from the results
cache (zero redundant simulation) and only the interrupted/failed
remainder executes.  See docs/RESILIENCE.md for the format and
workflow.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path

from repro.experiments.workloads import cache_dir
from repro.store import atomic_write

MANIFEST_VERSION = 1

#: Most manifests kept per runs/ directory.  A new run that finds the
#: cap reached prunes the oldest finalized ones down to three quarters
#: of it, so unattended sweeps don't grow the cache unboundedly and the
#: scan runs once per quarter-cap new runs, not on every one.
MAX_MANIFESTS = 200

#: Cell statuses a resumed run does not need to re-execute.
_SETTLED = ("done",)

#: Run statuses _prune may delete.  ``running`` manifests belong to a
#: live (possibly concurrent) supervisor and ``interrupted`` ones are
#: resume state — deleting either would strand an in-flight sweep, so
#: only cleanly finalized runs are reclaimed.
_PRUNABLE = ("complete", "failed")


def new_run_id() -> str:
    return (time.strftime("%Y%m%d-%H%M%S") + "-"
            + uuid.uuid4().hex[:6])


def runs_dir() -> Path:
    return cache_dir() / "runs"


def _log_path(path: Path) -> Path:
    """The transition log beside the snapshot ``path``."""
    return path.with_name(path.name + ".log")


def _read(path: Path) -> dict:
    """The manifest at ``path``: its snapshot with every log record
    newer than the snapshot replayed.  Raises ``OSError`` when the
    snapshot is missing and ``ValueError`` when it is not a manifest of
    this version."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("version") != MANIFEST_VERSION:
        raise ValueError(f"manifest {path} has unsupported version "
                         f"{data.get('version')!r}")
    data.setdefault("seq", 0)
    try:
        lines = _log_path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return data
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue        # torn last line: the writer died mid-append
        if rec["seq"] > data["seq"]:
            data["cells"][rec["key"]] = rec["cell"]
            data["seq"] = rec["seq"]
    return data


class RunManifest:
    """Mutable per-run state: an atomic snapshot plus an append-only
    transition log (module docstring)."""

    def __init__(self, run_id: str, path: Path, data: dict | None = None):
        self.run_id = run_id
        self.path = path
        self.data = data if data is not None else {
            "version": MANIFEST_VERSION,
            "run_id": run_id,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "status": "running",
            "total_cells": 0,
            "resumes": 0,
            "seq": 0,
            "cells": {},
        }
        self._log = None        # open transition log, between saves
        self._saved = False     # this object has written a snapshot

    # -- construction ------------------------------------------------------

    @classmethod
    def _path_for(cls, run_id: str, directory: Path | None,
                  shard: tuple[int, int] | None = None,
                  service: bool = False) -> Path:
        name = run_id if shard is None \
            else f"{run_id}.shard-{shard[0]}-of-{shard[1]}"
        if service:
            name += ".service"
        return (directory or runs_dir()) / f"{name}.json"

    @classmethod
    def load(cls, run_id: str, directory: Path | None = None,
             shard: tuple[int, int] | None = None,
             service: bool = False) -> "RunManifest":
        path = cls._path_for(run_id, directory, shard, service)
        return cls(run_id, path, _read(path))

    @classmethod
    def open(cls, run_id: str | None = None,
             directory: Path | None = None,
             shard: tuple[int, int] | None = None,
             service: bool = False) -> "RunManifest":
        """Resume the manifest for ``run_id`` if one exists on disk,
        else start a fresh one (generating an id when none is given).
        ``shard=(I, N)`` names the per-shard manifest
        ``<run_id>.shard-I-of-N.json`` of a sharded sweep;
        ``service=True`` names a service-owned job manifest
        ``<run_id>.service.json`` (:mod:`repro.service` — skipped by
        :meth:`latest` alongside shard manifests, so ``repro
        trace-export latest`` never resolves to a half-built service
        job)."""
        if run_id is not None:
            try:
                m = cls.load(run_id, directory, shard, service)
            except FileNotFoundError:
                m = cls(run_id,
                        cls._path_for(run_id, directory, shard, service))
            else:
                m.data["resumes"] = m.data.get("resumes", 0) + 1
                m.data["status"] = "running"
        else:
            run_id = new_run_id()
            cls._prune(directory)
            m = cls(run_id,
                    cls._path_for(run_id, directory, shard, service))
        if shard is not None:
            m.data["shard"] = {"index": shard[0], "count": shard[1]}
        if service:
            m.data["service"] = True
        return m

    @classmethod
    def latest(cls, directory: Path | None = None) -> "RunManifest":
        """Load the most recently modified (non-shard, non-service)
        manifest in ``directory`` (``repro trace-export latest``
        resolves run ids through this); a run's modification time is
        the newer of its snapshot's and its log's.  Raises
        ``FileNotFoundError`` when no runs exist.  A manifest pruned by
        a concurrent supervisor between glob and stat is skipped, not
        an error.
        Shard manifests (one host's slice of a sharded sweep),
        service-owned job manifests (``<run_id>.service.json``, which
        a live :mod:`repro.service` orchestrator may be mid-way
        through) and DSE study manifests (``<study_id>.dse.json``,
        :mod:`repro.dse` — a search ledger, not a sweep) are skipped —
        none is a complete sweep ``latest`` should hand to an
        exporter."""
        d = directory or runs_dir()
        best: tuple[float, str] | None = None
        if d.is_dir():
            for p in d.glob("*.json"):
                if (".shard-" in p.stem or p.stem.endswith(".service")
                        or p.stem.endswith(".dse")):
                    continue
                try:
                    mtime = p.stat().st_mtime
                except OSError:
                    continue        # vanished under a sibling's prune
                try:
                    mtime = max(mtime, _log_path(p).stat().st_mtime)
                except OSError:
                    pass            # no transition since the snapshot
                if best is None or mtime > best[0]:
                    best = (mtime, p.stem)
        if best is None:
            raise FileNotFoundError(f"no run manifests in {d}")
        return cls.load(best[1], directory)

    @classmethod
    def _prune(cls, directory: Path | None) -> None:
        """Once ``directory`` holds :data:`MAX_MANIFESTS` manifests,
        reclaim the oldest *finalized* ones (and their logs) down to
        three quarters of the cap.

        Below the cap this only counts names.  Runs that are still
        ``running`` (a concurrent supervisor's live sweep) or
        ``interrupted`` (resume state) are never deleted, so a shared
        ``runs/`` directory cannot strand an in-flight sweep; entries
        vanishing mid-scan (a sibling pruning the same directory) are
        tolerated, not raised.
        """
        d = directory or runs_dir()
        try:
            names = [n for n in os.listdir(d) if n.endswith(".json")]
        except OSError:
            return                  # no runs/ directory yet
        if len(names) < MAX_MANIFESTS:
            return
        entries = []
        for name in names:
            p = d / name
            try:
                entries.append((p.stat().st_mtime, p))
            except OSError:
                continue            # vanished under a sibling's prune
        entries.sort(key=lambda e: e[0])
        excess = len(entries) - MAX_MANIFESTS * 3 // 4
        for _, p in entries:
            if excess <= 0:
                break
            try:
                status = _read(p).get("status")
            except (OSError, ValueError):
                excess -= 1         # vanished or unreadable: skip it
                continue
            if status in _PRUNABLE:
                p.unlink(missing_ok=True)
                _log_path(p).unlink(missing_ok=True)
                excess -= 1

    # -- cell state --------------------------------------------------------

    @property
    def cells(self) -> dict:
        return self.data["cells"]

    def settled_keys(self) -> set[str]:
        """Keys a resumed run can treat as complete."""
        return {k for k, c in self.cells.items()
                if c["status"] in _SETTLED}

    def register(self, key: str, label: str, status: str = "pending",
                 source: str | None = None, fanout: int = 1,
                 shard: int | None = None) -> None:
        """Record one unique cell with its current-run initial state.

        ``fanout`` counts how many grid cells dedup onto this key.
        Re-registering (a resume) resets transient state but keeps the
        cumulative attempt counter.  ``shard`` records the cell's
        owning shard index in a sharded sweep (cells owned by sibling
        shards are registered with status ``elsewhere``).
        """
        prior = self.cells.get(key, {})
        self.cells[key] = {
            "label": label,
            "status": status,
            "attempts": prior.get("attempts", 0),
            "error": None,
            "seconds": prior.get("seconds"),
            "source": source,
            "fanout": fanout,
        }
        if shard is not None:
            self.cells[key]["shard"] = shard

    def mark(self, key: str, status: str, attempts: int | None = None,
             error: str | None = None, seconds: float | None = None,
             source: str | None = None) -> None:
        """Record one cell transition: update the cell and append it to
        the log as one flushed line.  The first transition of an object
        that has not saved yet writes a snapshot first, so a log only
        ever extends a snapshot its own writer wrote and a torn line
        can only be a log's last."""
        cell = self.cells[key]
        cell["status"] = status
        if attempts is not None:
            cell["attempts"] = attempts
        cell["error"] = error
        if seconds is not None:
            cell["seconds"] = round(seconds, 3)
        if source is not None:
            cell["source"] = source
        self.data["seq"] += 1
        if self._log is None:
            if not self._saved:
                self.save()
            self._log = open(_log_path(self.path), "a", encoding="utf-8")
        self._log.write(json.dumps(
            {"seq": self.data["seq"], "key": key, "cell": cell},
            separators=(",", ":")) + "\n")
        self._log.flush()

    def finalize(self, status: str) -> None:
        """Close out the run: demote in-flight cells to pending (they
        never completed) and persist the final status in a snapshot,
        which removes the log."""
        for cell in self.cells.values():
            if cell["status"] in ("running", "retrying"):
                cell["status"] = "pending"
        self.data["status"] = status
        self.save()

    # -- reporting ---------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for cell in self.cells.values():
            out[cell["status"]] = out.get(cell["status"], 0) + 1
        return out

    def failed_cells(self) -> dict[str, str]:
        """label -> error for permanently failed cells."""
        return {c["label"]: c["error"] or "unknown error"
                for c in self.cells.values() if c["status"] == "failed"}

    def summary(self) -> str:
        counts = self.counts()
        total = len(self.cells)
        done = counts.get("done", 0)
        elsewhere = counts.get("elsewhere", 0)
        if elsewhere:
            total -= elsewhere
        parts = [f"{done}/{total} unique cells done"]
        if elsewhere:
            parts.append(f"{elsewhere} owned by sibling shards")
        for status in ("failed", "pending", "running", "retrying"):
            if counts.get(status):
                parts.append(f"{counts[status]} {status}")
        return ", ".join(parts)

    # -- persistence -------------------------------------------------------

    def save(self) -> None:
        """Write the snapshot atomically (temp file + rename), then
        remove the log it now covers.  The snapshot's ``seq`` covers
        every logged record, so a crash before the removal leaves only
        records replay skips."""
        self.data["total_cells"] = len(self.cells)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(self.path) as fh:
            fh.write(json.dumps(self.data,
                                separators=(",", ":")).encode("utf-8"))
        self._saved = True
        self.close()
        _log_path(self.path).unlink(missing_ok=True)

    def close(self) -> None:
        """Close the log handle; the next :meth:`mark` reopens it."""
        if self._log is not None:
            self._log.close()
            self._log = None
