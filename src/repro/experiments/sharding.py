"""Shard-aware sweeps: split one grid across N hosts, merge bit-identically.

The full fig7 matrix (216 cells) is embarrassingly parallel, and every
artifact it produces is already content-addressed and corruption-safe
(the v8 trace store, the checksummed results cache).  This module adds
the missing layer: a deterministic cell→shard partition so N independent
``run_grid`` supervisors — on N hosts sharing one artifact store, or N
sequential invocations on one machine — each execute a disjoint slice of
the grid, and a merge step that validates the slices and stitches a
result set byte-identical to the single-host run.

Partitioning
------------

:func:`shard_of` assigns each cell to a shard by a pure SHA-256 hash of
its content-addressed cache key.  The assignment therefore

* is independent of grid enumeration order (two hosts building the same
  grid in different orders agree on ownership),
* is stable under resume (a re-run of shard ``I`` owns exactly the same
  cells), and
* needs no coordination: hosts never communicate; they only agree on
  the run id and the shard count.

Execution
---------

``run_grid(..., shard=(I, N))`` — or ``repro <fig> --shard I/N
--resume <run_id>`` — simulates only the cells hashing to shard ``I``,
records the rest as ``elsewhere`` in a per-shard manifest
(``runs/<run_id>.shard-I-of-N.json``, written through the same
atomic-save path as ordinary manifests), and raises
:class:`repro.experiments.parallel.ShardComplete` instead of returning
a full result set.

Merge
-----

:func:`merge_shards` (CLI: ``repro merge <run_id>``) collects the shard
manifests for one run id and validates, before stitching anything:

* **shard set** — every index ``0..N-1`` present exactly once, all
  manifests agreeing on ``N`` (a host that ran ``--shard 1/2`` next to
  a ``--shard 1/4`` sibling is caught here);
* **completion** — every shard manifest finalized ``complete``; a
  manifest still ``running`` (host died mid-sweep, or an armed
  ``shard_loss`` fault) or absent is reported as a lost shard;
* **ownership** — every cell a shard claims hashes to that shard, and
  no cell is claimed by two shards (``duplicate_shard`` faults and
  misconfigured hosts are caught here);
* **coverage** — all shards saw the same grid (same full key set);
* **results** — every cell's payload is present in the shared results
  cache and passes its checksummed-container validation.

Only then is the merged manifest (``runs/<run_id>.json``, status
``complete``) written, after which a figure rerun against the same
cache is satisfied entirely from validated entries — byte-identical to
a single-host run.  Failure paths are deterministically testable via
the ``shard_loss`` / ``duplicate_shard`` fault kinds in
:mod:`repro.faults`.  See docs/RESILIENCE.md § Sharded sweeps.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.manifest import MANIFEST_VERSION, RunManifest, runs_dir

#: ``<run_id>.shard-<index>-of-<count>.json`` manifest file names.
_SHARD_FILE_RE = re.compile(r"\.shard-(\d+)-of-(\d+)\.json$")


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``I/N`` shard spec (``"0/2"`` → ``(0, 2)``)."""
    m = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not m:
        raise ValueError(f"bad shard spec {text!r} (expected I/N, "
                         "e.g. 0/2)")
    index, count = int(m.group(1)), int(m.group(2))
    validate_shard((index, count))
    return index, count


def validate_shard(shard: tuple[int, int]) -> tuple[int, int]:
    index, count = shard
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for "
                         f"{count} shard(s) (expected 0..{count - 1})")
    return index, count


def shard_of(key: str, count: int) -> int:
    """Owning shard of one cell, by pure hash of its cache key.

    Independent of grid enumeration order and of everything else —
    two supervisors that agree only on the shard count agree on the
    whole partition.
    """
    h = hashlib.sha256(f"shard|{key}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") % count


def shard_suffix(shard: tuple[int, int]) -> str:
    """Filename infix naming one shard (``"shard-0-of-2"``)."""
    index, count = shard
    return f"shard-{index}-of-{count}"


def shard_site(run_id: str, shard: tuple[int, int]) -> str:
    """Fault-injection site for one shard of one run: pure in
    (run_id, index, count), so a fault plan makes the same
    lost/duplicate decision on every host and every resume."""
    return f"shard:{run_id}:{shard[0]}/{shard[1]}"


# -- merge ------------------------------------------------------------------

class ShardMergeError(RuntimeError):
    """The shard set cannot be stitched; ``problems`` lists every
    reason at once (missing shards, incomplete shards, ownership
    violations, corrupt cache entries) so one merge attempt reports
    the full repair list."""

    def __init__(self, run_id: str, problems: list[str]):
        super().__init__(
            f"cannot merge run {run_id}: {len(problems)} problem(s)")
        self.run_id = run_id
        self.problems = problems


@dataclass
class ShardMergeReport:
    """Outcome of a successful merge."""

    run_id: str
    count: int                          # shard count N
    cells: int                          # unique cells stitched
    manifest_path: Path                 # merged runs/<run_id>.json
    per_shard: list[dict] = field(default_factory=list)
    events_merged: int = 0              # telemetry records folded in

    def summary(self) -> str:
        parts = ", ".join(f"shard {s['index']}: {s['cells']} cells"
                          for s in self.per_shard)
        return (f"merged {self.count} shard(s), {self.cells} unique "
                f"cells ({parts})")


def list_shard_manifests(run_id: str, directory: Path | None = None
                         ) -> list[tuple[Path, int, int]]:
    """``(path, index, count)`` for every shard manifest of ``run_id``,
    sorted by index.  Tolerates files vanishing under a concurrent
    prune."""
    d = directory or runs_dir()
    out = []
    if not d.is_dir():
        return out
    for p in sorted(d.glob(f"{run_id}.shard-*.json")):
        m = _SHARD_FILE_RE.search(p.name)
        if m is None or p.name[:-len(m.group(0))] != run_id:
            continue
        out.append((p, int(m.group(1)), int(m.group(2))))
    out.sort(key=lambda e: (e[2], e[1]))
    return out


def _load_manifest_data(path: Path) -> dict | None:
    """Parse one shard manifest; None when vanished or unreadable."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if data.get("version") != MANIFEST_VERSION:
        return None
    return data


def merge_shards(run_id: str, directory: Path | None = None,
                 cache=None, telemetry_dir=None) -> ShardMergeReport:
    """Validate and stitch the shard manifests of one run.

    Raises :class:`FileNotFoundError` when no shard manifests exist,
    :class:`ShardMergeError` (with the full problem list) when the
    shard set is inconsistent, incomplete, overlapping, or any cell's
    cached result fails container validation.  On success, writes the
    merged ``runs/<run_id>.json`` manifest and — when
    ``telemetry_dir`` is given — folds per-shard event logs into the
    main ``events-<run_id>.jsonl``, appending one ``shard_merged``
    event per shard.
    """
    d = directory or runs_dir()
    entries = list_shard_manifests(run_id, d)
    if not entries:
        raise FileNotFoundError(
            f"no shard manifests for run {run_id!r} in {d}")

    problems: list[str] = []
    counts = sorted({count for _, _, count in entries})
    if len(counts) > 1:
        problems.append(
            "shard counts disagree: manifests claim "
            + ", ".join(f"N={c}" for c in counts)
            + " — every host must run the same --shard I/N count")
    count = counts[-1]

    seen: dict[int, Path] = {}
    shards: list[tuple[int, dict]] = []
    for path, index, n in entries:
        if n != count:
            continue                    # already reported above
        if index in seen:
            problems.append(f"shard {index}: duplicate manifests "
                            f"({seen[index].name}, {path.name})")
            continue
        seen[index] = path
        data = _load_manifest_data(path)
        if data is None:
            problems.append(f"shard {index}: manifest {path.name} "
                            "unreadable or vanished")
            continue
        shards.append((index, data))

    for index in sorted(set(range(count)) - set(seen)):
        problems.append(f"shard {index}: manifest missing — shard "
                        "never ran, or its host was lost before "
                        "writing (re-run with "
                        f"--shard {index}/{count} --resume {run_id})")

    owned: dict[str, tuple[int, dict]] = {}     # key -> (shard, cell)
    key_sets: dict[int, frozenset] = {}
    for index, data in shards:
        status = data.get("status")
        if status != "complete":
            problems.append(
                f"shard {index}: status {status!r} — lost or "
                f"incomplete (re-run with --shard {index}/{count} "
                f"--resume {run_id})")
            continue
        cells = data.get("cells", {})
        key_sets[index] = frozenset(cells)
        for key, cell in cells.items():
            if cell.get("status") == "elsewhere":
                continue
            owner = shard_of(key, count)
            if owner != index:
                problems.append(
                    f"shard {index}: claims cell "
                    f"{cell.get('label', key[:12])} owned by shard "
                    f"{owner} (duplicate/overlapping shard work)")
                continue
            if cell.get("status") != "done":
                problems.append(
                    f"shard {index}: cell "
                    f"{cell.get('label', key[:12])} status "
                    f"{cell.get('status')!r} (not done)")
                continue
            if key in owned:
                problems.append(
                    f"cell {cell.get('label', key[:12])} claimed by "
                    f"shards {owned[key][0]} and {index}")
                continue
            owned[key] = (index, cell)

    # Every complete shard must have seen the same grid: a disagreement
    # means the hosts ran different figures (or tiers/lengths) under
    # one run id, and the "merged" result would be a chimera.
    if len(set(key_sets.values())) > 1:
        sizes = ", ".join(f"shard {i}: {len(ks)} cells"
                          for i, ks in sorted(key_sets.items()))
        problems.append(f"shards disagree on the grid ({sizes}) — "
                        "all hosts must run the same figure command")

    if cache is None:
        from repro.experiments import results_cache as rc
        cache = rc.ResultsCache(sweep_stale=False)
    if not problems:
        for key, (index, cell) in sorted(owned.items()):
            if cache.get(key) is None:
                problems.append(
                    f"cell {cell.get('label', key[:12])} (shard "
                    f"{index}): cached result missing or corrupt — "
                    "the shared results cache must hold every "
                    "shard's validated entries")

    if problems:
        raise ShardMergeError(run_id, problems)

    merged = RunManifest(run_id, RunManifest._path_for(run_id, d))
    for key, (index, cell) in owned.items():
        merged.cells[key] = dict(cell, shard=index)
    merged.data["shard_count"] = count
    merged.data["merged_from"] = [seen[i].name
                                  for i, _ in sorted(shards)]
    merged.data["status"] = "complete"
    merged.save()

    per_shard = [{"index": index,
                  "cells": sum(1 for k, (i, _) in owned.items()
                               if i == index)}
                 for index, _ in sorted(shards)]
    report = ShardMergeReport(run_id=run_id, count=count,
                              cells=len(owned),
                              manifest_path=merged.path,
                              per_shard=per_shard)
    if telemetry_dir is not None:
        report.events_merged = _merge_telemetry(
            telemetry_dir, run_id, count, per_shard)
    return report


def _merge_telemetry(telemetry_dir, run_id: str, count: int,
                     per_shard: list[dict]) -> int:
    """Fold per-shard event logs into the main run log and stamp one
    ``shard_merged`` event per shard; returns records merged."""
    from repro.telemetry import events as tele_events
    merged = tele_events.merge_shard_logs(telemetry_dir, run_id)
    log = tele_events.EventLog(telemetry_dir, run_id)
    try:
        for s in per_shard:
            log.emit("shard_merged", shard=s["index"],
                     shard_count=count, cells=s["cells"])
    finally:
        log.close()
    return merged


# -- watch: poll until a shard set is whole ---------------------------------

def shards_status(run_id: str, directory: Path | None = None
                  ) -> tuple[bool, str]:
    """Whether every shard of ``run_id`` has reported complete.

    Returns ``(ready, summary)``: ``ready`` is True exactly when a
    consistent shard set exists (all manifests agree on ``N``, every
    index ``0..N-1`` present, every manifest finalized ``complete``) —
    the precondition :func:`merge_shards` validates in full.  The
    summary names what is still missing, for progress display.
    """
    entries = list_shard_manifests(run_id, directory)
    if not entries:
        return False, "no shard manifests yet"
    counts = sorted({count for _, _, count in entries})
    if len(counts) > 1:
        return False, ("shard counts disagree ("
                       + ", ".join(f"N={c}" for c in counts) + ")")
    count = counts[0]
    status: dict[int, str] = {}
    for path, index, _ in entries:
        data = _load_manifest_data(path)
        status[index] = (data or {}).get("status", "unreadable")
    missing = sorted(set(range(count)) - set(status))
    incomplete = sorted(i for i, s in status.items() if s != "complete")
    if not missing and not incomplete:
        return True, f"all {count} shard(s) complete"
    parts = [f"{len(status)}/{count} shard manifest(s) present"]
    if missing:
        parts.append("missing: " + ", ".join(map(str, missing)))
    if incomplete:
        parts.append("incomplete: "
                     + ", ".join(f"{i} ({status[i]})"
                                 for i in incomplete))
    return False, "; ".join(parts)


def wait_for_shards(run_id: str, directory: Path | None = None,
                    poll: float = 2.0, timeout: float | None = None,
                    on_poll=None) -> str:
    """Block until every shard of ``run_id`` reports complete.

    Polls :func:`shards_status` every ``poll`` seconds (the merge's
    ``--watch`` mode, and the wait step of a :mod:`repro.service`
    merge job).  ``on_poll(ready, summary)`` is invoked after each
    probe for progress display.  Returns the final summary; raises
    :class:`TimeoutError` when ``timeout`` seconds elapse first —
    carrying the last summary, so the caller can print exactly which
    shard never arrived.
    """
    import time as _time
    deadline = None if timeout is None else _time.monotonic() + timeout
    while True:
        ready, summary = shards_status(run_id, directory)
        if on_poll is not None:
            on_poll(ready, summary)
        if ready:
            return summary
        if deadline is not None and _time.monotonic() >= deadline:
            raise TimeoutError(
                f"shards of run {run_id} not complete after "
                f"{timeout:g}s ({summary})")
        _time.sleep(poll)


# -- ambient activation (CLI) ----------------------------------------------

_active_shard: tuple[int, int] | None = None


def activate_shard(shard: tuple[int, int] | None) -> None:
    """Install the process-wide shard for subsequent ``run_grid`` calls
    (the CLI's ``--shard`` sets this; figure functions stay unchanged)."""
    global _active_shard
    _active_shard = validate_shard(shard) if shard is not None else None


def active_shard() -> tuple[int, int] | None:
    return _active_shard
