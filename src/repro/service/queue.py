"""The service's durable journal.

The lease queue the service schedules with lives in
:mod:`repro.experiments.supervisor`, shared with ``run_grid``; this
module holds what only the long-running service needs on top of it: an
append-only JSONL record of its state transitions under
``$REPRO_CACHE_DIR/service/``, replayed on startup alongside the
per-job run manifests and the results cache (docs/SERVICE.md §
Durability).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path


class Journal:
    """Append-only JSONL journal of service state transitions.

    One record per line, flushed per append, so a killed orchestrator
    leaves a valid prefix (the torn final line, if any, is skipped on
    replay).  The journal records *service-level* history — startup
    generations, job lifecycle, lease grants/expiries, cell
    settlements — and is replayed on startup alongside the per-job run
    manifests and the results cache, which remain the authoritative
    per-cell state (docs/SERVICE.md § Crash recovery).
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._fh = None

    def append(self, type_: str, **fields) -> None:
        record = {"ts": time.time(), "type": type_}
        record.update(fields)
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def replay(self) -> list[dict]:
        """Parse every intact record; a torn trailing line (writer died
        mid-append) is dropped, mirroring the event-log readers."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        out = []
        for line in text.splitlines():
            try:
                out.append(json.loads(line))
            except ValueError:
                continue
        return out

    def generation(self) -> int:
        """Startup count recorded so far (the replayed ``generation``
        records) — the ``attempt`` axis of the ``orchestrator_crash``
        fault, so a restarted orchestrator deterministically survives
        a plan that killed its predecessor."""
        return sum(1 for r in self.replay() if r.get("type") == "generation")
