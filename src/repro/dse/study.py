"""The DSE study manifest: ``runs/<study_id>.dse.json``.

One JSON document per study records the search parameters (seed, space
digest, candidate count, rung plan, workloads) and, per completed
halving rung, the per-candidate scores and the surviving keys.  A
resumed study replays completed rungs from this ledger verbatim — no
re-simulation, not even cache reads — and re-enters ``run_grid`` only
for the first unfinished rung, where the shared results cache supplies
every cell that already ran.

The ``.dse`` stem suffix keeps these out of
:meth:`repro.experiments.manifest.RunManifest.latest` (mirroring the
shard/service manifest rules), so ``repro trace-export latest`` keeps
resolving ordinary sweeps.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.manifest import runs_dir
from repro.store import atomic_write

STUDY_VERSION = 1


class StudyManifest:
    """Mutable study state with atomic on-disk persistence."""

    def __init__(self, study_id: str, path: Path, data: dict | None = None):
        self.study_id = study_id
        self.path = path
        self.data = data or {
            "version": STUDY_VERSION,
            "study_id": study_id,
            "status": "running",
            "params": {},
            "candidates": [],
            "rungs": [],
            "frontier": [],
        }

    # -- location ----------------------------------------------------------
    @classmethod
    def _path_for(cls, study_id: str, directory: Path | None) -> Path:
        return Path(directory or runs_dir()) / f"{study_id}.dse.json"

    @classmethod
    def load(cls, study_id: str,
             directory: Path | None = None) -> "StudyManifest":
        path = cls._path_for(study_id, directory)
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("version") != STUDY_VERSION:
            raise ValueError(f"study manifest {path} has unsupported "
                             f"version {data.get('version')!r}")
        return cls(study_id, path, data)

    @classmethod
    def open(cls, study_id: str, directory: Path | None = None,
             params: dict | None = None) -> "StudyManifest":
        """Resume the study if its manifest exists, else start fresh.

        ``params`` (the search's defining arguments) must agree with a
        resumed manifest exactly — a mismatch means the id is being
        reused for a different search, which is refused rather than
        silently blended.
        """
        try:
            m = cls.load(study_id, directory)
        except FileNotFoundError:
            m = cls(study_id, cls._path_for(study_id, directory))
            m.data["params"] = dict(params or {})
            return m
        if params is not None and m.data.get("params") != params:
            raise ValueError(
                f"study {study_id!r} exists with different parameters "
                f"({m.data.get('params')} != {params}); pick another "
                f"seed or delete {m.path}")
        m.data["resumes"] = m.data.get("resumes", 0) + 1
        if m.data.get("status") != "complete":
            m.data["status"] = "running"
        return m

    # -- rung ledger -------------------------------------------------------
    def completed_rung(self, rung: int) -> dict | None:
        """The recorded dict for ``rung`` if it finished, else None."""
        rungs = self.data["rungs"]
        if rung < len(rungs) and rungs[rung].get("complete"):
            return rungs[rung]
        return None

    def record_rung(self, rung: int, length: int, scores: dict,
                    survivors: list[str]) -> None:
        """Persist one completed rung (scores keyed by candidate key)."""
        rungs = self.data["rungs"]
        entry = {"rung": rung, "length": length, "complete": True,
                 "scores": scores, "survivors": survivors}
        if rung < len(rungs):
            rungs[rung] = entry
        elif rung == len(rungs):
            rungs.append(entry)
        else:
            raise ValueError(f"rung {rung} recorded out of order "
                             f"(have {len(rungs)})")
        self.save()

    def finalize(self, frontier: list[dict]) -> None:
        self.data["frontier"] = frontier
        self.data["status"] = "complete"
        self.save()

    def save(self) -> None:
        """Atomic write (temp file + rename), crash-safe at any point."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(self.path) as fh:
            fh.write(json.dumps(self.data,
                                separators=(",", ":")).encode("utf-8"))
