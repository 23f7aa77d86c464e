"""Typed request/response schemas for the ``repro.service`` HTTP API.

Every payload crossing the wire has a dataclass here with structural
validation (no external JSON-Schema dependency — same discipline as
:mod:`repro.telemetry.schema`): validators return a list of
human-readable error strings, empty meaning valid, so one bad request
reports every problem at once.  The orchestrator, the stdlib HTTP
handler, the urllib client and the CLI all speak exclusively through
these types; raw dicts stop at the (de)serialization boundary.

Wire format summary (see docs/SERVICE.md for the full API):

* ``POST /jobs`` — :class:`JobRequest` → 201 :class:`SubmitResponse`,
  400 :class:`ErrorResponse` (validation), 429 (queue full, with
  ``Retry-After``), 503 (draining);
* ``GET /jobs/<id>`` — :class:`JobStatus` (state machine ``queued →
  running → complete | failed | cancelled`` plus progress counters);
* ``GET /jobs/<id>/results`` — streaming JSONL, one
  :class:`CellResult` per line as cells settle;
* ``POST /jobs/<id>/cancel`` — :class:`JobStatus`;
* ``GET /healthz`` — :class:`Health`.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field

from repro.core.system import VARIANTS
from repro.experiments.parallel import EXPERT_BEST
from repro.graphs.suite import SIZE_TIERS

#: Job state machine.  ``queued`` jobs have registered cells but no
#: completed work yet; ``running`` jobs have at least one settled cell.
JOB_STATES = ("queued", "running", "complete", "failed", "cancelled")

TERMINAL_JOB_STATES = ("complete", "failed", "cancelled")

#: Sweep variants a job may request: every variant the model runs,
#: plus the grid engine's profiled-expert pseudo-variant.
KNOWN_VARIANTS = VARIANTS + (EXPERT_BEST,)

KNOWN_TIERS = tuple(SIZE_TIERS)

KNOWN_BACKENDS = ("ref", "batch")

JOB_KINDS = ("sweep", "merge")


def _expect(errors: list[str], cond: bool, message: str) -> bool:
    if not cond:
        errors.append(message)
    return cond


def _is_num(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class JobRequest:
    """One submitted job.

    ``kind="sweep"`` runs a fig7-shaped grid — ``workloads`` ×
    (``"baseline"`` + ``variants``) cells through the engine's
    manifest/cache machinery, byte-identical to the same sweep via the
    CLI.  ``workloads`` is an explicit list of ``kernel.graph`` names
    or the literal ``"quick"`` (the CLI's 6-workload subset); ``None``
    means all 36.  ``kind="merge"`` waits (``watch_timeout`` seconds)
    until every shard of ``run_id`` reports complete, then validates
    and stitches them — ``repro merge --watch`` as a service job.
    """

    kind: str = "sweep"
    workloads: object = "quick"         # list[str] | "quick" | None
    variants: tuple = ()                # () -> default fig7 variants
    tier: str = "tiny"
    length: int = 20_000
    backend: str | None = None          # None -> engine default
    run_id: str | None = None           # merge jobs: the sharded run
    watch_timeout: float | None = None  # merge jobs: wait bound (s)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["variants"] = list(self.variants)
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "JobRequest":
        errors = validate_job_request(obj)
        if errors:
            raise ValueError("; ".join(errors))
        return cls(kind=obj.get("kind", "sweep"),
                   workloads=obj.get("workloads", "quick"),
                   variants=tuple(obj.get("variants") or ()),
                   tier=obj.get("tier", "tiny"),
                   length=int(obj.get("length", 20_000)),
                   backend=obj.get("backend"),
                   run_id=obj.get("run_id"),
                   watch_timeout=obj.get("watch_timeout"))


def validate_job_request(obj) -> list[str]:
    """Structural validation of a ``POST /jobs`` body."""
    errors: list[str] = []
    if not _expect(errors, isinstance(obj, dict),
                   "request body: not a JSON object"):
        return errors
    kind = obj.get("kind", "sweep")
    if not _expect(errors, kind in JOB_KINDS,
                   f"kind: {kind!r} not one of {', '.join(JOB_KINDS)}"):
        return errors
    if kind == "merge":
        _expect(errors, isinstance(obj.get("run_id"), str)
                and obj.get("run_id"),
                "run_id: merge jobs need the sharded run id")
        wt = obj.get("watch_timeout")
        _expect(errors, wt is None or (_is_num(wt) and wt > 0),
                "watch_timeout: must be a positive number of seconds")
        return errors
    wls = obj.get("workloads", "quick")
    if wls is not None and wls != "quick":
        if _expect(errors, isinstance(wls, list) and wls
                   and all(isinstance(w, str) for w in wls),
                   "workloads: expected 'quick', null, or a non-empty "
                   "list of kernel.graph names"):
            for w in wls:
                _expect(errors, "." in w,
                        f"workloads: {w!r} is not a kernel.graph name")
    variants = obj.get("variants") or []
    if _expect(errors, isinstance(variants, (list, tuple)),
               "variants: expected a list of variant names"):
        for v in variants:
            _expect(errors, v in KNOWN_VARIANTS,
                    f"variants: unknown variant {v!r} (expected one "
                    f"of {', '.join(KNOWN_VARIANTS)})")
    tier = obj.get("tier", "tiny")
    _expect(errors, tier in KNOWN_TIERS,
            f"tier: {tier!r} not one of {', '.join(KNOWN_TIERS)}")
    length = obj.get("length", 20_000)
    _expect(errors, isinstance(length, int)
            and not isinstance(length, bool) and length > 0,
            "length: must be a positive integer (accesses)")
    backend = obj.get("backend")
    _expect(errors, backend is None or backend in KNOWN_BACKENDS,
            f"backend: {backend!r} not one of "
            f"{', '.join(KNOWN_BACKENDS)}")
    return errors


@dataclass
class JobProgress:
    """Per-cell progress counters for one job (unique cells)."""

    total: int = 0
    done: int = 0           # settled with a result (run or cache)
    cached: int = 0         # subset of done served from the warm cache
    running: int = 0        # currently leased to a worker
    pending: int = 0        # waiting for a lease (incl. backoff)
    failed: int = 0         # retry budget spent
    cancelled: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class JobStatus:
    """``GET /jobs/<id>`` response: the job's typed state snapshot."""

    job_id: str
    state: str                          # one of JOB_STATES
    kind: str = "sweep"
    progress: JobProgress = field(default_factory=JobProgress)
    submitted: float | None = None      # epoch seconds
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    request: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["progress"] = self.progress.to_dict()
        return d

    @classmethod
    def from_dict(cls, obj: dict) -> "JobStatus":
        errors = validate_job_status(obj)
        if errors:
            raise ValueError("; ".join(errors))
        progress = JobProgress(**obj.get("progress", {}))
        return cls(job_id=obj["job_id"], state=obj["state"],
                   kind=obj.get("kind", "sweep"), progress=progress,
                   submitted=obj.get("submitted"),
                   started=obj.get("started"),
                   finished=obj.get("finished"),
                   error=obj.get("error"),
                   request=obj.get("request", {}))


def validate_job_status(obj) -> list[str]:
    errors: list[str] = []
    if not _expect(errors, isinstance(obj, dict),
                   "job status: not a JSON object"):
        return errors
    _expect(errors, isinstance(obj.get("job_id"), str),
            "job_id: missing or not a string")
    state = obj.get("state")
    _expect(errors, state in JOB_STATES,
            f"state: {state!r} not one of {', '.join(JOB_STATES)}")
    progress = obj.get("progress", {})
    if _expect(errors, isinstance(progress, dict),
               "progress: not a JSON object"):
        known = set(JobProgress().to_dict())
        for k, v in progress.items():
            _expect(errors, k in known,
                    f"progress: unknown counter {k!r}")
            _expect(errors, isinstance(v, int)
                    and not isinstance(v, bool),
                    f"progress: counter {k!r} not an integer")
    return errors


@dataclass
class SubmitResponse:
    """``POST /jobs`` acceptance."""

    job_id: str
    state: str
    cells: int                          # unique cells registered
    run_id: str                         # manifest id (== job_id)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "SubmitResponse":
        for f in ("job_id", "state", "cells", "run_id"):
            if f not in obj:
                raise ValueError(f"submit response missing {f!r}")
        return cls(job_id=obj["job_id"], state=obj["state"],
                   cells=obj["cells"], run_id=obj["run_id"])


@dataclass
class CellResult:
    """One line of the ``GET /jobs/<id>/results`` JSONL feed."""

    key: str
    label: str
    status: str                         # done | failed | cancelled
    source: str | None = None           # run | cache
    attempts: int = 0
    seconds: float | None = None
    payload_sha: str | None = None      # results-cache payload hash
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Health:
    """``GET /healthz`` response."""

    status: str                         # "ok" | "draining"
    generation: int
    workers: int
    jobs: dict = field(default_factory=dict)    # state -> count

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ErrorResponse:
    """Any non-2xx body: a machine-readable error plus details."""

    error: str
    detail: list = field(default_factory=list)
    retry_after: float | None = None

    def to_dict(self) -> dict:
        d = {"error": self.error, "detail": list(self.detail)}
        if self.retry_after is not None:
            d["retry_after"] = self.retry_after
        return d


def dumps(obj) -> bytes:
    """Canonical wire encoding for any schema object or plain dict."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    return json.dumps(obj, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
