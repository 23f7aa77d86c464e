"""Crash-tolerant job orchestrator: sweep jobs as a long-running service.

One :class:`Orchestrator` owns the durable state under
``$REPRO_CACHE_DIR/service/`` — the :class:`~repro.service.queue.Journal`,
per-job records (``jobs/<id>.json``, atomic writes), and the JSONL
result feeds (``feeds/<id>.jsonl``).  It is a client of
:class:`repro.experiments.supervisor.Supervisor`, the lease queue and
worker processes ``run_grid`` runs on, so a job's cells go through
``run_grid``'s own intake (:func:`repro.experiments.parallel.intake`):
their content-addressed keys — and therefore their cached payloads —
are byte-identical to the same sweep run via the CLI.

What the service adds on top of the supervisor (docs/SERVICE.md):

* **jobs** — many sweeps share one queue; a cell several jobs want runs
  once, and a job's settled cells leave the queue when it ends;
* **orchestrator crash recovery** — startup replays the queue journal
  (generation count, job registry) and re-opens each active job's run
  manifest (``runs/<job_id>.service.json``); cells whose results are
  already in the cache are settled without re-simulation, mirroring
  ``--resume``, and only the remainder is requeued;
* **graceful drain** — SIGTERM (via :meth:`request_drain`) stops
  leasing, lets in-flight cells finish, checkpoints, folds worker
  telemetry shards, and returns cleanly;
* **backpressure** — submissions beyond ``queue_depth`` active jobs
  raise :class:`QueueFull`, which the HTTP layer maps to ``429`` with
  ``Retry-After``.

Faults ``crash`` / ``lease_loss`` / ``orchestrator_crash``
(:mod:`repro.faults`) exercise each path deterministically.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults
from repro.core.batch import load_kernel, resolve_backend
from repro.experiments import parallel
from repro.experiments import results_cache as rc
from repro.experiments.manifest import RunManifest
from repro.experiments.supervisor import (CANCELLED, DONE, FAILED,
                                          LEASE_TTL, LEASED, PENDING,
                                          Cell, LeaseQueue, RunPolicy,
                                          Supervisor)
from repro.experiments.workloads import WORKLOADS, cache_dir
from repro.service import schemas
from repro.service.queue import Journal
from repro.service.schemas import (CellResult, Health, JobProgress,
                                   JobRequest, JobStatus, SubmitResponse)
from repro.store import atomic_write
from repro.telemetry import events as tele_events

#: Telemetry run id of the service's event log: one ``events-service
#: .jsonl`` per telemetry directory, appended across orchestrator
#: generations, so a crash/restart leaves a single auditable history.
SERVICE_RUN_ID = "service"

#: ``Retry-After`` seconds suggested to clients bounced by backpressure.
RETRY_AFTER_SECONDS = 5.0


class QueueFull(RuntimeError):
    """Submission refused: too many active jobs (HTTP 429)."""

    retry_after = RETRY_AFTER_SECONDS


class Draining(RuntimeError):
    """Submission refused: the orchestrator is draining (HTTP 503)."""


class UnknownJob(KeyError):
    """No such job id (HTTP 404)."""


@dataclass
class ServiceConfig:
    """Tunables of one orchestrator instance."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral
    workers: int = 2
    queue_depth: int = 16               # max active (queued+running) jobs
    lease_ttl: float = LEASE_TTL
    policy: RunPolicy = field(default_factory=RunPolicy)
    telemetry_dir: Path | None = None
    hard_crash: bool = False            # orchestrator_crash: os._exit


def service_dir() -> Path:
    return cache_dir() / "service"


def new_job_id() -> str:
    return (time.strftime("job-%Y%m%d-%H%M%S-")
            + uuid.uuid4().hex[:6])


@dataclass
class _Job:
    """In-memory job state (durable twin: ``jobs/<id>.json``)."""

    id: str
    request: JobRequest
    state: str = "queued"
    submitted: float = 0.0
    started: float | None = None
    finished: float | None = None
    error: str | None = None
    keys: list[str] = field(default_factory=list)   # unique, grid order
    labels: dict = field(default_factory=dict)      # key -> label
    cached_keys: set = field(default_factory=set)   # warm at intake
    manifest: RunManifest | None = None
    progress_snapshot: JobProgress | None = None    # frozen at finish


class Orchestrator(Supervisor):
    """See module docstring.  Thread-safety: the HTTP handler threads
    and the scheduler loop share ``self._lock``; worker processes only
    touch their own task and report pipes."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self._dir = service_dir()
        self._jobs_dir = self._dir / "jobs"
        self._feeds_dir = self._dir / "feeds"
        for d in (self._jobs_dir, self._feeds_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(self._dir / "journal.jsonl")
        self.generation = self.journal.generation() + 1
        self.cache = rc.ResultsCache()
        self.jobs: dict[str, _Job] = {}
        self.events: tele_events.EventLog | None = None
        tele_ctx = None
        if self.config.telemetry_dir is not None:
            tdir = Path(self.config.telemetry_dir)
            self.events = tele_events.EventLog(tdir, SERVICE_RUN_ID)
            tele_ctx = (str(tdir), SERVICE_RUN_ID, None)
        super().__init__(LeaseQueue(policy=self.config.policy,
                                    lease_ttl=self.config.lease_ttl),
                         tele_ctx)
        self._draining = False
        self._stopped = False
        self._wake_w = None             # set by start(), see _wake
        self._http = None               # set by repro.service.api
        self._merge_threads: list[threading.Thread] = []
        self.journal.append("generation", generation=self.generation)
        self._emit("service_started", generation=self.generation,
                   workers=self.config.workers)
        self._recover()

    # -- durable job records -----------------------------------------------

    def _job_path(self, job_id: str) -> Path:
        return self._jobs_dir / f"{job_id}.json"

    def _save_job(self, job: _Job) -> None:
        import json
        data = {"id": job.id, "state": job.state,
                "request": job.request.to_dict(),
                "submitted": job.submitted, "started": job.started,
                "finished": job.finished, "error": job.error,
                "cells_total": len(job.keys)}
        if job.progress_snapshot is not None:
            data["progress"] = job.progress_snapshot.to_dict()
        with atomic_write(self._job_path(job.id)) as fh:
            fh.write(json.dumps(data, separators=(",", ":")).encode("utf-8"))

    def _feed(self, job: _Job, result: CellResult) -> None:
        import json
        path = self._feeds_dir / f"{job.id}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(result.to_dict(),
                                separators=(",", ":")) + "\n")
            fh.flush()

    def feed_path(self, job_id: str) -> Path:
        return self._feeds_dir / f"{job_id}.jsonl"

    # -- intake ------------------------------------------------------------

    def _compile_sweep(self, req: JobRequest) -> list[parallel.Job]:
        """The fig7 entry's grid, so the cells' content-addressed keys
        match the CLI's exactly."""
        from repro.experiments.figures import QUICK_WORKLOADS, plan_figure
        wls = QUICK_WORKLOADS if req.workloads == "quick" else req.workloads
        known = {w.name for w in WORKLOADS}
        unknown = [w for w in wls or () if w not in known]
        if unknown:
            raise ValueError("unknown workload(s): "
                             + ", ".join(sorted(unknown)))
        params = {"variants": tuple(req.variants)} if req.variants else {}
        grid, _ = plan_figure("fig7", wls, tier=req.tier, length=req.length,
                              **params)
        return grid

    def submit(self, req: JobRequest) -> SubmitResponse:
        """Register one job; cheap cells (warm cache) settle inline.

        Raises :class:`Draining`, :class:`QueueFull`, or ``ValueError``
        (bad request content) — the HTTP layer maps each to its status
        code.
        """
        with self._lock:
            if self._draining or self._stopped:
                raise Draining("orchestrator is draining; resubmit "
                               "after restart")
            active = sum(1 for j in self.jobs.values()
                         if j.state in ("queued", "running"))
            if active >= self.config.queue_depth:
                raise QueueFull(
                    f"queue depth {self.config.queue_depth} reached "
                    f"({active} active job(s)); retry after "
                    f"{RETRY_AFTER_SECONDS:g}s")
            job = _Job(id=new_job_id(), request=req,
                       submitted=time.time())
            if req.kind == "merge":
                return self._submit_merge(job)
            grid = self._compile_sweep(req)     # ValueError on bad wl
            backend = resolve_backend(req.backend)
            self._register_cells(job, grid, backend)
            self.jobs[job.id] = job
            self.journal.append("job_submitted", job_id=job.id,
                                cells=len(job.keys))
            self._emit("job_submitted", job_id=job.id,
                       cells=len(job.keys))
            self._save_job(job)
            self._check_job_done(job)
            # Wake the scheduler, which otherwise sleeps out its poll
            # before leasing the new job's first cell.
            self._wake()
            return SubmitResponse(job_id=job.id, state=job.state,
                                  cells=len(job.keys), run_id=job.id)

    def _register_cells(self, job: _Job, grid: list[parallel.Job],
                        backend: str, resumed: bool = False) -> None:
        """Run ``run_grid``'s intake on the grid, then seed the queue
        and the job's service manifest with its unique cells."""
        job.manifest = RunManifest.open(job.id, service=True)
        cells = parallel.intake(grid, backend, cache=self.cache)
        job.labels = cells.labels
        job.keys = list(cells.labels)
        for key, label in cells.labels.items():
            fanout = cells.fanout[key]
            prior = job.manifest.cells.get(key, {})
            attempts = prior.get("attempts", 0) if resumed else 0
            cell = self.queue.add(job.id, key, label, attempts=attempts,
                                  spec=cells.specs.get(key))
            hit = cells.hits.get(key)
            if hit is not None:
                job.cached_keys.add(key)
                self.queue.settle(key, DONE)
                job.manifest.register(key, label, status="done",
                                      source="cache", fanout=fanout)
                self._emit("cell_cached", key=key, label=label)
                self._feed(job, CellResult(
                    key=key, label=label, status="done",
                    source="cache", attempts=attempts,
                    payload_sha=rc.payload_checksum(hit)))
                continue
            if resumed and prior.get("status") == "failed":
                # Retry budget already spent before the crash; keep it.
                self.queue.settle(key, FAILED)
                cell.error = prior.get("error")
                job.manifest.register(key, label, status="failed",
                                      fanout=fanout)
                job.manifest.cells[key]["attempts"] = attempts
                job.manifest.cells[key]["error"] = prior.get("error")
                continue
            job.manifest.register(key, label, fanout=fanout)
            job.manifest.cells[key]["attempts"] = attempts
            self._emit("cell_queued", key=key, label=label)
        job.manifest.save()

    def _submit_merge(self, job: _Job) -> SubmitResponse:
        """A ``repro merge --watch`` as a service job: a watcher thread
        polls until every shard reports complete, then stitches."""
        self.jobs[job.id] = job
        self.journal.append("job_submitted", job_id=job.id, cells=0,
                            kind="merge", run_id=job.request.run_id)
        self._emit("job_submitted", job_id=job.id, cells=0)
        job.state = "running"
        job.started = time.time()
        self._save_job(job)
        self._watch_merge(job)
        return SubmitResponse(job_id=job.id, state=job.state,
                              cells=0, run_id=job.request.run_id)

    def _watch_merge(self, job: _Job) -> None:
        thread = threading.Thread(target=self._run_merge,
                                  args=(job.id,), daemon=True,
                                  name=f"merge-{job.id}")
        self._merge_threads.append(thread)
        thread.start()

    def _run_merge(self, job_id: str) -> None:
        from repro.experiments.sharding import (ShardMergeError,
                                                merge_shards,
                                                wait_for_shards)
        job = self.jobs[job_id]
        req = job.request
        try:
            wait_for_shards(req.run_id, poll=0.5,
                            timeout=req.watch_timeout)
            report = merge_shards(
                req.run_id,
                telemetry_dir=self.config.telemetry_dir)
        except (TimeoutError, ShardMergeError,
                FileNotFoundError) as exc:
            with self._lock:
                self._finish_job(job, "failed", error=str(exc))
            return
        with self._lock:
            self._feed(job, CellResult(
                key=req.run_id, label=f"merge:{req.run_id}",
                status="done", source="run",
                seconds=time.time() - job.started,
                payload_sha=None,
                error=None))
            job.error = None
            self._finish_job(job, "complete",
                             summary=report.summary())

    # -- status / cancel ---------------------------------------------------

    def _progress(self, job: _Job) -> JobProgress:
        if job.progress_snapshot is not None:
            return job.progress_snapshot
        p = JobProgress(total=len(job.keys))
        for key in job.keys:
            cell = self.queue.cells.get(key)
            state = cell.state if cell is not None else PENDING
            if state == DONE:
                p.done += 1
            elif state == LEASED:
                p.running += 1
            elif state == FAILED:
                p.failed += 1
            elif state == CANCELLED:
                p.cancelled += 1
            else:
                p.pending += 1
        p.cached = len(job.cached_keys)
        return p

    def _status(self, job: _Job) -> JobStatus:
        return JobStatus(job_id=job.id, state=job.state,
                         kind=job.request.kind,
                         progress=self._progress(job),
                         submitted=job.submitted, started=job.started,
                         finished=job.finished, error=job.error,
                         request=job.request.to_dict())

    def status(self, job_id: str) -> JobStatus:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            return self._status(job)

    def list_jobs(self) -> list[JobStatus]:
        with self._lock:
            return [self._status(j) for j in
                    sorted(self.jobs.values(),
                           key=lambda j: j.submitted)]

    def cancel(self, job_id: str) -> JobStatus:
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            if job.state in schemas.TERMINAL_JOB_STATES:
                return self._status(job)
            for key in self.queue.cancel_job(job_id):
                self._feed(job, CellResult(
                    key=key, label=job.labels.get(key, "?"),
                    status="cancelled"))
            job.progress_snapshot = self._progress(job)
            self.queue.forget_job(job_id)
            job.state = "cancelled"
            job.finished = time.time()
            if job.manifest is not None:
                job.manifest.finalize("interrupted")
            self.journal.append("job_cancelled", job_id=job.id)
            self._emit("job_cancelled", job_id=job.id)
            self._save_job(job)
            return self._status(job)

    def health(self) -> Health:
        with self._lock:
            counts: dict[str, int] = {}
            for job in self.jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
            return Health(
                status="draining" if self._draining else "ok",
                generation=self.generation,
                workers=sum(1 for w in self._workers.values()
                            if w.proc.is_alive()),
                jobs=counts)

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal + job records + manifests + cache: every
        in-flight job resumes with zero redundant simulation."""
        import json
        if self.events is not None:
            # Fold worker shards a dead predecessor never merged.
            self.events.merge_worker_shards()
        for path in sorted(self._jobs_dir.glob("*.json")):
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                continue
            state = data.get("state")
            job = _Job(id=data["id"],
                       request=JobRequest.from_dict(
                           data.get("request", {})),
                       state=state or "queued",
                       submitted=data.get("submitted", 0.0),
                       started=data.get("started"),
                       finished=data.get("finished"),
                       error=data.get("error"))
            if data.get("progress"):
                job.progress_snapshot = JobProgress(**data["progress"])
            self.jobs[job.id] = job
            if state in schemas.TERMINAL_JOB_STATES:
                continue
            if job.request.kind == "merge":
                # Re-arm the watcher; wait_for_shards is idempotent.
                job.state = "running"
                self._watch_merge(job)
                continue
            grid = self._compile_sweep(job.request)
            backend = resolve_backend(job.request.backend)
            self._register_cells(job, grid, backend, resumed=True)
            self.journal.append("job_resumed", job_id=job.id,
                                generation=self.generation)
            self._emit("job_started", job_id=job.id)
            self._save_job(job)
            self._check_job_done(job)

    # -- workers and scheduling --------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool."""
        with self._lock:
            if resolve_backend() == "batch":
                # Compile/load once here (a no-op after the first
                # call): workers inherit the handle instead of each
                # compiling it.
                load_kernel()
            if self._wake_w is None:
                self._wake_r, self._wake_w = multiprocessing.Pipe(
                    duplex=False)
            self._start_workers(self.config.workers)

    def _wake(self) -> None:
        """Cut the scheduler's current ``_receive`` wait short (a
        message on the self-pipe it also waits on); a no-op before
        :meth:`start` and after shutdown."""
        with self._lock:
            if self._wake_w is not None:
                self._wake_w.send(None)

    def _shutdown_workers(self) -> None:
        super()._shutdown_workers()
        with self._lock:
            if self._wake_w is not None:
                self._wake_r.close()
                self._wake_w.close()
                self._wake_r = self._wake_w = None

    def _respawns(self) -> bool:
        return not self._draining and not self._stopped

    def run(self, poll: float = 0.2) -> None:
        """Blocking scheduler loop; returns after a completed drain."""
        self.start()
        try:
            while not self._stopped:
                self.step(poll)
        finally:
            self._shutdown_workers()
            with self._lock:
                for job in self.jobs.values():
                    if job.manifest is not None:
                        job.manifest.close()
            if self._http is not None:
                try:
                    self._http.shutdown()
                    self._http.server_close()
                except Exception:
                    pass
            if self.events is not None:
                self.events.merge_worker_shards()
                self.events.close()
            self.journal.close()

    def step(self, poll: float = 0.2) -> None:
        """One scheduler iteration (exposed for in-process tests): the
        supervisor's step, then the end of a drain once nothing is
        leased."""
        super().step(poll)
        with self._lock:
            if self._draining and not any(
                    c.state == LEASED for c in self.queue.cells.values()):
                self._complete_drain()

    def _dispatch(self, now: float) -> None:
        # Spelled out on this class so perfbench can time it (its span
        # hooks wrap methods a class defines, not inherited ones).  A
        # draining orchestrator leases nothing.
        if not self._draining:
            super()._dispatch(now)

    def _on_leased(self, cell: Cell) -> None:
        for job_id in sorted(cell.jobs):
            job = self.jobs.get(job_id)
            if job is not None and job.state == "queued":
                job.state = "running"
                job.started = time.time()
                self._emit("job_started", job_id=job.id)
                self._save_job(job)
        self._mark_manifests(cell.key, "running", attempts=cell.attempts)

    def _on_done(self, wid: str, key: str, token: int,
                 payload: dict) -> None:
        cell = self.queue.cells.get(key)
        lease = cell.lease if cell is not None else None
        attempt = token
        if not self.queue.complete(key, wid, token):
            # Stale fencing token (lease expired or was revoked): the
            # result is discarded — the re-leased attempt owns the cell.
            self.journal.append("stale_result", key=key, worker=wid,
                                attempt=attempt)
            return
        seconds = lease.reported - lease.granted
        self.cache.put(key, payload)
        self.journal.append("cell_done", key=key, worker=wid,
                            attempt=attempt)
        label = cell.label
        self._emit("cell_done", key=key, label=label, source="run",
                   seconds=round(seconds, 3))
        self._mark_manifests(key, "done", attempts=attempt,
                             seconds=seconds, source="run")
        sha = rc.payload_checksum(payload)
        for job in self._jobs_of(key):
            self._feed(job, CellResult(
                key=key, label=label, status="done", source="run",
                attempts=attempt, seconds=seconds, payload_sha=sha))
            self._check_job_done(job)
        # The crash point of the ``orchestrator_crash`` fault: state
        # for this cell is fully journaled/cached, so the restarted
        # generation resumes without re-simulating it.
        faults.inject_orchestrator_crash(f"orc:{key}", self.generation,
                                         hard=self.config.hard_crash)

    def _on_error(self, wid: str, key: str, token: int,
                  err: str) -> None:
        cell = self.queue.cells.get(key)
        disp = self.queue.fail(key, wid, token, err, time.monotonic())
        if disp == "stale":
            return
        self.journal.append("cell_error", key=key, worker=wid,
                            attempt=token, error=err,
                            disposition=disp)
        if disp == "retry":
            self._emit("cell_retried", key=key, label=cell.label,
                       attempt=token, error=err)
            self._mark_manifests(key, "retrying", attempts=token,
                                 error=err)
            return
        self._cell_failed(cell, token, err)

    def _after_release(self, cell: Cell, attempt: int,
                       disposition: str | None) -> None:
        """Manifest/feed bookkeeping after an expiry or revocation."""
        if disposition == "retry":
            self._emit("cell_requeued", key=cell.key, label=cell.label)
            self._mark_manifests(cell.key, "pending", attempts=attempt)
        elif disposition == "failed":
            self._cell_failed(cell, attempt, cell.error or "lease expired")

    def _cell_failed(self, cell: Cell, attempt: int, err: str) -> None:
        self._emit("cell_failed", key=cell.key, label=cell.label,
                   attempt=attempt, error=err)
        self._mark_manifests(cell.key, "failed", attempts=attempt,
                             error=err)
        for job in self._jobs_of(cell.key):
            self._feed(job, CellResult(key=cell.key, label=cell.label,
                                       status="failed",
                                       attempts=attempt, error=err))
            self._check_job_done(job)

    # -- job bookkeeping ---------------------------------------------------

    def _jobs_of(self, key: str) -> list[_Job]:
        cell = self.queue.cells.get(key)
        if cell is None:
            return []
        return [self.jobs[j] for j in sorted(cell.jobs)
                if j in self.jobs
                and self.jobs[j].state in ("queued", "running")]

    def _mark_manifests(self, key: str, status: str, **kw) -> None:
        for job in self._jobs_of(key):
            if job.manifest is not None \
                    and key in job.manifest.cells:
                job.manifest.mark(key, status, **kw)

    def _check_job_done(self, job: _Job) -> None:
        if job.state in schemas.TERMINAL_JOB_STATES:
            return
        if not job.keys or not self.queue.job_settled(job.id):
            return
        counts = self.queue.counts_for(job.id)
        if counts.get(FAILED):
            self._finish_job(
                job, "failed",
                error=f"{counts[FAILED]} of {len(job.keys)} cell(s) "
                      f"failed permanently after "
                      f"{self.config.policy.retries} retries")
        else:
            self._finish_job(job, "complete")

    def _finish_job(self, job: _Job, state: str, error: str | None
                    = None, summary: str | None = None) -> None:
        job.progress_snapshot = self._progress(job)
        job.state = state
        job.finished = time.time()
        if error is not None:
            job.error = error
        if job.started is None:
            job.started = job.finished
        if job.manifest is not None:
            job.manifest.finalize(
                "complete" if state == "complete" else "failed")
        self.queue.forget_job(job.id)
        self.journal.append("job_finished", job_id=job.id, status=state)
        self._emit("job_finished", job_id=job.id, status=state)
        self._save_job(job)

    # -- drain -------------------------------------------------------------

    def request_drain(self) -> None:
        """SIGTERM handler body: stop leasing, finish in-flight cells,
        checkpoint, then :meth:`run` returns."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self.journal.append("drain", generation=self.generation)
            self._emit("service_drain")

    def _complete_drain(self) -> None:
        self._stopped = True
        self.journal.append("stopped", generation=self.generation)
        self._emit("service_stopped", status="drained")
