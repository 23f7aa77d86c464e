"""Crash-tolerant job orchestrator: sweep jobs as a long-running service.

One :class:`Orchestrator` owns the durable state under
``$REPRO_CACHE_DIR/service/`` — the queue :class:`~repro.service.queue.
Journal`, per-job records (``jobs/<id>.json``, atomic writes), and the
JSONL result feeds (``feeds/<id>.jsonl``) — plus a pool of worker
processes (:mod:`repro.service.worker`) executing cells through the
exact ``run_grid`` worker code path.  Every simulated byte still flows
through the proven manifest/results-cache machinery: a job's cells are
compiled with :func:`repro.experiments.parallel._job_spec`, so their
content-addressed keys — and therefore their cached payloads — are
byte-identical to the same sweep run via the CLI.

Robustness model (docs/SERVICE.md):

* **lease-based claims** — a worker holds one cell at a time under a
  TTL'd lease (fencing token = attempt number) renewed by heartbeat;
  a crashed/vanished worker's lease expires and its cell is requeued
  exactly once with the attempt count preserved and the engine's
  deterministic backoff, bounded by ``RunPolicy.retries``;
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

Faults ``worker_vanish`` / ``lease_loss`` / ``orchestrator_crash``
(:mod:`repro.faults`) exercise each path deterministically.
"""

from __future__ import annotations

import os
import queue as stdlib_queue
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
from repro.experiments.runner import default_config
from repro.experiments.workloads import WORKLOADS, cache_dir
from repro.service import schemas
from repro.service import worker as service_worker
from repro.service.queue import (CANCELLED, DONE, FAILED, LEASED,
                                 PENDING, Journal, LeaseQueue)
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
    lease_ttl: float = 15.0
    policy: parallel.RunPolicy = field(
        default_factory=parallel.RunPolicy)
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


@dataclass
class _Worker:
    wid: str
    proc: object
    task_q: object
    last_beat: float
    ready: bool = False
    current: tuple | None = None        # (key, token) while executing


class Orchestrator:
    """See module docstring.  Thread-safety: the HTTP handler threads
    and the scheduler loop share ``self._lock``; worker processes only
    touch the multiprocessing queues."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self._lock = threading.RLock()
        self._dir = service_dir()
        self._jobs_dir = self._dir / "jobs"
        self._feeds_dir = self._dir / "feeds"
        for d in (self._jobs_dir, self._feeds_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.journal = Journal(self._dir / "journal.jsonl")
        self.generation = self.journal.generation() + 1
        self.queue = LeaseQueue(policy=self.config.policy,
                                lease_ttl=self.config.lease_ttl)
        self.cache = rc.ResultsCache()
        self.jobs: dict[str, _Job] = {}
        self.events: tele_events.EventLog | None = None
        self._tele_ctx = None
        if self.config.telemetry_dir is not None:
            tdir = Path(self.config.telemetry_dir)
            self.events = tele_events.EventLog(tdir, SERVICE_RUN_ID)
            self._tele_ctx = (str(tdir), SERVICE_RUN_ID, None)
        self._mp = __import__("multiprocessing").get_context()
        self._result_q = self._mp.Queue()
        self._workers: dict[str, _Worker] = {}
        self._worker_seq = 0
        self._draining = False
        self._stopped = False
        self._http = None               # set by repro.service.api
        self._merge_threads: list[threading.Thread] = []
        self.journal.append("generation", generation=self.generation)
        self._emit("service_started", generation=self.generation,
                   workers=self.config.workers)
        self._recover()

    # -- telemetry ---------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

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
            fh.write(json.dumps(data, indent=1).encode("utf-8"))

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
        """The same grid the CLI builds for a fig7-style sweep, so the
        cells' content-addressed keys match the CLI's exactly."""
        from repro.cli import QUICK_WORKLOADS
        from repro.experiments.figures import SINGLE_CORE_VARIANTS
        if req.workloads == "quick":
            wls = list(QUICK_WORKLOADS)
        elif req.workloads is None:
            wls = [w.name for w in WORKLOADS]
        else:
            wls = list(req.workloads)
        known = {w.name for w in WORKLOADS}
        unknown = [w for w in wls if w not in known]
        if unknown:
            raise ValueError("unknown workload(s): "
                             + ", ".join(sorted(unknown)))
        variants = tuple(req.variants) or SINGLE_CORE_VARIANTS
        all_variants = ("baseline",) + tuple(
            v for v in variants if v != "baseline")
        cfg = default_config()
        return [parallel.Job(wl, v, cfg, req.tier, req.length)
                for wl in wls for v in all_variants]

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
            self._result_q.put(("wake", None))
            return SubmitResponse(job_id=job.id, state=job.state,
                                  cells=len(job.keys), run_id=job.id)

    def _register_cells(self, job: _Job, grid: list[parallel.Job],
                        backend: str, resumed: bool = False) -> None:
        """Compile the grid to unique cells, probe the cache, seed the
        queue and the job's service manifest (``run_grid``'s intake,
        minus in-grid execution)."""
        job.manifest = RunManifest.open(job.id, service=True)
        fanout: dict[str, int] = {}
        order: list[tuple[str, str]] = []       # (key, label) unique
        for cell in grid:
            spec, key = parallel._job_spec(cell, backend=backend)
            if key not in fanout:
                order.append((key, cell.label))
                self._specs[key] = spec
            fanout[key] = fanout.get(key, 0) + 1
        for key, label in order:
            job.keys.append(key)
            job.labels[key] = label
            prior = job.manifest.cells.get(key, {})
            attempts = prior.get("attempts", 0) if resumed else 0
            hit = self.cache.get(key)
            if hit is not None:
                job.cached_keys.add(key)
                self.queue.add(job.id, key, label, attempts=attempts)
                self.queue.settle(key, DONE)
                job.manifest.register(key, label, status="done",
                                      source="cache",
                                      fanout=fanout[key])
                self._emit("cell_cached", key=key, label=label)
                self._feed(job, CellResult(
                    key=key, label=label, status="done",
                    source="cache", attempts=attempts,
                    payload_sha=rc.payload_checksum(hit)))
                continue
            if resumed and prior.get("status") == "failed":
                # Retry budget already spent before the crash; keep it.
                self.queue.add(job.id, key, label, attempts=attempts)
                self.queue.settle(key, FAILED)
                self.queue.cells[key].error = prior.get("error")
                job.manifest.register(key, label, status="failed",
                                      fanout=fanout[key])
                job.manifest.cells[key]["attempts"] = attempts
                job.manifest.cells[key]["error"] = prior.get("error")
                continue
            self.queue.add(job.id, key, label, attempts=attempts)
            job.manifest.register(key, label, fanout=fanout[key])
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
        thread = threading.Thread(target=self._run_merge,
                                  args=(job.id,), daemon=True,
                                  name=f"merge-{job.id}")
        self._merge_threads.append(thread)
        thread.start()
        return SubmitResponse(job_id=job.id, state=job.state,
                              cells=0, run_id=job.request.run_id)

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

    _specs: dict     # key -> picklable work spec (rebuilt at intake)

    def _recover(self) -> None:
        """Replay the journal + job records + manifests + cache: every
        in-flight job resumes with zero redundant simulation."""
        import json
        self._specs = {}
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
                thread = threading.Thread(target=self._run_merge,
                                          args=(job.id,), daemon=True,
                                          name=f"merge-{job.id}")
                self._merge_threads.append(thread)
                thread.start()
                continue
            grid = self._compile_sweep(job.request)
            backend = resolve_backend(job.request.backend)
            job.keys, job.labels = [], {}
            job.cached_keys = set()
            self._register_cells(job, grid, backend, resumed=True)
            self.journal.append("job_resumed", job_id=job.id,
                                generation=self.generation)
            self._emit("job_started", job_id=job.id)
            self._save_job(job)
            self._check_job_done(job)

    # -- workers -----------------------------------------------------------

    def _spawn_worker(self) -> None:
        if resolve_backend() == "batch":
            # Compile/load once here (a no-op after the first call):
            # workers inherit the handle instead of each compiling it.
            load_kernel()
        self._worker_seq += 1
        wid = f"w{self._worker_seq}"
        task_q = self._mp.Queue()
        proc = self._mp.Process(
            target=_worker_entry, name=f"repro-service-{wid}",
            args=(wid, task_q, self._result_q, self.config.lease_ttl,
                  faults.active_plan(), self._tele_ctx, os.getpid()),
            daemon=True)
        proc.start()
        self._workers[wid] = _Worker(wid=wid, proc=proc, task_q=task_q,
                                     last_beat=time.monotonic())
        self._emit("worker_spawned", worker=wid)

    def start(self) -> None:
        """Spawn the worker pool and the HTTP server (if configured)."""
        with self._lock:
            for _ in range(self.config.workers):
                self._spawn_worker()

    def _reap_worker(self, w: _Worker, reason: str) -> None:
        """A worker died or hung: revoke its leases, replace it."""
        self._emit("worker_lost", worker=w.wid, reason=reason)
        self.journal.append("worker_lost", worker=w.wid, reason=reason)
        for cell in self.queue.leases_of(w.wid):
            attempt = cell.lease.token
            disp = self.queue.revoke(
                cell.key, f"worker {w.wid} {reason}", time.monotonic())
            self._emit("lease_expired", key=cell.key, worker=w.wid,
                       attempt=attempt, reason=reason)
            self._after_release(cell.key, attempt, disp)
        try:
            if w.proc.is_alive():
                w.proc.terminate()
        except Exception:
            pass
        del self._workers[w.wid]
        if not self._draining and not self._stopped:
            self._spawn_worker()

    # -- scheduler loop ----------------------------------------------------

    def run(self, poll: float = 0.2) -> None:
        """Blocking scheduler loop; returns after a completed drain."""
        self.start()
        try:
            while not self._stopped:
                self.step(poll)
        finally:
            self._shutdown_workers()
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
        """One scheduler iteration (exposed for in-process tests)."""
        try:
            msg = self._result_q.get(timeout=poll)
        except stdlib_queue.Empty:
            msg = None
        with self._lock:
            while True:
                if msg is not None:
                    self._on_message(msg)
                try:
                    msg = self._result_q.get_nowait()
                except stdlib_queue.Empty:
                    break
            now = time.monotonic()
            for cell, disp, worker in self.queue.expire(now):
                self._emit("lease_expired", key=cell.key,
                           worker=worker, attempt=cell.attempts,
                           reason="ttl")
                self.journal.append("lease_expired", key=cell.key,
                                    worker=worker,
                                    attempt=cell.attempts)
                self._after_release(cell.key, cell.attempts, disp)
            self._check_workers(now)
            if not self._draining:
                self._dispatch(now)
            elif not any(c.state == LEASED
                         for c in self.queue.cells.values()):
                self._complete_drain()

    def _check_workers(self, now: float) -> None:
        timeout = self.config.policy.timeout
        for w in list(self._workers.values()):
            if not w.proc.is_alive():
                self._reap_worker(w, "vanished")
                continue
            if timeout is not None and w.current is not None:
                key, _token = w.current
                cell = self.queue.cells.get(key)
                if (cell is not None and cell.state == LEASED
                        and cell.lease.worker == w.wid
                        and now - cell.lease.granted > timeout):
                    self._reap_worker(w, "hung")

    def _dispatch(self, now: float) -> None:
        for w in self._workers.values():
            if not w.ready or not w.proc.is_alive():
                continue
            cell = self.queue.claim(w.wid, now)
            if cell is None:
                return              # nothing claimable right now
            w.ready = False
            w.current = (cell.key, cell.lease.token)
            for job_id in sorted(cell.jobs):
                job = self.jobs.get(job_id)
                if job is not None and job.state == "queued":
                    job.state = "running"
                    job.started = time.time()
                    self._emit("job_started", job_id=job.id)
                    self._save_job(job)
            self._emit("cell_leased", key=cell.key, worker=w.wid,
                       attempt=cell.attempts)
            self.journal.append("lease", key=cell.key, worker=w.wid,
                                attempt=cell.attempts)
            self._mark_manifests(cell.key, "running",
                                 attempts=cell.attempts)
            w.task_q.put((cell.key, self._specs[cell.key],
                          cell.attempts, cell.lease.token))
            if faults.lease_lost(cell.key, cell.attempts):
                # Simulated lease-store loss: the worker runs on, but
                # its token is now stale; the cell is requeued (the
                # spent attempt preserved) and the late result dropped.
                attempt = cell.attempts
                disp = self.queue.revoke(cell.key,
                                         "lease lost (injected)", now)
                self._emit("lease_expired", key=cell.key, worker=w.wid,
                           attempt=attempt, reason="revoked")
                self.journal.append("lease_revoked", key=cell.key,
                                    worker=w.wid, attempt=attempt)
                self._after_release(cell.key, attempt, disp)

    def _on_message(self, msg: tuple) -> None:
        kind, wid = msg[0], msg[1]
        w = self._workers.get(wid)
        if kind == "heartbeat":
            if w is not None:
                w.last_beat = time.monotonic()
                for cell in self.queue.leases_of(wid):
                    if self.queue.renew(cell.key, wid,
                                        cell.lease.token,
                                        time.monotonic()):
                        self._emit("lease_renewed", key=cell.key,
                                   worker=wid)
            return
        if kind == "ready":
            if w is not None:
                w.ready = True
                w.current = None
            return
        if kind in ("started", "wake"):
            return      # informational / submit's nudge: step dispatches
        if kind == "done":
            _, _, key, token, payload = msg
            self._on_done(wid, key, token, payload)
            return
        if kind == "error":
            _, _, key, token, err = msg
            self._on_error(wid, key, token, err)

    def _on_done(self, wid: str, key: str, token: int,
                 payload: dict) -> None:
        cell = self.queue.cells.get(key)
        attempt = token
        seconds = None
        if cell is not None and cell.state == LEASED \
                and cell.lease is not None:
            seconds = time.monotonic() - cell.lease.granted
        if not self.queue.complete(key, wid, token):
            # Stale fencing token (lease expired or was revoked): the
            # result is discarded — the re-leased attempt owns the cell.
            self.journal.append("stale_result", key=key, worker=wid,
                                attempt=attempt)
            return
        self.cache.put(key, payload)
        self.journal.append("cell_done", key=key, worker=wid,
                            attempt=attempt)
        label = self._label_of(key)
        self._emit("cell_done", key=key, label=label, source="run",
                   seconds=round(seconds, 3) if seconds else 0.0)
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
        disp = self.queue.fail(key, wid, token, err, time.monotonic())
        if disp == "stale":
            return
        self.journal.append("cell_error", key=key, worker=wid,
                            attempt=token, error=err,
                            disposition=disp)
        label = self._label_of(key)
        if disp == "retry":
            self._emit("cell_retried", key=key, label=label,
                       attempt=token, error=err)
            self._mark_manifests(key, "retrying", attempts=token,
                                 error=err)
            return
        self._emit("cell_failed", key=key, label=label, attempt=token,
                   error=err)
        self._mark_manifests(key, "failed", attempts=token, error=err)
        for job in self._jobs_of(key):
            self._feed(job, CellResult(key=key, label=label,
                                       status="failed",
                                       attempts=token, error=err))
            self._check_job_done(job)

    def _after_release(self, key: str, attempt: int,
                       disp: str | None) -> None:
        """Manifest/feed bookkeeping after an expiry or revocation."""
        if disp is None:
            return
        label = self._label_of(key)
        if disp == "retry":
            self._emit("cell_requeued", key=key, label=label)
            self._mark_manifests(key, "pending", attempts=attempt)
            return
        cell = self.queue.cells.get(key)
        err = (cell.error if cell is not None else None) \
            or "lease expired"
        self._emit("cell_failed", key=key, label=label,
                   attempt=attempt, error=err)
        self._mark_manifests(key, "failed", attempts=attempt,
                             error=err)
        for job in self._jobs_of(key):
            self._feed(job, CellResult(key=key, label=label,
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

    def _label_of(self, key: str) -> str:
        cell = self.queue.cells.get(key)
        if cell is not None:
            return cell.label
        return "?"

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

    def _shutdown_workers(self) -> None:
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for w in workers:
            try:
                w.task_q.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for w in workers:
            w.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if w.proc.is_alive():
                try:
                    w.proc.terminate()
                except Exception:
                    pass


def _worker_entry(wid, task_q, result_q, lease_ttl, fault_plan,
                  tele_ctx, parent_pid) -> None:
    """Child-process entry: die with the parent (an orchestrator crash
    must not leave orphan workers mining CPU), then run the loop."""
    import threading as _threading

    def watch_parent() -> None:
        while True:
            time.sleep(0.5)
            if os.getppid() != parent_pid:
                os._exit(0)
    _threading.Thread(target=watch_parent, daemon=True).start()
    service_worker.worker_main(wid, task_q, result_q, lease_ttl,
                               fault_plan=fault_plan,
                               tele_ctx=tele_ctx)
