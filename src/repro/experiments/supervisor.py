"""One supervisor for grid cells: a lease queue and the workers it feeds.

Every grid-shaped run — a ``run_grid`` sweep, a DSE rung, one shard of
a sharded sweep, a ``repro serve`` job — has the same task: get exactly
one accepted result per unique cell out of a set of workers that may
fail, crash or hang.  This module is that machinery, shared by
:func:`repro.experiments.parallel.run_grid` and
:class:`repro.service.orchestrator.Orchestrator`.

**The lease queue.**  :class:`LeaseQueue` tracks one :class:`Cell` per
unique content-addressed cache key.  A worker obtains a cell by
*claiming a lease* — an exclusive, time-bounded grant identified by a
fencing ``token`` — and must renew it (heartbeat) before ``lease_ttl``
elapses.  The state machine per cell::

                      claim                       complete
        pending ───────────────▶ leased ─────────────────────▶ done
           ▲                       │ fail (attempts left)
           │      expire/revoke    │──────────▶ pending (backoff)
           └───────────────────────┘ fail/expire (retries spent)
                                   └──────────▶ failed

Correctness properties (asserted by ``tests/test_service_queue.py``
over arbitrary interleavings of claim/renew/expire/revoke/complete/fail):

* **mutual exclusion** — at most one active lease per cell, ever; a
  claim is only granted on a ``pending`` cell.
* **fencing** — every grant carries a strictly increasing token (the
  cell's attempt count), and ``complete``/``fail`` with a stale token
  are rejected, so a worker whose lease was revoked (the ``lease_loss``
  fault) or expired cannot smuggle in a late result.
* **no lost cells** — expiry requeues a cell exactly once per lease
  (``attempts`` preserved), and every cell ends ``done``, ``failed`` or
  ``cancelled``.
* **bounded work** — a cell is leased at most ``1 + retries`` times
  (:class:`RunPolicy`); the wait before a re-claim is the deterministic
  exponential backoff with jitter of :func:`_backoff_delay`.  This gate
  is the only retry backoff in the program.

The queue is a pure in-memory structure with an injectable clock.  A
cell stays in it while a job that wants it is queued or running
(:meth:`LeaseQueue.forget_job` drops the rest), so its scans cover live
work only.

**The workers.**  :class:`Supervisor` runs worker processes
that execute leased cells through
:func:`repro.experiments.parallel._execute_cell`: it spawns them with
the active fault plan and telemetry context, renews their leases on
heartbeat, reaps a worker that dies or runs a cell past
``RunPolicy.timeout`` (revoking only that worker's lease) and spawns its
replacement, and grants the oldest claimable cell to each idle worker.
A client subclasses it and settles what the workers report.

**Lease first, settle second.**  :meth:`Supervisor.step` is the one
scheduler iteration of every client.  A worker's result also says that
it is free, so the step leases it its next cell *before* it settles the
result: the results-cache put, the journal's fsync and the feeds then
overlap the next simulation instead of preceding it::

    receive ─▶ free the reporters ─▶ dispatch ─▶ settle ─▶ dispatch
               (done/error/ready)                (fence, cache, journal,
                                                  manifests, expiries,
                                                  reaps)

The second dispatch leases what settling released (retries, revoked
leases) to workers still idle.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

from repro import faults
from repro.telemetry import events as tele_events

#: Default lease TTL in seconds: a worker silent for this long loses
#: its cell.  ``run_grid``, ``ServiceConfig`` and ``repro serve
#: --lease-ttl`` all default to it.
LEASE_TTL = 15.0

#: Heartbeat period as a fraction of the lease TTL: four beats per TTL
#: window, so a single dropped message never expires a healthy lease.
HEARTBEAT_FRACTION = 0.25


@dataclass(frozen=True)
class RunPolicy:
    """Failure-handling policy for one grid execution or service.

    ``timeout`` is per-cell wall seconds, enforced on worker processes
    (a single process cannot preempt itself); ``retries`` bounds
    *additional* attempts after the first, so a cell executes at most
    ``1 + retries`` times.  Backoff before the n-th retry is
    ``min(backoff_max, backoff * 2**(n-1))`` scaled by a deterministic
    jitter in ``[1, 1 + jitter)`` keyed on the cell, so retry schedules
    are reproducible.  ``fail_fast`` makes the first failed attempt
    permanent and aborts the grid; ``allow_partial`` returns ``None``
    for permanently failed cells instead of raising
    :class:`repro.experiments.parallel.GridError` at the end.
    """

    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.25
    backoff_max: float = 30.0
    jitter: float = 0.5
    fail_fast: bool = False
    allow_partial: bool = False


DEFAULT_POLICY = RunPolicy()


def _backoff_delay(policy: RunPolicy, key: str, attempt: int) -> float:
    """Exponential backoff with deterministic per-(cell, attempt) jitter."""
    base = min(policy.backoff_max, policy.backoff * 2.0 ** (attempt - 1))
    h = hashlib.sha256(f"backoff|{key}|{attempt}".encode()).digest()
    unit = int.from_bytes(h[:8], "big") / 2.0 ** 64
    return base * (1.0 + policy.jitter * unit)


# -- lease queue -------------------------------------------------------------

#: Cell states.  ``cancelled`` is terminal and only reachable while
#: ``pending`` (a leased cell finishes its in-flight attempt).
PENDING, LEASED, DONE, FAILED, CANCELLED = (
    "pending", "leased", "done", "failed", "cancelled")

TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class Lease:
    """One active, exclusive, time-bounded grant of a cell."""

    worker: str
    token: int                  # fencing token == attempts at grant
    expiry: float               # renewal deadline (queue clock)
    granted: float              # grant time (hang deadline base)
    reported: float | None = None   # when its done/error report arrived


@dataclass
class Cell:
    """One unique unit of work (a content-addressed grid cell)."""

    key: str
    label: str
    spec: dict | None = None    # work spec handed to the leaseholder
    jobs: set = field(default_factory=set)      # job ids wanting it
    state: str = PENDING
    attempts: int = 0           # lease grants so far (== last token)
    error: str | None = None
    not_before: float = 0.0     # backoff gate for the next claim
    lease: Lease | None = None


class LeaseQueue:
    """In-memory lease table + FIFO dispatch order (see module doc)."""

    def __init__(self, policy: RunPolicy | None = None,
                 lease_ttl: float = LEASE_TTL):
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {lease_ttl}")
        self.policy = policy or DEFAULT_POLICY
        self.lease_ttl = lease_ttl
        self.cells: dict[str, Cell] = {}        # key -> Cell, FIFO order

    # -- intake ------------------------------------------------------------

    def add(self, job_id: str, key: str, label: str, attempts: int = 0,
            spec: dict | None = None) -> Cell:
        """Register one cell for ``job_id``; idempotent across jobs.

        A key already present (another job wants the same cell, or a
        recovery replay) just gains the job membership — its state and
        attempt count are untouched.  ``attempts`` seeds the counter
        for recovered cells so a restarted orchestrator preserves the
        retry budget already spent.
        """
        cell = self.cells.get(key)
        if cell is None:
            cell = Cell(key=key, label=label, spec=spec, attempts=attempts)
            self.cells[key] = cell
        cell.jobs.add(job_id)
        return cell

    def settle(self, key: str, state: str = DONE) -> None:
        """Force a cell terminal without a lease cycle (recovery found
        its result already in the cache, or intake served it warm)."""
        cell = self.cells[key]
        if cell.state not in TERMINAL:
            cell.state = state
            cell.lease = None

    def forget_job(self, job_id: str) -> None:
        """``job_id`` is over: drop every terminal cell (and its spec)
        no other job holds.  A cell still leased stays until its
        attempt settles."""
        for cell in list(self.cells.values()):
            cell.jobs.discard(job_id)
            self._drop_if_orphaned(cell)

    def _drop_if_orphaned(self, cell: Cell) -> None:
        if not cell.jobs and cell.state in TERMINAL:
            self.cells.pop(cell.key, None)

    # -- lease lifecycle ---------------------------------------------------

    def claim(self, worker: str, now: float) -> Cell | None:
        """Grant the oldest claimable cell to ``worker``, or None.

        Claimable: ``pending``, past its backoff gate, with retry
        budget left.  The grant moves the cell to ``leased``, spends
        one attempt, and stamps a fresh fencing token.
        """
        for cell in self.cells.values():
            if cell.state != PENDING or cell.not_before > now:
                continue
            cell.attempts += 1
            cell.state = LEASED
            cell.error = None
            cell.lease = Lease(worker=worker, token=cell.attempts,
                               expiry=now + self.lease_ttl, granted=now)
            return cell
        return None

    def _holds(self, key: str, worker: str, token: int) -> Cell | None:
        """The cell iff ``(worker, token)`` holds its active lease."""
        cell = self.cells.get(key)
        if (cell is None or cell.lease is None
                or cell.lease.worker != worker
                or cell.lease.token != token):
            return None
        return cell

    def renew(self, key: str, worker: str, token: int,
              now: float) -> bool:
        """Heartbeat: extend the lease TTL; False when the lease is no
        longer held (expired, revoked, or re-granted elsewhere)."""
        cell = self._holds(key, worker, token)
        if cell is None:
            return False
        cell.lease.expiry = now + self.lease_ttl
        return True

    def complete(self, key: str, worker: str, token: int) -> bool:
        """Settle a leased cell as done; False for a stale token (the
        late result of a lost lease must be discarded by the caller)."""
        cell = self._holds(key, worker, token)
        if cell is None:
            return False
        cell.state = DONE
        cell.lease = None
        cell.error = None
        self._drop_if_orphaned(cell)
        return True

    def fail(self, key: str, worker: str, token: int, error: str,
             now: float) -> str:
        """Record a failed attempt under a held lease.

        Returns ``"retry"`` (requeued behind the deterministic backoff
        gate), ``"failed"`` (retry budget spent — terminal), or
        ``"stale"`` (token no longer holds the lease; ignore)."""
        cell = self._holds(key, worker, token)
        if cell is None:
            return "stale"
        return self._release(cell, error, now)

    def _release(self, cell: Cell, error: str, now: float) -> str:
        """Drop the active lease; requeue or fail by retry budget."""
        cell.lease = None
        cell.error = error
        if self.policy.fail_fast or cell.attempts > self.policy.retries:
            cell.state = FAILED
            self._drop_if_orphaned(cell)
            return "failed"
        cell.state = PENDING
        cell.not_before = now + _backoff_delay(self.policy, cell.key,
                                               cell.attempts)
        return "retry"

    def expire(self, now: float) -> list[tuple[Cell, str, str]]:
        """Requeue every cell whose lease outlived its TTL.

        Returns ``(cell, disposition, worker)`` triples (disposition
        ``"retry"`` or ``"failed"``) for the supervisor to journal and
        log.  Each expired lease is released exactly once — the cell is
        already ``pending`` (or ``failed``) on the next sweep.
        """
        out = []
        for cell in list(self.cells.values()):
            if (cell.state == LEASED
                    and cell.lease.expiry <= now):
                worker = cell.lease.worker
                out.append((cell, self._release(
                    cell, f"lease expired (worker {worker} lost)",
                    now), worker))
        return out

    def revoke(self, key: str, reason: str, now: float) -> str | None:
        """Force-release one active lease (``lease_loss`` fault, hung or
        dead worker).  Returns the disposition (``"retry"``/
        ``"failed"``) or None when nothing was leased."""
        cell = self.cells.get(key)
        if cell is None or cell.state != LEASED:
            return None
        return self._release(cell, reason, now)

    # -- job views ---------------------------------------------------------

    def cancel_job(self, job_id: str) -> list[str]:
        """Withdraw ``job_id``: pending cells no other job wants are
        cancelled (terminal); leased cells finish their in-flight
        attempt (the cached result is harmless).  Returns the
        cancelled keys."""
        out = []
        for cell in self.cells.values():
            cell.jobs.discard(job_id)
            if not cell.jobs and cell.state == PENDING:
                cell.state = CANCELLED
                out.append(cell.key)
        return out

    def counts_for(self, job_id: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for cell in self.cells.values():
            if job_id in cell.jobs:
                out[cell.state] = out.get(cell.state, 0) + 1
        return out

    def job_settled(self, job_id: str) -> bool:
        """Every cell of ``job_id`` is terminal."""
        return all(c.state in TERMINAL for c in self.cells.values()
                   if job_id in c.jobs)

    def next_wakeup(self, now: float) -> float | None:
        """Soonest future instant queue state can change on its own (a
        backoff gate opening or a lease TTL expiring); None when idle."""
        soonest = None
        for cell in self.cells.values():
            t = None
            if cell.state == PENDING and cell.not_before > now:
                t = cell.not_before
            elif cell.state == LEASED:
                t = cell.lease.expiry
            if t is not None and (soonest is None or t < soonest):
                soonest = t
        return soonest


# -- worker processes --------------------------------------------------------

@dataclass
class _Worker:
    wid: str
    proc: object
    task_w: object                      # write end of its task pipe
    ready: bool = False                 # free: no task in flight
    current: tuple | None = None        # (key, token) of its task


class Supervisor:
    """Worker processes draining one :class:`LeaseQueue`.

    Message protocol (plain tuples, first element the message name)::

        worker -> supervisor (its private one-way report pipe)
            ("ready",     wid)                       # started: free
            ("heartbeat", wid)                       # every ttl/4
            ("done",      wid, key, token, payload)  # cell result; free
            ("error",     wid, key, token, errstr)   # cell raised; free

        supervisor -> worker (its private one-way task pipe)
            (key, spec, attempt, token)              # execute one cell
            EOF                                      # exit cleanly

    Each worker has two pipes of its own, and holds the only copy of
    its task pipe's read end and of its report pipe's write end (it
    closes the task write ends it inherits at fork).  The scheduler
    thread writes a task straight to the pipe, so nothing waits on a
    feeder thread, and closing the write end tells an idle worker to
    exit.  A lock inside the worker keeps its heartbeat thread and main
    thread from interleaving reports.  No lock is shared across
    processes, because a worker terminated while holding one would
    never release it and would silence every other worker.
    :meth:`_receive` waits on every open report pipe at once, and drops
    a pipe at EOF — its worker has exited.

    A worker that dies (crash, OOM-kill) is seen dead and reaped; its
    lease is revoked, so only its own cell spends an attempt.  A hung
    cell keeps heartbeating, so hangs are caught by the per-cell
    deadline ``RunPolicy.timeout``; the lease TTL is the backstop for a
    worker that is alive but silent.

    A client subclass settles what happens to cells: ``_on_leased`` (a
    grant), ``_on_done``/``_on_error`` (a worker's report, still to be
    fenced through :meth:`LeaseQueue.complete`/:meth:`LeaseQueue.fail`)
    and ``_after_release`` (an expired or revoked lease, with the
    queue's disposition).  It may set ``events`` (the
    :class:`repro.telemetry.events.EventLog` ``_emit`` writes to) and
    ``journal`` (a :class:`repro.service.queue.Journal` recording
    grants, expiries, revocations and lost workers) and ``_wake_r``
    (the read end of a pipe whose messages only cut a :meth:`_receive`
    wait short), and override ``_respawns`` (whether a reaped worker is
    replaced).
    """

    events = None
    journal = None
    _wake_r = None

    def __init__(self, queue: LeaseQueue, tele_ctx: tuple | None = None):
        self.queue = queue
        self._tele_ctx = tele_ctx
        self._lock = threading.RLock()
        self._workers: dict[str, _Worker] = {}
        self._worker_seq = 0
        self._mp = None
        # Read ends of the workers' report pipes (a reaped worker's is
        # kept until its EOF).
        self._readers: list = []

    def _respawns(self) -> bool:
        return True

    def _emit(self, event: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(event, **fields)

    def _record(self, type_: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(type_, **fields)

    # -- worker lifecycle --------------------------------------------------

    def _start_workers(self, count: int) -> None:
        with self._lock:
            if self._mp is None:
                self._mp = multiprocessing.get_context()
            for _ in range(count):
                self._spawn_worker()

    def _spawn_worker(self) -> None:
        self._worker_seq += 1
        wid = f"w{self._worker_seq}"
        task_r, task_w = self._mp.Pipe(duplex=False)
        reader, writer = self._mp.Pipe(duplex=False)
        # A forked worker inherits every task write end open here; it
        # closes them, so that closing ours reads as EOF on its pipe.
        inherited = [task_w] + [w.task_w for w in self._workers.values()]
        proc = self._mp.Process(
            target=_worker_main, name=f"repro-worker-{wid}",
            args=(wid, task_r, writer, inherited, self.queue.lease_ttl,
                  faults.active_plan(), self._tele_ctx, os.getpid()),
            daemon=True)
        proc.start()
        # The worker now holds the only task read end and report write
        # end: a send to it after it exits fails, and its exit reads as
        # EOF here.
        task_r.close()
        writer.close()
        self._readers.append(reader)
        self._workers[wid] = _Worker(wid=wid, proc=proc, task_w=task_w)
        self._emit("worker_spawned", worker=wid)

    def _reap_worker(self, w: _Worker, reason: str, now: float) -> None:
        """A worker died or hung: revoke its lease, replace it."""
        self._emit("worker_lost", worker=w.wid, reason=reason)
        self._record("worker_lost", worker=w.wid, reason=reason)
        cell = self._lease_of(w)
        if cell is not None:
            error = (f"timeout: no result after "
                     f"{self.queue.policy.timeout:g}s (worker {w.wid} "
                     f"hung)" if reason == "hung" else
                     f"worker {w.wid} died (exit code {w.proc.exitcode})")
            disp = self.queue.revoke(cell.key, error, now)
            self._emit("lease_expired", key=cell.key, worker=w.wid,
                       attempt=cell.attempts, reason=reason)
            self._after_release(cell, cell.attempts, disp)
        if w.proc.is_alive():
            w.proc.terminate()
        w.task_w.close()
        del self._workers[w.wid]
        if self._respawns():
            self._spawn_worker()

    def _shutdown_workers(self) -> None:
        """Stop every worker: idle ones exit at the EOF of their task
        pipe, busy ones (whose results nobody awaits any more) are
        terminated."""
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for w in workers:
            if not w.ready:
                w.proc.terminate()
            w.task_w.close()
        deadline = time.monotonic() + 5.0
        for w in workers:
            w.proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.terminate()
        for reader in self._readers:
            reader.close()
        self._readers.clear()

    # -- scheduling --------------------------------------------------------

    def step(self, poll: float) -> None:
        """One scheduler iteration: wait up to ``poll`` seconds for
        reports, free the workers that reported, lease each idle worker
        a cell, settle the reports (fencing, the client's bookkeeping,
        expiries, reaps), then lease what settling released."""
        msgs, arrived = self._receive(poll)
        with self._lock:
            self._free(msgs, arrived)
            self._dispatch(time.monotonic())
            self._dispatch(self._settle(msgs))

    def _receive(self, poll: float) -> tuple[list[tuple], float]:
        """Worker messages and the clock reading they arrived at: waits
        up to ``poll`` seconds for any report pipe (or ``_wake_r``, when
        set), then takes whatever every ready pipe already holds.  A
        pipe at EOF is closed and dropped."""
        msgs = []
        conns = self._readers if self._wake_r is None \
            else self._readers + [self._wake_r]
        ready = mp_connection.wait(conns, timeout=poll)
        arrived = time.monotonic()
        for conn in ready:
            try:
                while True:
                    msg = conn.recv()
                    if conn is not self._wake_r:
                        msgs.append(msg)
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                # The worker exited, perhaps mid-message (a torn
                # message reads as OSError).
                self._readers.remove(conn)
                conn.close()
        return msgs, arrived

    def _free(self, msgs: list[tuple], arrived: float) -> None:
        """Mark idle every live worker that reported: a result (stale or
        not) or the start-up ``ready`` means it runs nothing now.  A
        lease it still holds is stamped ``reported``, so that a cell's
        time ends when its report arrived, not when it is settled
        (which is after the next grant)."""
        for msg in msgs:
            if msg[0] != "heartbeat":
                w = self._workers.get(msg[1])
                if w is not None:       # else a reaped worker's last words
                    cell = self._lease_of(w)
                    if cell is not None:
                        cell.lease.reported = arrived
                    w.ready, w.current = True, None

    def _settle(self, msgs: list[tuple]) -> float:
        """Apply worker messages, expire lapsed leases and reap dead or
        hung workers; returns the clock reading it ran at."""
        for msg in msgs:
            self._on_message(msg)
        now = time.monotonic()
        for cell, disp, worker in self.queue.expire(now):
            self._emit("lease_expired", key=cell.key, worker=worker,
                       attempt=cell.attempts, reason="ttl")
            self._record("lease_expired", key=cell.key, worker=worker,
                         attempt=cell.attempts)
            self._after_release(cell, cell.attempts, disp)
        timeout = self.queue.policy.timeout
        for w in list(self._workers.values()):
            if not w.proc.is_alive():
                self._reap_worker(w, "died", now)
            elif timeout is not None:
                cell = self._lease_of(w)
                if cell is not None and now - cell.lease.granted > timeout:
                    self._reap_worker(w, "hung", now)
        return now

    def _lease_of(self, w: _Worker) -> Cell | None:
        """The cell whose lease ``w`` still holds, if any."""
        if w.current is None:
            return None
        return self.queue._holds(w.current[0], w.wid, w.current[1])

    def _on_message(self, msg: tuple) -> None:
        kind, wid = msg[0], msg[1]
        if kind == "done":
            self._on_done(wid, *msg[2:])
        elif kind == "error":
            self._on_error(wid, *msg[2:])
        elif kind == "heartbeat":
            w = self._workers.get(wid)
            if w is not None and w.current is not None:
                key, token = w.current
                if self.queue.renew(key, wid, token, time.monotonic()):
                    self._emit("lease_renewed", key=key, worker=wid)

    def _dispatch(self, now: float) -> None:
        """Grant the oldest claimable cell to each idle worker.  The
        ``lease`` record is journaled before the task is sent."""
        for w in self._workers.values():
            if not w.ready:
                continue
            cell = self.queue.claim(w.wid, now)
            if cell is None:
                return              # nothing claimable right now
            w.ready = False
            w.current = (cell.key, cell.lease.token)
            self._emit("cell_leased", key=cell.key, worker=w.wid,
                       attempt=cell.attempts)
            self._record("lease", key=cell.key, worker=w.wid,
                         attempt=cell.attempts)
            self._on_leased(cell)
            try:
                w.task_w.send((cell.key, cell.spec, cell.attempts,
                               cell.lease.token))
            except OSError:
                pass        # it exited: the reap revokes this lease
            if faults.lease_lost(cell.key, cell.attempts):
                # Simulated lease-store loss: the worker runs on, but
                # its token is now stale; the cell is requeued (the
                # spent attempt preserved) and the late result dropped.
                attempt = cell.attempts
                disp = self.queue.revoke(cell.key,
                                         "lease lost (injected)", now)
                self._emit("lease_expired", key=cell.key, worker=w.wid,
                           attempt=attempt, reason="revoked")
                self._record("lease_revoked", key=cell.key,
                             worker=w.wid, attempt=attempt)
                self._after_release(cell, attempt, disp)


def _worker_main(wid: str, task_r, result_w, inherited, lease_ttl: float,
                 fault_plan, tele_ctx, parent_pid: int) -> None:
    """One worker process: run leased cells until its task pipe ``task_r``
    reads EOF.

    ``fault_plan``/``tele_ctx`` are the supervisor's ambient fault plan
    and telemetry context, passed explicitly so any multiprocessing
    start method behaves alike.  Cells run through
    :func:`repro.experiments.parallel._execute_cell`, looked up per
    cell, the entry point in-process runs use too — so fault injection,
    ``cell_exec_*`` events and payload encoding are identical wherever
    a cell runs.  ^C is left to the supervisor, and the worker dies
    with it (a crashed supervisor must not leave orphans mining CPU).
    The heartbeat comes from a daemon thread, so it keeps flowing while
    the main thread simulates; both send on the worker's own report
    pipe ``result_w``, one whole message at a time.  ``ready`` is sent
    once, at start-up; after that each result says the worker is free.
    ``inherited`` are the task write ends a fork copied here, its own
    included: closed at once, so only the supervisor's copy keeps the
    pipe open.
    """
    from repro.experiments import parallel
    for conn in inherited:
        conn.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults.worker_init(fault_plan)
    tele_events.worker_init(tele_ctx)
    stop = threading.Event()
    interval = max(0.05, lease_ttl * HEARTBEAT_FRACTION)
    send_lock = threading.Lock()

    def send(msg: tuple) -> None:
        with send_lock:
            result_w.send(msg)

    def watch_parent() -> None:
        while not stop.wait(0.5):
            if os.getppid() != parent_pid:
                os._exit(0)

    def beat() -> None:
        while not stop.wait(interval):
            try:
                send(("heartbeat", wid))
            except Exception:
                return      # pipe torn down: the supervisor is gone
    for target in (watch_parent, beat):
        threading.Thread(target=target, daemon=True).start()

    try:
        send(("ready", wid))
        while True:
            try:
                key, spec, attempt, token = task_r.recv()
            except EOFError:
                break
            try:
                payload = parallel._execute_cell(spec, key, attempt)
            except Exception as exc:
                send(("error", wid, key, token, parallel._errstr(exc)))
            else:
                send(("done", wid, key, token, payload))
    finally:
        stop.set()
