"""Deterministic, seed-driven fault injection for the experiment engine.

A :class:`FaultPlan` describes *which* failures to inject and *where*:
every decision is a pure function of ``(seed, kind, site, attempt)``, so
a plan reproduces the exact same failure schedule on every run — which
is what makes the engine's recovery paths (retry, dead- and hung-worker
reaping, lease fencing, checkpoint/resume, cache quarantine) testable
in CI rather than only observable in multi-hour production sweeps.

Fault kinds
-----------

``crash``
    The worker process dies abruptly (``os._exit``) mid-cell, without a
    word: the supervisor (:mod:`repro.experiments.supervisor`, behind
    both ``run_grid --jobs N`` and the service) sees it dead, revokes
    its lease, requeues that one cell with its attempt spent, and
    spawns a replacement.  In-process execution raises
    :class:`FaultInjected` instead — killing the caller would defeat
    the point of testing recovery.
``hang``
    The cell sleeps for ``arg`` seconds (default
    :data:`DEFAULT_HANG_SECONDS`) before executing, simulating a hung
    worker.  Pair with a per-cell timeout to exercise hung-worker
    detection.
``slow``
    The cell sleeps for ``arg`` seconds (default 0.05) and then runs
    normally — tail latency without failure.
``exc``
    The cell raises :class:`FaultInjected` — a transient error that a
    retry (``attempt > max_attempt``) survives.
``corrupt``
    A just-written on-disk artifact — a results-cache entry, a
    trace-store or a graph-store file — has bytes scribbled over it,
    so the next read fails checksum validation and must quarantine it.
``truncate``
    A just-written artifact is truncated, simulating a writer that
    died mid-write (detected by the container's size equation).
``shard_loss``
    A sharded ``run_grid`` supervisor aborts right after checkpointing
    its shard manifest (status ``running``), simulating a host that
    died mid-sweep — ``repro merge`` must detect the lost shard, and a
    re-run of that shard (``attempt`` = manifest resumes + 1) survives
    and completes the merge.
``duplicate_shard``
    A sharded supervisor also claims the next shard's cells
    (``(I+1) mod N``), simulating a mispartitioned host; the merge's
    overlap detection must refuse to stitch, and a re-run of the
    offending shard repairs its manifest.
``lease_loss``
    The supervisor revokes a cell lease it just granted to a worker
    process (simulating a lease store that lost state): the worker
    keeps running, but its result arrives carrying a stale lease token
    and is discarded; the cell is requeued exactly once with its
    attempt spent.
``orchestrator_crash``
    The orchestrator process dies (``os._exit`` in a real ``repro
    serve`` process, :class:`FaultInjected` in-process) right after
    journaling a completed cell.  ``attempt`` is the service
    *generation* (startup count from the queue journal), so with the
    default ``max_attempt=1`` the first orchestrator dies and its
    restart deterministically survives and resumes every job.

Plan specs
----------

Plans are written as comma- (or semicolon-) separated entries, either
programmatically via :meth:`FaultPlan.parse` or through the
``REPRO_FAULTS`` environment variable (inherited by worker processes)::

    REPRO_FAULTS="seed=7,exc:0.25,crash:0.1,hang:0.05:1:120"

Each fault entry is ``kind[:rate[:max_attempt[:arg]]]``:

* ``rate`` — probability the fault fires at a decision point (1.0 when
  omitted);
* ``max_attempt`` — the fault only fires on attempt numbers up to this
  bound (default 1), which is what makes injected faults *transient*:
  the retry of a crashed/hung/failed cell succeeds deterministically;
* ``arg`` — kind-specific parameter (sleep seconds for hang/slow).

``seed=N`` entries reseed the decision hash.  Injection is entirely
inert when no plan is active: the engine's only cost is one ``None``
check per cell.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

#: Exit code used by injected worker crashes (visible in CI logs).
CRASH_EXIT_CODE = 173

#: Default sleep for an injected hang; long enough that any sane
#: per-cell timeout fires first.
DEFAULT_HANG_SECONDS = 600.0

DEFAULT_SLOW_SECONDS = 0.05

KINDS = ("crash", "hang", "slow", "exc", "corrupt", "truncate",
         "shard_loss", "duplicate_shard",
         "lease_loss", "orchestrator_crash")

#: Fault kinds applied at cell-execution time (by the engine) versus at
#: artifact-write time (:func:`repro.store.fault_hook`: results-cache
#: entries, trace-store and graph-store files) — versus at
#: shard-supervision time
#: (:func:`repro.experiments.parallel.run_grid` with ``shard=``).
EXECUTION_KINDS = ("crash", "hang", "slow", "exc")
CACHE_KINDS = ("corrupt", "truncate")
SHARD_KINDS = ("shard_loss", "duplicate_shard")
#: Fault kinds applied by the supervisor to a worker's lease (in
#: ``run_grid --jobs N`` and the service alike) and by the
#: :mod:`repro.service` orchestrator to itself (docs/SERVICE.md).
SERVICE_KINDS = ("lease_loss", "orchestrator_crash")


class FaultInjected(RuntimeError):
    """A deliberately injected (transient) failure."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind with its firing rate and transience bound."""

    kind: str
    rate: float = 1.0
    max_attempt: int = 1
    arg: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {', '.join(KINDS)})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], "
                             f"got {self.rate}")
        if self.max_attempt < 1:
            raise ValueError("max_attempt must be >= 1")


def _unit(seed: int, kind: str, site: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one decision point."""
    h = hashlib.sha256(f"{seed}|{kind}|{site}|{attempt}"
                       .encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of injected faults."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-style spec string (see module doc)."""
        specs: list[FaultSpec] = []
        seed = 0
        for entry in text.replace(";", ",").split(","):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[len("seed="):])
                continue
            parts = entry.split(":")
            if len(parts) > 4:
                raise ValueError(f"bad fault entry {entry!r} (expected "
                                 "kind[:rate[:max_attempt[:arg]]])")
            kind = parts[0]
            rate = float(parts[1]) if len(parts) > 1 else 1.0
            max_attempt = int(parts[2]) if len(parts) > 2 else 1
            arg = float(parts[3]) if len(parts) > 3 else None
            specs.append(FaultSpec(kind, rate, max_attempt, arg))
        return cls(tuple(specs), seed)

    def spec(self, kind: str) -> FaultSpec | None:
        for s in self.specs:
            if s.kind == kind:
                return s
        return None

    def fires(self, kind: str, site: str, attempt: int = 1) -> bool:
        """Whether ``kind`` fires at ``site`` on this attempt.

        Pure in ``(seed, kind, site, attempt)`` — the same plan makes
        the same decision at the same point on every run, in every
        process.
        """
        s = self.spec(kind)
        if s is None or attempt > s.max_attempt:
            return False
        return _unit(self.seed, kind, site, attempt) < s.rate


# -- process-wide activation ------------------------------------------------

_active: FaultPlan | None = None
_env_cache: tuple[str, FaultPlan] | None = None
_in_worker = False


def activate(plan: FaultPlan | None) -> None:
    """Set the process-wide plan (overrides ``REPRO_FAULTS``)."""
    global _active
    _active = plan


def deactivate() -> None:
    activate(None)


def active_plan() -> FaultPlan | None:
    """The plan in force: :func:`activate`'d, else ``REPRO_FAULTS``."""
    if _active is not None:
        return _active
    text = os.environ.get("REPRO_FAULTS", "")
    if not text:
        return None
    global _env_cache
    if _env_cache is None or _env_cache[0] != text:
        _env_cache = (text, FaultPlan.parse(text))
    return _env_cache[1]


def worker_init(plan: FaultPlan | None) -> None:
    """Worker-process start-up: mark this process as a worker and hand
    it the supervisor's plan (robust to any multiprocessing start
    method)."""
    global _in_worker
    _in_worker = True
    activate(plan)


def in_worker_process() -> bool:
    return _in_worker


# -- injection points -------------------------------------------------------

def inject_execution(site: str, attempt: int = 1) -> None:
    """Apply execution-time faults for one cell attempt.

    Called by the engine just before a cell simulates; ``site`` is the
    cell's content-addressed cache key, so the decision is identical in
    serial and parallel runs and across resumes.  No-op without an
    active plan.
    """
    plan = active_plan()
    if plan is None:
        return
    if plan.fires("crash", site, attempt):
        if _in_worker:
            os._exit(CRASH_EXIT_CODE)
        raise FaultInjected(f"injected crash (in-process) at {site[:12]}")
    if plan.fires("hang", site, attempt):
        spec = plan.spec("hang")
        time.sleep(spec.arg if spec.arg is not None
                   else DEFAULT_HANG_SECONDS)
    if plan.fires("slow", site, attempt):
        spec = plan.spec("slow")
        time.sleep(spec.arg if spec.arg is not None
                   else DEFAULT_SLOW_SECONDS)
    if plan.fires("exc", site, attempt):
        raise FaultInjected(f"injected transient fault at {site[:12]} "
                            f"(attempt {attempt})")


def inject_shard_loss(site: str, attempt: int = 1) -> None:
    """Abort a sharded supervisor right after its manifest checkpoint.

    ``site`` is :func:`repro.experiments.sharding.shard_site` — pure in
    (run_id, index, count) — and ``attempt`` is the shard manifest's
    resume count + 1, so with the default ``max_attempt=1`` the first
    run of the shard is lost (manifest left ``running``, merge refuses
    it) and its ``--resume`` re-run deterministically survives.  No-op
    without an active plan.
    """
    plan = active_plan()
    if plan is not None and plan.fires("shard_loss", site, attempt):
        raise FaultInjected(f"injected shard loss at {site} "
                            f"(attempt {attempt})")


def lease_lost(site: str, attempt: int = 1) -> bool:
    """Whether a ``lease_loss`` fault revokes this freshly granted
    lease.  ``site`` is the cell's content-addressed cache key and
    ``attempt`` the lease attempt, so the same plan revokes the same
    grant on every run; with the default ``max_attempt=1`` the requeued
    attempt deterministically survives.  The supervisor requeues the
    cell and discards the revoked worker's stale-token result.  False
    without an active plan."""
    plan = active_plan()
    return plan is not None and plan.fires("lease_loss", site, attempt)


def inject_orchestrator_crash(site: str, generation: int = 1,
                              hard: bool = False) -> None:
    """Kill the service orchestrator right after a journaled checkpoint.

    ``site`` is ``orc:<job_id>`` and ``generation`` the service's
    startup count (replayed from the queue journal), so with the
    default ``max_attempt=1`` the first orchestrator generation dies
    and the restarted one deterministically survives.  ``hard=True``
    (a real ``repro serve`` process) exits with
    :data:`CRASH_EXIT_CODE`; in-process orchestrators raise
    :class:`FaultInjected` instead so tests keep their interpreter.
    No-op without an active plan.
    """
    plan = active_plan()
    if plan is None or not plan.fires("orchestrator_crash", site,
                                      generation):
        return
    if hard:
        os._exit(CRASH_EXIT_CODE)
    raise FaultInjected(f"injected orchestrator crash at {site} "
                        f"(generation {generation})")


def shard_duplicates(site: str, attempt: int = 1) -> bool:
    """Whether a ``duplicate_shard`` fault makes this supervisor also
    claim its sibling's cells (same decision scheme as
    :func:`inject_shard_loss`); False without an active plan."""
    plan = active_plan()
    return (plan is not None
            and plan.fires("duplicate_shard", site, attempt))


def mangle_artifact(path, site: str, write_seq: int = 1) -> bool:
    """Apply corrupt/truncate faults to a just-written on-disk artifact.

    ``site`` names the artifact (``trace:<file>``, ``graph:<file>`` or
    a results-cache key) and ``write_seq`` is the caller's write count
    for it, playing the role ``attempt`` plays for execution faults
    (see :func:`repro.store.fault_hook`).  A mid-file scribble fails
    the container's checksums and a truncation its size equation, so
    the next read discards the file and the caller regenerates it.
    Returns True when the file was damaged.  No-op without an active
    plan.
    """
    plan = active_plan()
    if plan is None:
        return False
    damaged = False
    if plan.fires("corrupt", site, write_seq):
        data = path.read_bytes()
        mid = len(data) // 2
        path.write_bytes(data[:mid] + b"\x00CORRUPT\x00" + data[mid + 9:])
        damaged = True
    if plan.fires("truncate", site, write_seq):
        data = path.read_bytes()
        path.write_bytes(data[:max(1, int(len(data) * 0.6))])
        damaged = True
    return damaged
