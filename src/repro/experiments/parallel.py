"""Parallel experiment engine: fan a grid of simulations over processes.

Every figure in :mod:`repro.experiments.figures` is grid-shaped — a loop
over (workload × variant × config) cells whose simulations are fully
independent.  :func:`run_grid` is the one engine behind all of them:

* **Deduplication** — cells that resolve to the same content-addressed
  key (same trace, variant, config digest and code fingerprint) are
  simulated once and fanned back out to every requesting cell.
* **Result caching** — finished cells are stored in the on-disk
  :class:`repro.experiments.results_cache.ResultsCache`; a warm rerun
  of a figure performs zero simulations.
* **Process parallelism** — with ``jobs > 1`` the remaining cells run
  under a ``ProcessPoolExecutor``.  Workers receive either a workload
  *spec* — they ``np.memmap`` the trace from the shared on-disk v8
  trace store (:mod:`repro.trace.store`), so every worker shares one
  page-cache copy of each trace instead of holding a private
  deserialized clone — or a pickled in-memory trace, and return the
  lossless ``SystemStats`` payload dict.  Serial runs round-trip
  through the same payload encoding, so ``jobs=N`` is bit-identical to
  ``jobs=1`` for every N.
* **Fault tolerance** — each cell runs under per-cell supervision
  governed by a :class:`RunPolicy`: bounded retries with exponential
  backoff + deterministic jitter, a per-cell timeout with hung-worker
  detection (the pool is rebuilt and the stranded workers terminated),
  ``BrokenProcessPool`` recovery that requeues only unfinished cells,
  and graceful degradation to in-process serial execution when the
  pool breaks repeatedly.  Every grid execution checkpoints per-cell
  state to a :class:`repro.experiments.manifest.RunManifest`, so an
  interrupted sweep resumes via ``run_grid(run_id=...)`` with zero
  redundant simulation; ^C raises :class:`GridInterrupted` carrying
  the resume id instead of a bare traceback.  All failure modes are
  reproducible in tests through :mod:`repro.faults` (see
  docs/RESILIENCE.md).
* **Telemetry** — with a :class:`repro.telemetry.TelemetryConfig`
  (explicit argument or the ambient one the CLI's ``--telemetry``
  installs), every manifest transition is mirrored into a
  run_id-correlated JSONL event log, workers append
  ``cell_exec_started/finished`` pairs to private shards merged on
  completion, and per-cell simulations record windowed timelines —
  exportable as a Perfetto trace (see docs/OBSERVABILITY.md).

The per-cell unit of work is a :class:`Job`.  ``Job.workload`` may be a
workload name/``Workload`` (single-core), an in-memory ``Trace``
(single-core, content-hashed for caching), or a tuple of workload
names/``Workload``s (one per core — a multi-core mix returning a
:class:`repro.core.multicore.MultiCoreResult`).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import sys
import time
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass
from typing import Callable

from repro import faults
from repro import telemetry as tele
from repro.config import SystemConfig
from repro.core.batch import fallback_counts, load_kernel, resolve_backend
from repro.core.multicore import MultiCoreResult, MultiCoreSystem
from repro.core.system import SystemStats
from repro.experiments import results_cache as rc
from repro.experiments import sharding
from repro.experiments import workloads
from repro.experiments.manifest import RunManifest
from repro.experiments.runner import default_config, run_variant
from repro.experiments.workloads import (DEFAULT_TIER, DEFAULT_TRACE_LEN,
                                         Workload, workload_trace)
from repro.telemetry import events as tele_events
from repro.telemetry.metrics import Stopwatch, format_eta
from repro.trace.record import Trace

#: Pseudo-variant: profile ``expert_regions_best`` on the trace, then
#: run the ``expert`` variant with the best region set — one cacheable
#: unit of work (used by fig13).
EXPERT_BEST = "expert_best"


@dataclass
class Job:
    """One cell of an experiment grid."""

    workload: object            # str | Workload | Trace | tuple of them
    variant: str
    config: SystemConfig | None = None
    tier: str = DEFAULT_TIER
    length: int = DEFAULT_TRACE_LEN
    expert_regions: frozenset | None = None
    tag: object = None          # opaque caller identifier, untouched

    @property
    def label(self) -> str:
        wl = self.workload
        if isinstance(wl, tuple):
            name = "+".join(_workload_name(w) for w in wl)
        else:
            name = _workload_name(wl)
        return f"{name}/{self.variant}"


@dataclass
class Progress:
    """One per-cell completion report passed to the progress callback."""

    done: int                   # cells finished so far (including this)
    total: int                  # cells in the grid
    label: str                  # job label, e.g. "pr.kron/sdc_lp"
    seconds: float              # wall time of this cell
    source: str                 # "run" | "cache" | "dedup" | "failed"


ProgressFn = Callable[[Progress], None]


def print_progress(p: Progress) -> None:
    """Minimal progress printer (one line per finished cell)."""
    note = "" if p.source == "run" else f"  [{p.source}]"
    print(f"  [{p.done}/{p.total}] {p.label}  {p.seconds:.1f}s{note}",
          flush=True)


class ProgressPrinter:
    """Stateful CLI progress printer with throughput and ETA.

    The sweep rate (cells/s) comes from a telemetry
    :class:`~repro.telemetry.metrics.Stopwatch` started at construction
    — construct the printer immediately before ``run_grid`` — and the
    ETA is the remaining-cell count divided by the observed rate.
    Each report is emitted as a single ``write`` + ``flush`` so output
    never interleaves mid-line when stdout is a pipe or CI log
    collector rather than a TTY.
    """

    def __init__(self, out=None, clock: Callable[[], float] | None = None):
        self._out = out
        self._watch = Stopwatch(clock) if clock is not None \
            else Stopwatch()

    def __call__(self, p: Progress) -> None:
        out = self._out if self._out is not None else sys.stdout
        elapsed = self._watch.elapsed()
        rate = p.done / elapsed if elapsed > 0 else 0.0
        if p.done >= p.total:
            eta = format_eta(0)
        else:
            eta = format_eta((p.total - p.done) / rate if rate > 0
                             else float("inf"))
        note = "" if p.source == "run" else f"  [{p.source}]"
        out.write(f"  [{p.done}/{p.total}] {p.label}  "
                  f"{p.seconds:.1f}s{note}  "
                  f"({rate:.2f} cells/s, ETA {eta})\n")
        out.flush()


@dataclass(frozen=True)
class RunPolicy:
    """Failure-handling policy for one grid execution.

    ``timeout`` is per-cell wall seconds and only enforced for
    parallel runs (a single process cannot preempt itself);
    ``retries`` bounds *additional* attempts after the first, so a
    cell executes at most ``1 + retries`` times.  Backoff before the
    n-th retry is ``min(backoff_max, backoff * 2**(n-1))`` scaled by a
    deterministic jitter in ``[1, 1 + jitter)`` keyed on the cell, so
    retry schedules are reproducible.  After ``max_pool_rebuilds``
    pool failures the engine degrades to in-process serial execution.
    ``fail_fast`` aborts the grid on the first permanent cell failure;
    ``allow_partial`` returns ``None`` for permanently failed cells
    instead of raising :class:`GridError` at the end.
    """

    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.25
    backoff_max: float = 30.0
    jitter: float = 0.5
    max_pool_rebuilds: int = 3
    fail_fast: bool = False
    allow_partial: bool = False


DEFAULT_POLICY = RunPolicy()


class GridError(RuntimeError):
    """One or more cells failed permanently (retries exhausted)."""

    def __init__(self, message: str, failures: dict[str, str],
                 run_id: str | None = None):
        super().__init__(message)
        self.failures = failures        # label -> error
        self.run_id = run_id


class GridInterrupted(KeyboardInterrupt):
    """^C during a sweep; the manifest holds a clean partial snapshot.

    Subclasses ``KeyboardInterrupt`` so intermediate ``except
    Exception`` handlers cannot swallow it; carries the ``run_id`` to
    resume from and a human-readable ``summary``.
    """

    def __init__(self, run_id: str, summary: str):
        super().__init__(run_id)
        self.run_id = run_id
        self.summary = summary


class ShardComplete(Exception):
    """One shard of a sharded sweep finished cleanly.

    A ``run_grid(shard=(I, N))`` execution owns only the cells hashing
    to shard ``I`` — it cannot return the full grid's results, so
    instead of handing figure code a result list full of ``None``
    placeholders it raises this control-flow exception after
    finalizing the shard manifest.  ``results`` still carries the
    grid-aligned list (``None`` for cells owned by sibling shards) for
    programmatic callers; the CLI prints the summary and the
    ``repro merge`` next step.
    """

    def __init__(self, run_id: str, shard: tuple[int, int],
                 summary: str, results: list):
        super().__init__(f"shard {shard[0]}/{shard[1]} of run "
                         f"{run_id} complete ({summary})")
        self.run_id = run_id
        self.shard = shard
        self.summary = summary
        self.results = results


def _workload_name(wl) -> str:
    if isinstance(wl, Workload):
        return wl.name
    if isinstance(wl, Trace):
        return wl.name
    return str(wl)


def _trace_ref(wl, tier: str, length: int):
    """Picklable trace reference + cache fingerprint for one workload."""
    if isinstance(wl, Trace):
        return ("obj", wl), rc.trace_fingerprint(wl)
    name = wl.name if isinstance(wl, Workload) else str(wl)
    return (("spec", name, tier, length),
            rc.workload_fingerprint(name, tier, length))


def _job_spec(job: Job, telemetry_window: int = 0, *,
              backend: str) -> tuple[dict, str]:
    """Compile a Job into a picklable work spec and its cache key.

    A non-zero ``telemetry_window`` rides on the spec (workers enable
    :class:`~repro.telemetry.probes.WindowProbe` sampling at that
    interval) *and* joins the cache key, because a payload carrying a
    timeline is a different artifact than one without.  The resolved
    ``backend`` is required: anything but ``ref`` joins the key too,
    because batch results are bit-identical by contract but the
    artifacts must never alias, so a differential sweep can hold both
    and diff them.  (The reference backend keeps its historical
    extra-free keys.)
    """
    cfg = job.config or default_config()
    extras = []
    if job.expert_regions is not None:
        extras.append("regions:"
                      + ",".join(map(str, sorted(job.expert_regions))))
    if telemetry_window:
        extras.append(f"tele:{telemetry_window}")
    if backend != "ref":
        extras.append(f"backend:{backend}")
    extra = "|".join(extras)
    if isinstance(job.workload, tuple):
        refs, fps = zip(*(_trace_ref(w, job.tier, job.length)
                          for w in job.workload))
        fp = "mc[" + "+".join(fps) + "]"
        spec = {"kind": "multi", "traces": list(refs),
                "variant": job.variant, "config": cfg}
    else:
        ref, fp = _trace_ref(job.workload, job.tier, job.length)
        spec = {"kind": "single", "trace": ref,
                "variant": job.variant, "config": cfg,
                "expert_regions": (set(job.expert_regions)
                                   if job.expert_regions is not None
                                   else None)}
    spec["telemetry"] = telemetry_window or None
    spec["backend"] = backend
    return spec, rc.result_key(fp, job.variant, cfg.digest(), extra)


# -- worker side (also used by the in-process serial path) -----------------

#: Per-process cache of opened workload traces.  Since the v8 trace
#: store, a cached entry is a read-only ``np.memmap`` whose pages live
#: in the shared OS page cache — holding many open costs file
#: descriptors and address space, not private RSS, so the bound exists
#: only to keep descriptor usage sane on very heterogeneous grids (it
#: was 4 when every entry was a private in-RAM copy).
_WORKER_TRACE_CAP = 64

#: ``(name, tier, length, trace-format-version)`` -> Trace, LRU order.
#: The format version is part of the key so a version bump mid-process
#: (e.g. a test monkeypatching ``workloads.TRACE_FORMAT_VERSION``) can
#: never be served a stale mapped trace from the old format.
_worker_traces: dict = {}


def _resolve_trace(ref) -> Trace:
    if ref[0] == "obj":
        return ref[1]
    _, name, tier, length = ref
    key = (name, tier, length, workloads.TRACE_FORMAT_VERSION)
    trace = _worker_traces.pop(key, None)   # pop+reinsert refreshes LRU
    if trace is None:
        trace = workload_trace(name, tier=tier, length=length)
    _worker_traces[key] = trace
    while len(_worker_traces) > _WORKER_TRACE_CAP:
        _worker_traces.pop(next(iter(_worker_traces)))
    return trace


def _execute(spec: dict) -> dict:
    """Run one cell; returns its lossless JSON payload."""
    cfg = spec["config"]
    variant = spec["variant"]
    # The spec's window always wins over REPRO_TELEMETRY (0 disables),
    # so cells only grow timelines when the grid asked — otherwise an
    # ambient env var would poison cache entries keyed without "tele:".
    tele_every = spec.get("telemetry") or 0
    # The spec's backend pins the engine at grid-compile time, so pool
    # workers can never diverge from the supervisor via a different
    # ambient REPRO_BACKEND.
    backend = spec["backend"]
    if spec["kind"] == "multi":
        traces = [_resolve_trace(r) for r in spec["traces"]]
        expert_regions = None
        if variant == "expert":
            from repro.core.expert import expert_regions_for
            expert_regions = [expert_regions_for(t, cfg) for t in traces]
        system = MultiCoreSystem(cfg, variant=variant,
                                 expert_regions=expert_regions,
                                 telemetry_every=tele_every)
        result = system.run(traces, backend=backend)
        return {"multi": True,
                "per_core": [s.to_payload() for s in result.per_core],
                "llc_accesses": result.llc_accesses,
                "llc_misses": result.llc_misses}
    trace = _resolve_trace(spec["trace"])
    if variant == EXPERT_BEST:
        from repro.core.expert import expert_regions_best
        regions = expert_regions_best(trace, cfg)
        stats = run_variant(trace, "expert", cfg, expert_regions=regions,
                            telemetry_every=tele_every, backend=backend)
    else:
        stats = run_variant(trace, variant, cfg,
                            expert_regions=spec["expert_regions"],
                            telemetry_every=tele_every, backend=backend)
    return stats.to_payload()


def _execute_cell(spec: dict, key: str, attempt: int = 1) -> dict:
    """Supervised cell entry point: fault-injection hook, then run.

    ``key`` (the cell's content-addressed cache key) is the injection
    site, so a fault plan makes identical decisions in serial and
    parallel runs and across resumes.  Looks ``_execute`` up through
    the module so tests may monkeypatch it.

    Emits ``cell_exec_started``/``cell_exec_finished`` to the worker's
    telemetry shard when armed — *started* fires before the fault hook,
    so crash/hang faults show up in trace exports as truncated spans.
    A successful *finished* names the ``engine`` the cell ran on and,
    when the batch backend was refused, the ``fallback`` reason.  Both
    stay out of the payload, which is engine-independent.
    """
    tele_events.worker_emit("cell_exec_started", key=key, attempt=attempt)
    t0 = time.perf_counter()
    refused = fallback_counts()
    try:
        faults.inject_execution(key, attempt)
        payload = _execute(spec)
    except BaseException as exc:
        tele_events.worker_emit("cell_exec_finished", key=key,
                                attempt=attempt,
                                seconds=time.perf_counter() - t0,
                                ok=False, error=_errstr(exc))
        raise
    tele_events.worker_emit("cell_exec_finished", key=key, attempt=attempt,
                            seconds=time.perf_counter() - t0, ok=True,
                            **_engine_fields(spec, refused))
    return payload


def _engine_fields(spec: dict, refused_before: dict) -> dict:
    """``engine`` (and ``fallback``) of a cell that just ran, from the
    batch refusals it added to the per-process count."""
    if spec.get("backend") != "batch":
        return {"engine": "ref"}
    reasons = sorted(reason for reason, n in fallback_counts().items()
                     if n > refused_before.get(reason, 0))
    if reasons:
        return {"engine": "ref", "fallback": "; ".join(reasons)}
    return {"engine": "batch"}


def _materialize(payload: dict):
    if payload.get("multi"):
        return MultiCoreResult(
            per_core=[SystemStats.from_payload(p)
                      for p in payload["per_core"]],
            llc_accesses=payload["llc_accesses"],
            llc_misses=payload["llc_misses"])
    return SystemStats.from_payload(payload)


# -- engine ----------------------------------------------------------------

class _ManifestEvents:
    """RunManifest decorator mirroring cell state changes into the
    telemetry event log, so supervision code keeps its single
    checkpoint call site and events can never drift from the manifest.
    A ``None`` event log degrades it to a transparent pass-through.
    """

    _MARK_EVENTS = {"running": "cell_started", "retrying": "cell_retried",
                    "failed": "cell_failed", "done": "cell_done",
                    "pending": "cell_requeued"}

    def __init__(self, manifest: RunManifest,
                 events: tele_events.EventLog | None):
        self._manifest = manifest
        self._events = events

    @property
    def run_id(self) -> str:
        return self._manifest.run_id

    def save(self) -> None:
        self._manifest.save()

    def finalize(self, status: str) -> None:
        self._manifest.finalize(status)

    def summary(self) -> str:
        return self._manifest.summary()

    def engine_event(self, event: str, **fields) -> None:
        """Emit a non-cell engine event (pool rebuilds, degradation)."""
        if self._events is not None:
            self._events.emit(event, **fields)

    def register(self, key: str, label: str, status: str = "pending",
                 source: str | None = None, fanout: int = 1,
                 shard: int | None = None) -> None:
        self._manifest.register(key, label, status=status, source=source,
                                fanout=fanout, shard=shard)
        if self._events is None or status == "elsewhere":
            return      # sibling-owned cells are the sibling's story
        event = "cell_cached" if status == "done" else "cell_queued"
        self._events.emit(event, key=key, label=label)

    def mark(self, key: str, status: str, attempts: int | None = None,
             error: str | None = None, seconds: float | None = None,
             source: str | None = None, save: bool = True) -> None:
        self._manifest.mark(key, status, attempts=attempts, error=error,
                            seconds=seconds, source=source, save=save)
        event = self._MARK_EVENTS.get(status)
        if self._events is None or event is None:
            return
        cell = self._manifest.cells.get(key, {})
        fields = {"key": key, "label": cell.get("label", "?")}
        if event in ("cell_started", "cell_retried", "cell_failed"):
            fields["attempt"] = (attempts if attempts is not None
                                 else cell.get("attempts", 0))
        if event in ("cell_retried", "cell_failed"):
            fields["error"] = error or "unknown error"
        if event == "cell_done":
            fields["source"] = source or cell.get("source") or "run"
            fields["seconds"] = round(seconds, 3) \
                if seconds is not None else 0.0
        self._events.emit(event, **fields)


def run_grid(grid: list[Job], jobs: int = 1, use_cache: bool = True,
             cache: rc.ResultsCache | None = None,
             progress: ProgressFn | None = None,
             policy: RunPolicy | None = None,
             run_id: str | None = None,
             manifest_dir=None,
             telemetry: "tele.TelemetryConfig | None" = None,
             backend: str | None = None,
             shard: tuple[int, int] | None = None) -> list:
    """Execute a grid of jobs; returns results aligned with ``grid``.

    ``jobs`` is the worker-process count (``<= 1`` runs in-process);
    ``use_cache=False`` bypasses the persistent result cache entirely
    (no reads, no writes) but still deduplicates within the grid.
    ``backend`` selects the simulation engine for every cell
    (``"batch"`` / ``"ref"``; ``None`` defers to ``REPRO_BACKEND``,
    default batch), resolved once here and pinned into each worker spec
    and cache key; a batch grid loads the kernel here, before any pool
    forks, so workers inherit the handle instead of compiling it.
    ``policy`` configures retries/timeout/failure handling (defaults to
    :data:`DEFAULT_POLICY`); ``run_id`` names the checkpoint manifest —
    pass the id of an interrupted run to resume it, re-simulating only
    cells the manifest + cache do not already settle.  ``telemetry``
    (default: the ambient :func:`repro.telemetry.active` config, which
    the CLI's ``--telemetry`` flag installs) turns on per-window
    metric sampling in every cell and writes a run_id-correlated JSONL
    event log to ``telemetry.directory`` (per-worker shards merged by
    the supervisor on exit — see docs/OBSERVABILITY.md).  Results are
    ``SystemStats`` for single-core jobs and ``MultiCoreResult`` for
    mix jobs, always reconstructed from the payload encoding so
    parallel and serial runs are bit-identical; permanently failed
    cells are ``None`` when ``policy.allow_partial``, otherwise the
    grid raises :class:`GridError` after every other cell finished.

    ``shard=(I, N)`` (default: the ambient
    :func:`repro.experiments.sharding.active_shard`, which the CLI's
    ``--shard`` flag installs) restricts execution to the cells whose
    key hashes to shard ``I`` of ``N`` (pure, enumeration-order
    independent — :func:`repro.experiments.sharding.shard_of`): sibling
    shards' cells are recorded as ``elsewhere`` in the per-shard
    manifest ``<run_id>.shard-I-of-N.json`` and never simulated or
    cache-probed.  A sharded run requires the results cache (the merge
    validates stitched results out of it) and finishes by raising
    :class:`ShardComplete` instead of returning; ``repro merge
    <run_id>`` stitches the shards (docs/RESILIENCE.md § Sharded
    sweeps).
    """
    policy = policy or DEFAULT_POLICY
    total = len(grid)
    tcfg = telemetry if telemetry is not None else tele.active()
    tele_window = tcfg.window if tcfg is not None else 0
    backend = resolve_backend(backend)
    shard = shard if shard is not None else sharding.active_shard()
    if shard is not None:
        sharding.validate_shard(shard)
        if not use_cache:
            raise ValueError("sharded runs require the results cache "
                             "(repro merge validates shard results "
                             "out of it); drop --no-cache")
    if cache is None and use_cache:
        cache = rc.ResultsCache()

    raw_manifest = RunManifest.open(run_id, manifest_dir, shard=shard)
    # The shard fault site/attempt are fixed before any work: attempt
    # counts shard executions (resumes + 1), so an injected shard loss
    # or duplicate claim hits the first run and its --resume re-run
    # deterministically survives.
    claimed = None
    if shard is not None:
        site = sharding.shard_site(raw_manifest.run_id, shard)
        shard_attempt = raw_manifest.data.get("resumes", 0) + 1
        claimed = {shard[0]}
        if faults.shard_duplicates(site, shard_attempt):
            claimed.add((shard[0] + 1) % shard[1])

    payloads: dict[str, dict] = {}          # key -> payload
    keys: list[str] = []                    # per-cell key, grid order
    cell_sources: list[str] = []    # "run"/"cache"/"dedup"/"elsewhere"
    pending: dict[str, dict] = {}           # key -> spec (first wins)
    owners: dict[str, str] = {}             # key -> owning cell's label
    quarantined: list[tuple[str, str]] = []  # (key, label) during scan
    shard_owner: dict[str, int] = {}        # key -> owning shard index
    done = 0

    for job in grid:
        spec, key = _job_spec(job, tele_window, backend=backend)
        keys.append(key)
        if shard is not None:
            shard_owner[key] = sharding.shard_of(key, shard[1])
            if shard_owner[key] not in claimed:
                cell_sources.append("elsewhere")
                continue
        if key in payloads or key in pending:
            cell_sources.append("dedup")
            continue
        if use_cache:
            corrupt_before = cache.corrupt
            hit = cache.get(key)
            if cache.corrupt > corrupt_before:
                quarantined.append((key, job.label))
            if hit is not None:
                payloads[key] = hit
                cell_sources.append("cache")
                continue
        pending[key] = spec
        owners[key] = job.label         # each cell registers its own label
        cell_sources.append("run")

    events: tele_events.EventLog | None = None
    tele_ctx: tuple | None = None
    if tcfg is not None and tcfg.directory is not None:
        events = tele_events.EventLog(tcfg.directory,
                                      raw_manifest.run_id, shard=shard)
        tele_ctx = (str(tcfg.directory), raw_manifest.run_id, shard)
    manifest = _ManifestEvents(raw_manifest, events)
    if events is not None:
        events.emit("grid_started", total_cells=total,
                    unique_cells=len(pending), jobs=jobs,
                    window=tele_window)
        if shard is not None:
            events.emit("shard_started", shard=shard[0],
                        shard_count=shard[1], cells=len(pending))
        for key, label in quarantined:
            events.emit("cell_quarantined", key=key, label=label)
    fanout: dict[str, int] = {}
    for key in keys:
        fanout[key] = fanout.get(key, 0) + 1
    registered_elsewhere: set[str] = set()
    for job, key, source in zip(grid, keys, cell_sources):
        if source == "run":
            manifest.register(key, job.label, fanout=fanout[key],
                              shard=shard_owner.get(key))
        elif source == "cache":
            manifest.register(key, job.label, status="done",
                              source="cache", fanout=fanout[key],
                              shard=shard_owner.get(key))
        elif source == "elsewhere":
            if key not in registered_elsewhere:
                registered_elsewhere.add(key)
                manifest.register(key, job.label, status="elsewhere",
                                  fanout=fanout[key],
                                  shard=shard_owner[key])
        elif events is not None:        # dedup'd onto an earlier cell
            events.emit("cell_dedup", key=key, label=job.label)
    manifest.save()

    def report(label: str, seconds: float, source: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(Progress(done, total, label, seconds, source))

    def store(key: str) -> None:
        # Store each cell as soon as it finishes, so an interrupted
        # sweep keeps every completed simulation.
        if use_cache:
            cache.put(key, payloads[key])

    failures: dict[str, str] = {}           # key -> error (permanent)

    # Arm worker-side event emission in this process too, covering the
    # serial path and pool degradation (pool workers are armed through
    # the pool initializer with the same context).
    if tele_ctx is not None:
        tele_events.worker_init(tele_ctx)
    try:
        try:
            if shard is not None:
                # Simulated host death: the shard manifest is already
                # checkpointed (status "running"), so the merge step
                # detects the loss and a --resume re-run survives.
                faults.inject_shard_loss(site, shard_attempt)
            if pending:
                if jobs > 1 and len(pending) > 1:
                    if backend == "batch":
                        load_kernel()
                    _run_parallel(pending, payloads, jobs, report, owners,
                                  store, policy, manifest, failures,
                                  tele_ctx=tele_ctx)
                else:
                    _run_serial(list(pending), pending, payloads, report,
                                owners, store, policy, manifest, failures)
        except GridError:
            manifest.finalize("failed")
            raise
        except KeyboardInterrupt:
            manifest.finalize("interrupted")
            raise GridInterrupted(manifest.run_id, manifest.summary()) \
                from None

        # Report cache hits and dedup'd cells after the real work so
        # the done/total counter stays monotonic.
        for job, source in zip(grid, cell_sources):
            if source != "run":
                report(job.label, 0.0, source)

        if failures:
            manifest.finalize("failed")
            if not policy.allow_partial:
                raise GridError(
                    f"{len(failures)} of {len(pending)} simulated "
                    f"cell(s) failed permanently after {policy.retries} "
                    f"retr{'y' if policy.retries == 1 else 'ies'} "
                    f"(run {manifest.run_id})",
                    failures={owners[k]: err
                              for k, err in failures.items()},
                    run_id=manifest.run_id)
        else:
            manifest.finalize("complete")
        results = [_materialize(payloads[key]) if key in payloads
                   else None for key in keys]
        if shard is not None:
            raise ShardComplete(manifest.run_id, shard,
                                manifest.summary(), results)
        return results
    finally:
        if tele_ctx is not None:
            tele_events.worker_init(None)
        if events is not None:
            events.emit("grid_finished",
                        status=raw_manifest.data["status"])
            events.merge_worker_shards()
            events.close()


def _errstr(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _backoff_delay(policy: RunPolicy, key: str, attempt: int) -> float:
    """Exponential backoff with deterministic per-(cell, attempt) jitter."""
    base = min(policy.backoff_max, policy.backoff * 2.0 ** (attempt - 1))
    h = hashlib.sha256(f"backoff|{key}|{attempt}".encode()).digest()
    unit = int.from_bytes(h[:8], "big") / 2.0 ** 64
    return base * (1.0 + policy.jitter * unit)


def _engine_event(manifest, event: str, **fields) -> None:
    """Emit a supervision event when the manifest carries an event log
    (plain ``RunManifest`` instances, as tests construct, don't)."""
    emit = getattr(manifest, "engine_event", None)
    if emit is not None:
        emit(event, **fields)


def _run_serial(order: list[str], pending: dict, payloads: dict, report,
                owners: dict, store, policy: RunPolicy,
                manifest, failures: dict,
                attempts: dict | None = None) -> None:
    """In-process executor with the same retry semantics as the pool
    path (also the degradation target when the pool keeps breaking)."""
    if attempts is None:
        attempts = dict.fromkeys(order, 0)
    for key in order:
        t0 = time.perf_counter()
        while True:
            attempts[key] += 1
            manifest.mark(key, "running", attempts=attempts[key])
            try:
                payload = _execute_cell(pending[key], key, attempts[key])
            except Exception as exc:
                err = _errstr(exc)
                if policy.fail_fast or attempts[key] > policy.retries:
                    failures[key] = err
                    manifest.mark(key, "failed", attempts=attempts[key],
                                  error=err)
                    report(owners[key], time.perf_counter() - t0,
                           "failed")
                    if policy.fail_fast:
                        raise GridError(
                            f"cell {owners[key]} failed "
                            f"(--fail-fast): {err}",
                            failures={owners[key]: err},
                            run_id=manifest.run_id) from exc
                    break
                manifest.mark(key, "retrying", attempts=attempts[key],
                              error=err)
                time.sleep(_backoff_delay(policy, key, attempts[key]))
            else:
                payloads[key] = payload
                store(key)
                seconds = time.perf_counter() - t0
                manifest.mark(key, "done", attempts=attempts[key],
                              seconds=seconds, source="run")
                report(owners[key], seconds, "run")
                break


def _worker_init(fault_plan, tele_ctx=None) -> None:
    """Pool-process initializer: arm fault injection and telemetry."""
    faults.worker_init(fault_plan)
    tele_events.worker_init(tele_ctx)


def _new_pool(max_workers: int, tele_ctx=None) -> ProcessPoolExecutor:
    """Worker pool whose processes know the active fault plan and
    telemetry context (passed explicitly so any multiprocessing start
    method behaves alike)."""
    return ProcessPoolExecutor(max_workers=max_workers,
                               initializer=_worker_init,
                               initargs=(faults.active_plan(), tele_ctx))


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on hung workers.

    ``shutdown(wait=False)`` alone would leave a hung worker sleeping
    (and block interpreter exit on its join), so the worker processes
    are terminated outright — safe because results are only consumed
    from completed futures and cache writes are atomic.
    """
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass


def _run_parallel(pending: dict, payloads: dict, jobs: int, report,
                  owners: dict, store, policy: RunPolicy,
                  manifest, failures: dict, tele_ctx=None) -> None:
    """Supervised pool executor: per-cell timeout, retry with backoff,
    broken-pool recovery, and serial degradation."""
    max_workers = min(jobs, len(pending))
    ready: deque = deque(pending)
    delayed: list = []                  # (due, seq, key) heap
    attempts = dict.fromkeys(pending, 0)
    t_first: dict[str, float] = {}      # key -> first-submit wall clock
    inflight: dict = {}                 # future -> key
    deadlines: dict[str, float] = {}    # key -> monotonic deadline
    rebuilds = 0
    seq = 0
    pool = _new_pool(max_workers, tele_ctx)

    def fail_or_retry(key: str, err: str) -> None:
        nonlocal seq
        if not policy.fail_fast and attempts[key] <= policy.retries:
            manifest.mark(key, "retrying", attempts=attempts[key],
                          error=err)
            seq += 1
            heapq.heappush(delayed,
                           (time.monotonic()
                            + _backoff_delay(policy, key, attempts[key]),
                            seq, key))
            return
        failures[key] = err
        manifest.mark(key, "failed", attempts=attempts[key], error=err)
        report(owners[key],
               time.monotonic() - t_first.get(key, time.monotonic()),
               "failed")
        if policy.fail_fast:
            raise GridError(f"cell {owners[key]} failed "
                            f"(--fail-fast): {err}",
                            failures={owners[key]: err},
                            run_id=manifest.run_id)

    def settle(fut, key) -> bool:
        """Consume one completed future; True when it broke the pool."""
        try:
            payload = fut.result()
        except BrokenExecutor:
            # The pool died under this cell (or an innocent
            # neighbour); which worker crashed is unknowable, so
            # every completed-broken cell spends one attempt.
            fail_or_retry(key, "worker crashed (process pool broken)")
            return True
        except Exception as exc:
            fail_or_retry(key, _errstr(exc))
        else:
            payloads[key] = payload
            store(key)
            seconds = time.monotonic() - t_first[key]
            manifest.mark(key, "done", attempts=attempts[key],
                          seconds=seconds, source="run")
            report(owners[key], seconds, "run")
        return False

    try:
        while ready or delayed or inflight:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                ready.append(heapq.heappop(delayed)[2])
            broken = False
            # Submit at most max_workers cells so everything in flight
            # is actually running — a queued cell must not "time out".
            while ready and len(inflight) < max_workers:
                key = ready.popleft()
                attempts[key] += 1
                t_first.setdefault(key, time.monotonic())
                manifest.mark(key, "running", attempts=attempts[key])
                try:
                    fut = pool.submit(_execute_cell, pending[key], key,
                                      attempts[key])
                except BrokenExecutor:
                    # A worker died between submits; requeue this cell
                    # untouched and go handle the break.
                    attempts[key] -= 1
                    ready.appendleft(key)
                    broken = True
                    break
                inflight[fut] = key
                deadlines[key] = (time.monotonic() + policy.timeout
                                  if policy.timeout else math.inf)
            if not broken:
                if not inflight:
                    if delayed:     # everything is backing off
                        time.sleep(max(0.0, delayed[0][0]
                                       - time.monotonic()))
                    continue
                bound = min(deadlines[k] for k in inflight.values())
                if delayed:
                    bound = min(bound, delayed[0][0])
                wait_t = (None if bound == math.inf
                          else max(0.01, bound - time.monotonic()))
                finished, _ = wait(set(inflight), timeout=wait_t,
                                   return_when=FIRST_COMPLETED)
                for fut in finished:
                    broken |= settle(fut, inflight.pop(fut))
                # Hung-worker detection: a running cell past its
                # deadline cannot be cancelled, so abandon its future
                # and rebuild the pool (terminating stranded workers).
                now = time.monotonic()
                overdue = [fut for fut, key in inflight.items()
                           if deadlines[key] <= now]
                if overdue:
                    broken = True
                    for fut in overdue:
                        key = inflight.pop(fut)
                        fail_or_retry(key, "timeout: no result after "
                                           f"{policy.timeout:.1f}s "
                                           "(worker hung or overloaded)")
            if broken:
                rebuilds += 1
                # Futures that completed while the pool collapsed get
                # settled normally; the rest are abandoned with their
                # attempt refunded, so the fault schedule replays
                # exactly on the rebuilt pool.
                for fut, key in list(inflight.items()):
                    if fut.done():
                        settle(fut, key)
                    else:
                        attempts[key] -= 1
                        manifest.mark(key, "pending",
                                      attempts=attempts[key],
                                      save=False)
                        ready.append(key)
                manifest.save()
                inflight.clear()
                _shutdown_pool(pool)
                if rebuilds > policy.max_pool_rebuilds:
                    print(f"  [engine] process pool failed {rebuilds} "
                          "times; degrading to in-process serial "
                          "execution", file=sys.stderr, flush=True)
                    _engine_event(manifest, "degraded_serial",
                                  rebuilds=rebuilds)
                    remaining = list(ready) + [k for _, _, k in
                                               sorted(delayed)]
                    ready.clear()
                    delayed.clear()
                    _run_serial(remaining, pending, payloads, report,
                                owners, store, policy, manifest,
                                failures, attempts=attempts)
                    return
                print(f"  [engine] rebuilding process pool "
                      f"(failure {rebuilds}/{policy.max_pool_rebuilds})",
                      file=sys.stderr, flush=True)
                _engine_event(manifest, "pool_rebuilt", rebuilds=rebuilds)
                pool = _new_pool(max_workers, tele_ctx)
    finally:
        _shutdown_pool(pool)
