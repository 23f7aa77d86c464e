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
* **Process parallelism** — cells go through the lease queue of
  :mod:`repro.experiments.supervisor`, the same supervisor the job
  service runs on.  With ``jobs > 1`` they are leased to worker
  processes.  Workers receive either a workload *spec* — they
  ``np.memmap`` the trace from the shared on-disk v8 trace store
  (:mod:`repro.trace.store`), so every worker shares one page-cache
  copy of each trace instead of holding a private deserialized clone —
  or a pickled in-memory trace, and return the lossless ``SystemStats``
  payload dict.  With ``jobs <= 1`` the supervisor claims and runs the
  cells itself through the same payload encoding, so ``jobs=N`` is
  bit-identical to ``jobs=1`` for every N.
* **Fault tolerance** — governed by a :class:`RunPolicy`: bounded
  retries behind the queue's deterministic exponential backoff, a
  per-cell timeout that reaps a hung worker, and a dead worker's cell
  requeued alone (its siblings run on).  Every grid execution
  checkpoints per-cell state to a
  :class:`repro.experiments.manifest.RunManifest`, so an interrupted
  sweep resumes via ``run_grid(run_id=...)`` with zero redundant
  simulation; ^C raises :class:`GridInterrupted` carrying the resume id
  instead of a bare traceback.  All failure modes are reproducible in
  tests through :mod:`repro.faults` (see docs/RESILIENCE.md).
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

import sys
import time
from dataclasses import dataclass, field
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
from repro.experiments.supervisor import (DEFAULT_POLICY, Cell,
                                          LeaseQueue, RunPolicy,
                                          Supervisor)
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

@dataclass
class Intake:
    """A grid compiled to unique cells: what to run and what is known.

    ``keys``/``sources`` are per grid cell (source ``run``, ``cache``,
    ``dedup`` or ``elsewhere``); ``labels`` and ``fanout`` are per
    unique key in grid order, ``specs`` holds the cells left to run and
    ``hits`` the cached payloads, ``quarantined`` the keys whose cache
    entry was found corrupt while probing.
    """

    keys: list = field(default_factory=list)
    sources: list = field(default_factory=list)
    labels: dict = field(default_factory=dict)
    fanout: dict = field(default_factory=dict)
    specs: dict = field(default_factory=dict)
    hits: dict = field(default_factory=dict)
    quarantined: list = field(default_factory=list)


def intake(grid: list[Job], backend: str, window: int = 0,
           cache: rc.ResultsCache | None = None,
           claimed: Callable[[str], bool] | None = None) -> Intake:
    """Compile ``grid`` to specs and cache keys, dedup repeated keys
    (the first cell wins, ``fanout`` counts them all) and probe
    ``cache`` once per key.  Keys ``claimed`` rejects belong to a
    sibling shard: ``elsewhere``, never probed.  The one intake of
    ``run_grid`` and the job service."""
    out = Intake()
    for job in grid:
        spec, key = _job_spec(job, window, backend=backend)
        out.keys.append(key)
        out.fanout[key] = out.fanout.get(key, 0) + 1
        if claimed is not None and not claimed(key):
            out.labels.setdefault(key, job.label)
            out.sources.append("elsewhere")
            continue
        if key in out.labels:
            out.sources.append("dedup")
            continue
        out.labels[key] = job.label
        if cache is not None:
            corrupt_before = cache.corrupt
            hit = cache.get(key)
            if cache.corrupt > corrupt_before:
                out.quarantined.append(key)
            if hit is not None:
                out.hits[key] = hit
                out.sources.append("cache")
                continue
        out.specs[key] = spec
        out.sources.append("run")
    return out


#: Worker id of cells the grid's own process runs.
_INLINE = "inline"

#: Scheduler wake-up bound (seconds) while workers run: how promptly a
#: dead or hung worker is noticed when no message arrives.
_POLL = 0.1


class _GridRun(Supervisor):
    """``run_grid``'s client of the supervisor: settles each cell into
    the run manifest, the results cache and the progress report.  Every
    manifest transition is mirrored into the telemetry event log (when
    one is open) at its one call site, so events can never drift from
    the manifest."""

    _MARK_EVENTS = {"running": "cell_started", "retrying": "cell_retried",
                    "failed": "cell_failed", "done": "cell_done"}

    def __init__(self, cells: Intake, manifest: RunManifest,
                 events: tele_events.EventLog | None, policy: RunPolicy,
                 cache: rc.ResultsCache | None, report, tele_ctx):
        queue = LeaseQueue(policy)
        for key, spec in cells.specs.items():
            queue.add(manifest.run_id, key, cells.labels[key], spec=spec)
        super().__init__(queue, tele_ctx)
        self.manifest = manifest
        self.events = events
        self.cache = cache
        self.report = report
        self.payloads: dict[str, dict] = {}
        self.failures: dict[str, str] = {}      # key -> error
        self._first: dict[str, float] = {}      # key -> first grant time

    def run_inline(self) -> None:
        """Claim and run every cell in this process, sleeping out
        backoff gates; no worker processes."""
        while True:
            now = time.monotonic()
            cell = self.queue.claim(_INLINE, now)
            if cell is None:
                wake = self.queue.next_wakeup(now)
                if wake is None:
                    return
                time.sleep(wake - now)
                continue
            self._on_leased(cell)
            token = cell.lease.token
            try:
                payload = _execute_cell(cell.spec, cell.key, token)
            except Exception as exc:
                self._on_error(_INLINE, cell.key, token, _errstr(exc))
            else:
                self._on_done(_INLINE, cell.key, token, payload)

    def run_workers(self, count: int) -> None:
        """Lease every cell to ``count`` worker processes."""
        self._start_workers(count)
        try:
            while not self.queue.job_settled(self.manifest.run_id):
                self._dispatch(self._settle(self._receive(_POLL)))
        finally:
            self._shutdown_workers()

    def register(self, key: str, label: str, source: str, fanout: int,
                 shard: int | None) -> None:
        """Record one grid cell as :func:`intake` found it."""
        if source == "dedup":
            self._emit("cell_dedup", key=key, label=label)
        elif source == "elsewhere":     # a sibling shard's story
            self.manifest.register(key, label, status=source,
                                   fanout=fanout, shard=shard)
        else:
            cached = source == "cache"
            self.manifest.register(
                key, label, status="done" if cached else "pending",
                source="cache" if cached else None, fanout=fanout,
                shard=shard)
            self._emit("cell_cached" if cached else "cell_queued",
                       key=key, label=label)

    def _mark(self, cell: Cell, status: str, attempt: int,
              **kw) -> None:
        self.manifest.mark(cell.key, status, attempts=attempt, **kw)
        if self.events is None:
            return
        fields = {"key": cell.key, "label": cell.label}
        if status == "done":
            fields.update(source="run", seconds=round(kw["seconds"], 3))
        else:
            fields["attempt"] = attempt
            if "error" in kw:
                fields["error"] = kw["error"]
        self.events.emit(self._MARK_EVENTS[status], **fields)

    def _on_leased(self, cell: Cell) -> None:
        self._first.setdefault(cell.key, time.monotonic())
        self._mark(cell, "running", cell.attempts)

    def _on_done(self, wid, key, token, payload) -> None:
        if not self.queue.complete(key, wid, token):
            return                      # a revoked lease's late result
        cell = self.queue.cells[key]
        self.payloads[key] = payload
        if self.cache is not None:
            # Stored as each cell finishes, so an interrupted sweep
            # keeps every completed simulation.
            self.cache.put(key, payload)
        seconds = time.monotonic() - self._first[key]
        self._mark(cell, "done", token, seconds=seconds, source="run")
        self.report(cell.label, seconds, "run")

    def _on_error(self, wid, key, token, err) -> None:
        disp = self.queue.fail(key, wid, token, err, time.monotonic())
        if disp != "stale":
            self._after_release(self.queue.cells[key], token, disp)

    def _after_release(self, cell: Cell, attempt: int,
                       disposition: str | None) -> None:
        if disposition == "retry":
            self._mark(cell, "retrying", attempt, error=cell.error)
            return
        if disposition != "failed":
            return
        self.failures[cell.key] = cell.error
        self._mark(cell, "failed", attempt, error=cell.error)
        self.report(cell.label, time.monotonic() - self._first[cell.key],
                    "failed")
        if self.queue.policy.fail_fast:
            raise GridError(f"cell {cell.label} failed (--fail-fast): "
                            f"{cell.error}",
                            failures={cell.label: cell.error},
                            run_id=self.manifest.run_id)


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
    and cache key; a batch grid loads the kernel here, before any
    worker forks, so workers inherit the handle instead of compiling
    it.  ``policy`` configures retries/timeout/failure handling
    (defaults to :data:`DEFAULT_POLICY`); ``run_id`` names the
    checkpoint manifest —
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

    manifest = RunManifest.open(run_id, manifest_dir, shard=shard)
    # The shard fault site/attempt are fixed before any work: attempt
    # counts shard executions (resumes + 1), so an injected shard loss
    # or duplicate claim hits the first run and its --resume re-run
    # deterministically survives.
    claimed = None
    if shard is not None:
        site = sharding.shard_site(manifest.run_id, shard)
        shard_attempt = manifest.data.get("resumes", 0) + 1
        owned = {shard[0]}
        if faults.shard_duplicates(site, shard_attempt):
            owned.add((shard[0] + 1) % shard[1])
        claimed = lambda key: sharding.shard_of(key, shard[1]) in owned
    cells = intake(grid, backend, tele_window,
                   cache if use_cache else None, claimed)

    events: tele_events.EventLog | None = None
    tele_ctx: tuple | None = None
    if tcfg is not None and tcfg.directory is not None:
        events = tele_events.EventLog(tcfg.directory, manifest.run_id,
                                      shard=shard)
        tele_ctx = (str(tcfg.directory), manifest.run_id, shard)
        events.emit("grid_started", total_cells=total,
                    unique_cells=len(cells.specs), jobs=jobs,
                    window=tele_window)
        if shard is not None:
            events.emit("shard_started", shard=shard[0],
                        shard_count=shard[1], cells=len(cells.specs))
        for key in cells.quarantined:
            events.emit("cell_quarantined", key=key,
                        label=cells.labels[key])

    done = 0

    def report(label: str, seconds: float, source: str) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(Progress(done, total, label, seconds, source))

    run = _GridRun(cells, manifest, events, policy,
                   cache if use_cache else None, report, tele_ctx)
    registered: set[str] = set()        # a sibling shard's keys repeat
    for job, key, source in zip(grid, cells.keys, cells.sources):
        if source == "dedup" or key not in registered:
            registered.add(key)
            run.register(key, job.label, source, cells.fanout[key],
                         None if shard is None
                         else sharding.shard_of(key, shard[1]))
    manifest.save()

    # Arm worker-side event emission in this process too, for cells
    # run in-process (worker processes get the same context at spawn).
    if tele_ctx is not None:
        tele_events.worker_init(tele_ctx)
    try:
        try:
            if shard is not None:
                # Simulated host death: the shard manifest is already
                # checkpointed (status "running"), so the merge step
                # detects the loss and a --resume re-run survives.
                faults.inject_shard_loss(site, shard_attempt)
            if jobs > 1 and len(cells.specs) > 1:
                if backend == "batch":
                    load_kernel()
                run.run_workers(min(jobs, len(cells.specs)))
            else:
                run.run_inline()
        except GridError:
            manifest.finalize("failed")
            raise
        except KeyboardInterrupt:
            manifest.finalize("interrupted")
            raise GridInterrupted(manifest.run_id, manifest.summary()) \
                from None

        # Report cache hits and dedup'd cells after the real work so
        # the done/total counter stays monotonic.
        for job, source in zip(grid, cells.sources):
            if source != "run":
                report(job.label, 0.0, source)

        if run.failures:
            manifest.finalize("failed")
            if not policy.allow_partial:
                raise GridError(
                    f"{len(run.failures)} of {len(cells.specs)} "
                    f"simulated cell(s) failed permanently after "
                    f"{policy.retries} "
                    f"retr{'y' if policy.retries == 1 else 'ies'} "
                    f"(run {manifest.run_id})",
                    failures={cells.labels[k]: err
                              for k, err in run.failures.items()},
                    run_id=manifest.run_id)
        else:
            manifest.finalize("complete")
        payloads = {**cells.hits, **run.payloads}
        results = [_materialize(payloads[key]) if key in payloads
                   else None for key in cells.keys]
        if shard is not None:
            raise ShardComplete(manifest.run_id, shard,
                                manifest.summary(), results)
        return results
    finally:
        manifest.close()
        if tele_ctx is not None:
            tele_events.worker_init(None)
        if events is not None:
            events.emit("grid_finished", status=manifest.data["status"])
            events.merge_worker_shards()
            events.close()


def _errstr(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"
