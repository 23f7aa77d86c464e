"""Workload definitions: 6 kernels × 6 graphs = 36 single-core workloads
(paper §IV-C), the random 4-thread mixes (§IV-D), and the three
post-paper families (``rw``/``gs``/``dyn`` × the same graphs — see
docs/WORKLOADS.md, :data:`EXTRA_WORKLOADS`).

Traces are generated once per (kernel, graph, tier, length) and cached
on disk under ``REPRO_CACHE_DIR`` (default ``.repro_cache/`` in the
working directory) in the v8 memory-mapped store format
(:mod:`repro.trace.store`, docs/TRACES.md): the supervisor and every
``run_grid`` worker open the same file through ``np.memmap`` and share
one page-cache copy instead of each deserializing a private clone.  A
store file that fails validation is dropped (stale) or quarantined to
``results/quarantine/`` (corrupt) and regenerated exactly once.

Each workload's trace is a *mid-stream window* of the full
instrumented run — the SimPoint-flavoured choice that avoids measuring
only a kernel's sequential warm-up phase (e.g. PageRank's contrib
loop).
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import store as artifact
from repro.graphs.suite import GRAPH_SUITE, load_graph
from repro.kernels.common import kernel_info, pick_source
from repro.trace import store
from repro.trace.kernels import generate_trace
from repro.trace.record import Trace

KERNELS = ("bc", "bfs", "cc", "pr", "tc", "sssp")
#: Post-paper trace families (docs/WORKLOADS.md): random-walk
#: sampling, gather-scatter aggregation, dynamic-graph updates.
EXTRA_KERNELS = ("rw", "gs", "dyn")
GRAPHS = tuple(GRAPH_SUITE)

DEFAULT_TIER = "medium"        # ~10^5 vertices; pairs with scaled_config(16)
DEFAULT_TRACE_LEN = 400_000
TRACE_FORMAT_VERSION = 8       # bump to invalidate cached traces

# The generator runs this many windows' worth of accesses; the
# measurement window is the *tail* of that run, which lands past each
# kernel's sequential warm-up phase (e.g. PageRank's contrib loop)
# regardless of the window length chosen.  The tracer counts the
# records before the window but builds only the window
# (``generate_trace(..., window=length)``).
WINDOW_OVERGEN_FACTOR = 3


@dataclass(frozen=True)
class Workload:
    """One (kernel, graph) single-core workload."""

    kernel: str
    graph: str

    @property
    def name(self) -> str:
        return f"{self.kernel}.{self.graph}"


WORKLOADS: tuple[Workload, ...] = tuple(
    Workload(k, g) for k in KERNELS for g in GRAPHS)

#: The new-family grid.  Kept separate from :data:`WORKLOADS` — the
#: paper figures enumerate exactly the 6 × 6 GAP grid — but every
#: entry is a first-class workload: same trace cache, result cache
#: keys, telemetry, shard partition and DSE reachability.
EXTRA_WORKLOADS: tuple[Workload, ...] = tuple(
    Workload(k, g) for k in EXTRA_KERNELS for g in GRAPHS)

ALL_WORKLOADS: tuple[Workload, ...] = WORKLOADS + EXTRA_WORKLOADS


def cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or ``.repro_cache`` when it is unset or
    empty (an empty value would otherwise mean the working directory)."""
    d = Path(os.environ.get("REPRO_CACHE_DIR") or ".repro_cache")
    d.mkdir(parents=True, exist_ok=True)
    return d


def _trace_path(wl: Workload, tier: str, length: int) -> Path:
    return cache_dir() / (f"{wl.name}.{tier}.{length}."
                          f"v{TRACE_FORMAT_VERSION}.trace")


def trace_quarantine_dir() -> Path:
    """Where corrupt trace-store files are moved — the same
    ``results/quarantine/`` directory the results cache uses (one
    quarantine for every on-disk artifact)."""
    return cache_dir() / "results" / "quarantine"


def _generate(wl: Workload, tier: str, length: int) -> Trace:
    weighted = kernel_info(wl.kernel).weighted_input
    graph = load_graph(wl.graph, tier=tier, weighted=weighted)
    # Over-generate so a post-warm-up window of `length` exists.
    budget = length * WINDOW_OVERGEN_FACTOR
    kwargs = {}
    if wl.kernel in ("bfs", "sssp"):
        # crc32, not hash(): str hashing is salted per process, and
        # trace generation must be deterministic in the (name, tier,
        # length) spec — the result cache fingerprints traces by spec.
        kwargs["source"] = pick_source(
            graph, seed=zlib.crc32(wl.name.encode()) % 1000)
    if wl.kernel == "pr":
        kwargs["iterations"] = 3
    if wl.kernel == "bc":
        kwargs["num_sources"] = 2
    if wl.kernel == "rw":
        # Scale the walk set to the access budget (~3 records per
        # walker step) so the post-warm-up window exists at any length.
        kwargs["seed"] = zlib.crc32(wl.name.encode()) % 1000
        kwargs["num_walks"] = 1024
        kwargs["walk_length"] = max(16, budget // (3 * 1024) + 1)
    if wl.kernel == "gs":
        kwargs["feature_dim"] = 16
        # Each round emits ~2.5 accesses per in-edge; repeat rounds
        # until the budget is covered.
        per_round = max(1, int(2.5 * max(len(graph.in_na), 1)))
        kwargs["rounds"] = max(2, budget // per_round + 1)
    if wl.kernel == "dyn":
        kwargs["seed"] = zlib.crc32(wl.name.encode()) % 1000
        # Each batch replays a full query pass (~3 accesses per edge);
        # batches scale with the budget so updates stay interleaved
        # throughout the window.
        per_batch = max(1, 3 * max(graph.num_edges, 1))
        kwargs["batch_size"] = 1024
        kwargs["batches"] = max(4, budget // per_batch + 1)
    trace = generate_trace(wl.kernel, graph, max_accesses=budget,
                           window=length, **kwargs)
    trace.name = wl.name
    trace.kernel = wl.kernel
    trace.graph = wl.graph
    return trace


#: Per-process count of store writes per path, feeding the fault
#: injector's ``write_seq`` (see :func:`repro.store.fault_hook`).
_store_write_seq: dict[str, int] = {}


def _store_trace(trace: Trace, path: Path) -> None:
    """Write a trace store entry (atomic inside :func:`store.write_trace`)
    and apply any armed ``corrupt``/``truncate`` fault to the result.

    Parallel workers may race to generate the same trace; the atomic
    temp-file + rename write guarantees no reader ever sees a
    half-written store file, and the last writer simply wins with an
    identical file.
    """
    store.write_trace(trace, path)
    artifact.fault_hook(path, f"trace:{path.name}", _store_write_seq)


def workload_trace(wl: Workload | str, tier: str = DEFAULT_TIER,
                   length: int = DEFAULT_TRACE_LEN,
                   use_cache: bool = True, mapped: bool = True) -> Trace:
    """Load (or generate and cache) a workload's trace.

    With ``use_cache`` the trace lives in the on-disk v8 store and the
    returned ``Trace.accesses`` is a **read-only memory map** of the
    cache file (``mapped=False`` forces a private in-RAM copy; without
    a cache the freshly generated in-memory trace is returned as-is).
    A store file that fails validation — bad magic, checksum mismatch,
    truncation — is quarantined to ``results/quarantine/`` (or deleted
    when merely stale) and the trace regenerated exactly once.
    """
    if isinstance(wl, str):
        kernel, graph = wl.split(".", 1)
        wl = Workload(kernel, graph)
    if not use_cache:
        return _generate(wl, tier, length)
    path = _trace_path(wl, tier, length)
    # Two rounds: a file that fails validation is quarantined and
    # regenerated once; a second consecutive failure (e.g. a fault plan
    # damaging every write) falls back to the in-memory trace rather
    # than looping.
    for _ in range(2):
        if path.exists():
            try:
                return store.open_trace(path, mapped=mapped)
            except store.TraceStoreError as exc:
                artifact.discard(store.TRACE, path, exc,
                                 trace_quarantine_dir())
                store.COUNTERS["regenerated"].inc()
        trace = _generate(wl, tier, length)
        _store_trace(trace, path)
    return trace


def multicore_mixes(num_mixes: int = 50, cores: int = 4, seed: int = 42
                    ) -> list[tuple[Workload, ...]]:
    """The paper's randomly generated 4-thread workload mixes (§IV-D)."""
    rng = np.random.default_rng(seed)
    mixes = []
    for _ in range(num_mixes):
        idx = rng.integers(0, len(WORKLOADS), size=cores)
        mixes.append(tuple(WORKLOADS[i] for i in idx))
    return mixes
