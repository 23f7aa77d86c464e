"""Hotspot harness for the simulation engine (``make profile-engine``).

Profiles the reference backend over the BENCH_engine workload (PageRank
on kron(12,8), 50k-access window) with :mod:`cProfile` and prints the
top-20 functions by cumulative and by self time, then times both
backends with ``timeit``-style best-of-N wall clocks for a quick A/B.

Then it times a grid cell on the kernel the way ``run_grid`` runs one
(``runner.run_variant``: build a system, run it once).  Each cell
splits into four phases: *construct* (the ``SingleCoreSystem``),
*set-up* (``run`` up to the C call: gating, the aux columns, config
slots; the trace's records cross in place), the *C call* (which
allocates, runs and frees the simulator state), and the *tail* (stats
and timeline built from the kernel's outputs).  Cells are pr.kron,
bfs.urand and cc.friendster (the DSE's workloads, tiny tier) under
Baseline and the five Fig. 7 designs at 4,000, 8,000 and 20,000
accesses; the table reports per-cell medians over ``ROUNDS`` rounds
(each round's mean over its 18 cells) with the interquartile range.
``--no-batch`` skips this timing along with the batch A/B, since both
need the kernel.

Last, it times the tracers: ``workload_trace(..., use_cache=False)``
for the six quick workloads (tiny tier, 20,000 accesses, so each
tracer runs to 60,000 and builds the last 20,000), with the graphs
built before the clock starts.  The table reports per-workload and
total medians over ``ROUNDS`` rounds with the total's interquartile
range.

It ends with the warm grid: the 36-cell quick Fig. 7 grid (tiny tier,
2,500 accesses) rerun on a filled results cache in a temporary
``REPRO_CACHE_DIR``, where every cell is a cache hit.  Each round runs
the grid ``WARM_GRID_REPS`` times; the table reports per-grid medians
over ``ROUNDS`` rounds of the phases a warm rerun spends its time in
(``ResultsCache.get``, ``RunManifest.save``, ``ResultsCache``
construction, ``SystemStats.from_payload``) and of the whole
``run_grid``, with its interquartile range.

Usage::

    make profile-engine                        # or:
    PYTHONPATH=src python tools/profile_engine.py [--variant sdc_lp]
        [--accesses 50000] [--repeats 3] [--no-batch]

The cProfile pass always runs the *reference* loop — the batch backend
spends its time inside one C call, which a Python profiler cannot
decompose; its cost shows up in the wall-clock A/B below instead.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def build_workload(accesses: int):
    from repro.graphs import kronecker_graph
    from repro.trace.kernels import trace_pagerank
    g = kronecker_graph(12, 8, seed=1)
    return trace_pagerank(g, iterations=1, max_accesses=accesses)


def profile_reference(trace, cfg, variant: str, top: int = 20) -> None:
    from repro.core.system import SingleCoreSystem
    system = SingleCoreSystem(cfg, variant)
    prof = cProfile.Profile()
    prof.enable()
    system.run(trace, backend="ref")
    prof.disable()
    for sort, title in (("cumulative", "cumulative time"),
                        ("tottime", "self time")):
        buf = io.StringIO()
        stats = pstats.Stats(prof, stream=buf)
        stats.strip_dirs().sort_stats(sort).print_stats(top)
        print(f"\n== top {top} by {title} [{variant}] " + "=" * 30)
        print(buf.getvalue())


def time_backends(trace, cfg, variant: str, repeats: int,
                  with_batch: bool) -> None:
    from repro.core.batch import kernel_available
    from repro.core.system import SingleCoreSystem
    backends = ["ref"]
    if with_batch and kernel_available():
        backends.append("batch")
    elif with_batch:
        print("(batch kernel unavailable — timing reference only)")
    best = {b: float("inf") for b in backends}
    for _ in range(repeats):
        for b in backends:            # interleaved to share thermal state
            system = SingleCoreSystem(cfg, variant)
            t0 = time.perf_counter()
            system.run(trace, backend=b)
            best[b] = min(best[b], time.perf_counter() - t0)
    n = len(trace)
    print(f"\n== wall clock, best of {repeats} [{variant}] " + "=" * 26)
    for b in backends:
        print(f"  {b:5}: {best[b]:.3f}s  {n / best[b]:>12,.0f} acc/s")
    if len(backends) == 2:
        print(f"  batch speedup: {best['ref'] / best['batch']:.1f}x")


CELL_WORKLOADS = ("pr.kron", "bfs.urand", "cc.friendster")
CELL_VARIANTS = ("baseline", "l1iso", "distill", "topt", "llc2x", "sdc_lp")
CELL_LENGTHS = (4_000, 8_000, 20_000)
PHASES = ("construct", "set-up", "C call", "tail")
ROUNDS = 7


def _stamping_kernel(marks: dict):
    """A stand-in for the loaded kernel whose one C call stamps
    ``marks["call"]`` on entry and ``marks["ret"]`` on return."""
    from repro.core.batch import load_kernel
    lib = load_kernel()

    class _Stamped:
        def repro_batch_run(self, icfg, bufs):
            marks["call"] = time.perf_counter()
            rc = lib.repro_batch_run(icfg, bufs)
            marks["ret"] = time.perf_counter()
            return rc
    return _Stamped()


def time_cell(trace, cfg, variant: str, marks: dict) -> list[float]:
    """One cell as ``run_variant`` runs it, split into PHASES (s)."""
    from repro.core.system import SingleCoreSystem
    marks.clear()
    t0 = time.perf_counter()
    system = SingleCoreSystem(cfg, variant)
    t1 = time.perf_counter()
    system.run(trace, backend="batch")
    t2 = time.perf_counter()
    if "call" not in marks:
        raise RuntimeError(f"the kernel refused the {variant} cell")
    return [t1 - t0, marks["call"] - t1, marks["ret"] - marks["call"],
            t2 - marks["ret"]]


def time_grid_cells() -> None:
    from repro.core.batch import backend, kernel_available
    from repro.experiments.runner import default_config
    from repro.experiments.workloads import workload_trace
    if not kernel_available():
        print("\n(batch kernel unavailable — no grid-cell timing)")
        return
    cfg = default_config()
    traces = {n: [workload_trace(wl, tier="tiny", length=n)
                  for wl in CELL_WORKLOADS] for n in CELL_LENGTHS}
    marks: dict = {}
    # per length: one [phase means] row per round
    rows = {n: [] for n in CELL_LENGTHS}
    real = backend.load_kernel
    stamped = _stamping_kernel(marks)
    backend.load_kernel = lambda: stamped
    cells = len(CELL_WORKLOADS) * len(CELL_VARIANTS)
    try:
        for _ in range(ROUNDS):
            for n in CELL_LENGTHS:
                sums = [0.0] * len(PHASES)
                for trace in traces[n]:
                    for variant in CELL_VARIANTS:
                        phases = time_cell(trace, cfg, variant, marks)
                        sums = [a + b for a, b in zip(sums, phases)]
                rows[n].append([x / cells for x in sums])
    finally:
        backend.load_kernel = real
    print(f"\n== grid cell on the kernel, per-cell median over {ROUNDS} "
          f"rounds (ms; [q1, q3] for the cell) " + "=" * 16)
    print("| accesses | " + " | ".join(PHASES) + " | cell | [q1, q3] |")
    print("|---:|" + "---:|" * (len(PHASES) + 2))
    for n in CELL_LENGTHS:
        per_round = rows[n]
        phases = [statistics.median(r[i] for r in per_round) * 1e3
                  for i in range(len(PHASES))]
        q1, cell, q3 = _quartiles([sum(r) * 1e3 for r in per_round])
        print(f"| {n:,} | " + " | ".join(f"{x:.2f}" for x in phases)
              + f" | {cell:.2f} | [{q1:.2f}, {q3:.2f}] |")


def _quartiles(xs: list[float]) -> list[float]:
    """[q1, median, q3] of ``xs``."""
    return (statistics.quantiles(xs, n=4, method="inclusive")
            if len(xs) > 1 else xs * 3)


TRACER_LENGTH = 20_000


def time_tracers() -> None:
    from repro.experiments.figures import QUICK_WORKLOADS
    from repro.experiments.workloads import workload_trace

    def trace(name: str) -> float:
        t0 = time.perf_counter()
        workload_trace(name, tier="tiny", length=TRACER_LENGTH,
                       use_cache=False)
        return time.perf_counter() - t0

    for name in QUICK_WORKLOADS:        # builds and memoises the graphs
        trace(name)
    rows = {name: [] for name in QUICK_WORKLOADS}
    for _ in range(ROUNDS):
        for name in QUICK_WORKLOADS:
            rows[name].append(trace(name) * 1e3)
    totals = [sum(r) for r in zip(*rows.values())]
    print(f"\n== tracers, {TRACER_LENGTH:,}-access windows (tiny tier), "
          f"median over {ROUNDS} rounds (ms) " + "=" * 18)
    print("| workload | trace |")
    print("|---|---:|")
    for name, times in rows.items():
        print(f"| {name} | {statistics.median(times):.2f} |")
    q1, total, q3 = _quartiles(totals)
    print(f"| total | {total:.2f} [{q1:.2f}, {q3:.2f}] |")


WARM_GRID_LENGTH = 2_500
WARM_GRID_REPS = 20


def _timing(fn, totals: dict, phase: str):
    """``fn`` adding its wall time and one call to ``totals[phase]``."""
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[phase][0] += time.perf_counter() - t0
            totals[phase][1] += 1
    return timed


def time_warm_grid() -> None:
    import contextlib
    import os
    import tempfile
    from unittest import mock
    from repro.core.system import SystemStats
    from repro.experiments.figures import QUICK_WORKLOADS, plan_figure
    from repro.experiments.manifest import RunManifest
    from repro.experiments.parallel import run_grid
    from repro.experiments.results_cache import ResultsCache

    hooks = ((ResultsCache, "get", "cache get"),
             (RunManifest, "save", "manifest save"),
             (ResultsCache, "__init__", "cache construction"),
             (SystemStats, "from_payload", "decode"))
    phases = [phase for _, _, phase in hooks] + ["run_grid"]
    totals = {phase: [0.0, 0] for phase in phases}
    rows = []                   # one [per-grid ms per phase] per round
    with contextlib.ExitStack() as patches:
        tmp = patches.enter_context(tempfile.TemporaryDirectory())
        patches.enter_context(
            mock.patch.dict(os.environ, REPRO_CACHE_DIR=tmp))
        grid, _ = plan_figure("fig7", QUICK_WORKLOADS, tier="tiny",
                              length=WARM_GRID_LENGTH)
        run_grid(grid)                      # fills the results cache
        for owner, attr, phase in hooks:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                timed = classmethod(_timing(raw.__func__, totals, phase))
            else:
                timed = _timing(raw, totals, phase)
            patches.enter_context(mock.patch.object(owner, attr, timed))
        timed_grid = _timing(run_grid, totals, "run_grid")
        for _ in range(ROUNDS):
            for cell in totals.values():
                cell[:] = [0.0, 0]
            for _ in range(WARM_GRID_REPS):
                timed_grid(grid)
            rows.append([totals[p][0] * 1e3 / WARM_GRID_REPS
                         for p in phases])
    calls = [totals[p][1] / WARM_GRID_REPS for p in phases]
    print(f"\n== warm grid: quick Fig. 7 ({len(grid)} cells, tiny tier, "
          f"{WARM_GRID_LENGTH:,} accesses) on a filled cache, per-grid "
          f"median over {ROUNDS} rounds (ms) " + "=" * 4)
    print("| phase | calls | ms |")
    print("|---|---:|---:|")
    for i, phase in enumerate(phases[:-1]):
        print(f"| {phase} | {calls[i]:g} | "
              f"{statistics.median(r[i] for r in rows):.3f} |")
    q1, total, q3 = _quartiles([r[-1] for r in rows])
    print(f"| run_grid | {calls[-1]:g} | {total:.3f} "
          f"[{q1:.3f}, {q3:.3f}] |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--variant", default="sdc_lp")
    ap.add_argument("--accesses", type=int, default=50_000)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--top", type=int, default=20)
    ap.add_argument("--no-batch", action="store_true",
                    help="skip the batch-backend wall-clock A/B and "
                         "the grid-cell timing")
    args = ap.parse_args(argv)

    from repro.config import scaled_config
    cfg = scaled_config(16)
    print(f"tracing pagerank/kron(12,8), {args.accesses:,}-access window…")
    trace = build_workload(args.accesses)
    profile_reference(trace, cfg, args.variant, top=args.top)
    time_backends(trace, cfg, args.variant, args.repeats,
                  with_batch=not args.no_batch)
    if not args.no_batch:
        time_grid_cells()
    time_tracers()
    time_warm_grid()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
