"""Command-line entry point: regenerate any paper table or figure.

Examples::

    repro config                 # Table I system configuration
    repro fig2                   # baseline MPKI (all 36 workloads)
    repro fig7 --quick           # speedups on the 6-workload subset
    repro fig14 --mixes 10       # multi-core weighted speedup
    repro table4                 # hardware budget
    repro timeline pr.kron sdc_lp    # windowed-metric ASCII timeline
    repro fig7 --quick --telemetry out/   # sweep with JSONL event log
    repro trace-export latest --telemetry out/  # Perfetto trace JSON
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.system import VARIANTS
from repro.experiments import figures, report
from repro.experiments.figures import FIGURES, QUICK_WORKLOADS
from repro.experiments.supervisor import LEASE_TTL
from repro.experiments.workloads import DEFAULT_TRACE_LEN


def _common(parser: argparse.ArgumentParser) -> None:
    """Flags of every simulating command."""
    parser.add_argument("--quick", action="store_true",
                        help="run the 6-workload quick subset")
    parser.add_argument("--length", type=int, default=DEFAULT_TRACE_LEN,
                        help="trace window length (accesses)")
    parser.add_argument("--tier", default="medium",
                        help="graph size tier (tiny/small/medium/large)")
    parser.add_argument("--check", action="store_true",
                        help="run with invariant checking enabled "
                             "(repro.validate; implies --no-cache)")
    parser.add_argument("--backend", choices=("ref", "batch"),
                        default=None,
                        help="simulation engine: the compiled "
                             "structure-of-arrays kernel or the "
                             "reference Python loop, the spec "
                             "(bit-identical; default: $REPRO_BACKEND "
                             "or batch; cells the kernel refuses run "
                             "on ref)")


def _grid_flags(parser: argparse.ArgumentParser) -> None:
    """Flags of the commands that run a grid through ``run_grid``."""
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for grid experiments")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--progress", action="store_true",
                        help="print one line per finished grid cell")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SEC",
                        help="per-cell timeout for parallel grid runs; "
                             "hung workers are detected and the cell "
                             "retried")
    parser.add_argument("--retries", type=int, default=2,
                        help="retry attempts per failed grid cell "
                             "(exponential backoff; default 2)")
    parser.add_argument("--resume", metavar="RUN_ID", default=None,
                        help="resume an interrupted sweep from its run "
                             "manifest (see docs/RESILIENCE.md); for "
                             "sharded sweeps, names the shared run id")
    parser.add_argument("--shard", metavar="I/N", default=None,
                        help="execute only shard I of N of the grid "
                             "(deterministic hash partition; requires "
                             "--resume RUN_ID with the same id on "
                             "every host, stitched afterwards by "
                             "'repro merge RUN_ID' — see "
                             "docs/RESILIENCE.md)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort the whole grid on the first "
                             "permanent cell failure")
    parser.add_argument("--telemetry", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="record windowed metrics and a JSONL event "
                             "log for this sweep (DIR defaults to "
                             "<cache>/telemetry; see "
                             "docs/OBSERVABILITY.md)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Practically "
                    "Tackling Memory Bottlenecks of Graph-Processing "
                    "Workloads' (IPDPS 2024)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fig in FIGURES.items():
        p = sub.add_parser(name)
        _common(p)
        if fig.grid:
            _grid_flags(p)
        if name == "fig14":
            p.add_argument("--mixes", type=int, default=10)

    prun = sub.add_parser(
        "run", help="simulate one workload under one design variant")
    prun.add_argument("workload", help="kernel.graph, e.g. pr.kron")
    prun.add_argument("--variant", default="sdc_lp", choices=VARIANTS)
    _common(prun)

    pdse = sub.add_parser(
        "dse",
        help="design-space exploration: successive-halving search of "
             "the SystemConfig space with a Pareto frontier over "
             "(speedup, storage bits) — see docs/DSE.md")
    pdse.add_argument("--seed", type=int, default=0,
                      help="sampling seed (same seed = same candidate "
                           "sequence, same study id)")
    pdse.add_argument("--candidates", type=int, default=64, metavar="N",
                      help="configs to sample from the space "
                           "(default 64)")
    pdse.add_argument("--rungs", type=int, default=3,
                      help="halving rungs; trace length doubles per "
                           "rung (default 3)")
    pdse.add_argument("--quick", action="store_true",
                      help="quick study: 32 candidates, 2 rungs, tiny "
                           "tier, short traces")
    pdse.add_argument("--length", type=int, default=None, metavar="N",
                      help="rung-0 trace length (default 20000; 4000 "
                           "with --quick)")
    pdse.add_argument("--tier", default=None,
                      help="graph size tier (default medium; tiny with "
                           "--quick)")
    pdse.add_argument("--workloads", nargs="+", default=None,
                      metavar="WL", help="evaluation workloads "
                      "(default: one per irregularity class)")
    pdse.add_argument("--jobs", type=int, default=1,
                      help="worker processes for the per-rung grids")
    pdse.add_argument("--no-cache", action="store_true",
                      help="bypass the on-disk result cache")
    pdse.add_argument("--progress", action="store_true",
                      help="print one line per finished grid cell")
    pdse.add_argument("--check", action="store_true",
                      help="run with invariant checking enabled "
                           "(implies --no-cache)")
    pdse.add_argument("--timeout", type=float, default=None,
                      metavar="SEC", help="per-cell timeout")
    pdse.add_argument("--retries", type=int, default=2,
                      help="retry attempts per failed cell")
    pdse.add_argument("--resume", metavar="STUDY_ID", default=None,
                      help="resume an interrupted study from its "
                           "runs/<study_id>.dse.json ledger")
    pdse.add_argument("--csv", metavar="PATH", default=None,
                      help="also write the full evaluated-point set "
                           "as CSV")
    pdse.add_argument("--backend", choices=("ref", "batch"),
                      default=None,
                      help="simulation engine (default: $REPRO_BACKEND "
                           "or batch)")
    pdse.add_argument("--telemetry", nargs="?", const="", default=None,
                      metavar="DIR",
                      help="record windowed metrics and a JSONL event "
                           "log per rung grid (DIR defaults to "
                           "<cache>/telemetry; see "
                           "docs/OBSERVABILITY.md)")

    ptl = sub.add_parser(
        "timeline",
        help="simulate one workload and render its windowed metrics "
             "as an ASCII timeline")
    ptl.add_argument("workload",
                     help="kernel.graph (pr.kron; bfs-twitter works too)")
    ptl.add_argument("variant", nargs="?", default="sdc_lp")
    ptl.add_argument("--window", type=int, default=None, metavar="N",
                     help="accesses per window (default: trace length "
                          "/ 32, clamped to [256, 4096])")
    ptl.add_argument("--metric", default="l1d_mpki",
                     help="primary metric for the bar chart "
                          "(default l1d_mpki)")
    ptl.add_argument("--length", type=int, default=DEFAULT_TRACE_LEN)
    ptl.add_argument("--tier", default="medium")

    pte = sub.add_parser(
        "trace-export",
        help="export one sweep as Chrome/Perfetto trace-event JSON")
    pte.add_argument("run_id",
                     help="run id from the sweep output or manifest, "
                          "or 'latest'")
    pte.add_argument("--telemetry", nargs="?", const="", default=None,
                     metavar="DIR",
                     help="telemetry directory holding the event log "
                          "(default <cache>/telemetry)")
    pte.add_argument("-o", "--out", default=None,
                     help="output path (default trace-<run_id>.json)")
    pte.add_argument("--validate", action="store_true",
                     help="check the trace against the schema validator "
                          "before reporting success")
    pmg = sub.add_parser(
        "merge",
        help="validate and stitch the shard manifests of a sharded "
             "sweep (run with --shard I/N) into one merged run")
    pmg.add_argument("run_id", help="shared run id of the sharded sweep")
    pmg.add_argument("--telemetry", nargs="?", const="", default=None,
                     metavar="DIR",
                     help="also fold per-shard event logs in DIR into "
                          "the main events-<run_id>.jsonl")
    pmg.add_argument("--watch", action="store_true",
                     help="poll until every shard reports complete, "
                          "then merge (instead of failing on "
                          "missing/incomplete shards)")
    pmg.add_argument("--interval", type=float, default=2.0,
                     metavar="SEC",
                     help="poll period for --watch (default 2s)")
    pmg.add_argument("--watch-timeout", type=float, default=None,
                     metavar="SEC",
                     help="give up --watch after SEC seconds "
                          "(default: wait forever)")

    psv = sub.add_parser(
        "serve",
        help="run the simulation service: a crash-tolerant orchestrator "
             "+ worker pool accepting sweep jobs over a typed HTTP/JSON "
             "API (docs/SERVICE.md)")
    psv.add_argument("--host", default="127.0.0.1")
    psv.add_argument("--port", type=int, default=8421,
                     help="TCP port (0 = ephemeral; default 8421)")
    psv.add_argument("--workers", type=int, default=2,
                     help="worker processes executing cells")
    psv.add_argument("--queue-depth", type=int, default=16,
                     help="max active jobs before submissions get 429 "
                          "backpressure")
    psv.add_argument("--lease-ttl", type=float, default=LEASE_TTL,
                     metavar="SEC",
                     help="cell lease TTL; a worker that stops "
                          "heartbeating for this long forfeits its "
                          "cell (default %(default)gs)")
    psv.add_argument("--timeout", type=float, default=None,
                     metavar="SEC",
                     help="per-cell wall deadline; hung workers are "
                          "killed and the cell retried")
    psv.add_argument("--retries", type=int, default=2,
                     help="retry attempts per failed/forfeited cell")
    psv.add_argument("--telemetry", nargs="?", const="", default=None,
                     metavar="DIR",
                     help="append service lifecycle events to "
                          "DIR/events-service.jsonl")
    psv.add_argument("--verbose", action="store_true",
                     help="log every HTTP request to stderr")

    psub = sub.add_parser(
        "submit",
        help="submit a sweep (or shard-merge) job to a running "
             "'repro serve' and optionally stream its results")
    psub.add_argument("--url", default=None,
                      help="service endpoint (default "
                           "$REPRO_SERVICE_URL or "
                           "http://127.0.0.1:8421)")
    psub.add_argument("--quick", action="store_true",
                      help="the 6-workload quick subset (default)")
    psub.add_argument("--all", action="store_true",
                      help="all 36 workloads")
    psub.add_argument("--workloads", nargs="+", default=None,
                      metavar="KERNEL.GRAPH",
                      help="explicit workload list")
    psub.add_argument("--variants", nargs="+", default=None,
                      help="design variants (default: the fig7 set)")
    psub.add_argument("--tier", default="tiny")
    psub.add_argument("--length", type=int, default=20_000)
    psub.add_argument("--backend", choices=("ref", "batch"),
                      default=None)
    psub.add_argument("--merge", metavar="RUN_ID", default=None,
                      help="submit a merge job instead: wait for every "
                           "shard of RUN_ID then stitch")
    psub.add_argument("--watch-timeout", type=float, default=None,
                      metavar="SEC",
                      help="merge jobs: give up waiting after SEC")
    psub.add_argument("--follow", action="store_true",
                      help="stream the JSONL result feed until the "
                           "job is terminal")

    pst = sub.add_parser(
        "status",
        help="show one service job (or all jobs) as typed JSON")
    pst.add_argument("job_id", nargs="?", default=None)
    pst.add_argument("--url", default=None)

    pca = sub.add_parser("cancel", help="cancel a service job")
    pca.add_argument("job_id")
    pca.add_argument("--url", default=None)

    sub.add_parser("config")
    sub.add_parser("table2")
    sub.add_parser("table3")
    sub.add_parser("table4")
    plist = sub.add_parser("workloads")
    plist.add_argument("--json", action="store_true",
                       help="machine-readable output (one object per "
                            "workload) for DSE studies and external "
                            "scripts")

    ping = sub.add_parser(
        "ingest",
        help="stream a real edge-list file into the mapped graph store",
        description="Ingest a .el/.wel/SNAP .txt edge list (optionally "
                    ".gz) into $REPRO_CACHE_DIR/graphs/ as a "
                    "memory-mapped CSR usable as a workload graph "
                    "(e.g. bfs.<name>); see docs/WORKLOADS.md.")
    ping.add_argument("path", help="edge-list file to ingest")
    ping.add_argument("--name", default=None,
                      help="store name (default: file name minus "
                           "extensions)")
    ping.add_argument("--symmetrize", action="store_true",
                      help="add the reverse of every edge (undirected "
                           "loading, as GAP does for -s)")
    ping.add_argument("--num-vertices", type=int, default=None,
                      help="vertex count override (default: max id + 1)")
    ping.add_argument("--force", action="store_true",
                      help="re-ingest even if a store entry exists")
    ping.add_argument("--chunk-edges", type=int, default=None,
                      help="edges parsed per streaming chunk "
                           "(default 1M; bounds ingest memory)")

    args = parser.parse_args(argv)
    cmd = args.command
    if getattr(args, "backend", None):
        # Install the selection ambiently: run_grid resolves it into
        # every worker spec and cache key, and single-run commands pick
        # it up through SingleCoreSystem.run's seam.
        import os
        os.environ["REPRO_BACKEND"] = args.backend
    if getattr(args, "check", False):
        # Enable the periodic invariant hook for this process and any
        # worker processes (they inherit the environment), and force the
        # runs to actually simulate — a cached result verifies nothing.
        import os

        from repro.validate import check_interval
        if not check_interval():
            os.environ["REPRO_VALIDATE"] = "1"
        args.no_cache = True

    if cmd == "config":
        from repro.experiments.runner import default_config
        print(default_config().describe())
        return 0
    if cmd == "table2":
        print(report.render_table2(figures.table2_kernels()))
        return 0
    if cmd == "table3":
        print(report.render_table3(figures.table3_graphs()))
        return 0
    if cmd == "table4":
        from repro.core.budget import table4, lp_fits_in_one_cycle
        print("Table IV — hardware budget per core")
        print(table4())
        print(f"\nLP fits in one CPU cycle: {lp_fits_in_one_cycle()}")
        return 0
    if cmd == "workloads":
        from repro.experiments.workloads import ALL_WORKLOADS, KERNELS
        if args.json:
            import json as _json
            print(_json.dumps(
                [{"name": wl.name, "kernel": wl.kernel,
                  "graph": wl.graph,
                  "family": ("gap" if wl.kernel in KERNELS
                             else wl.kernel)}
                 for wl in ALL_WORKLOADS], indent=1))
        else:
            for wl in ALL_WORKLOADS:
                print(wl.name)
        return 0
    if cmd == "ingest":
        return _ingest(args)
    if cmd == "dse":
        return _dse(args)
    if cmd == "run":
        return _run_one(args)
    if cmd == "timeline":
        return _timeline(args)
    if cmd == "trace-export":
        return _trace_export(args)
    if cmd == "merge":
        return _merge(args)
    if cmd == "serve":
        return _serve(args)
    if cmd == "submit":
        return _submit(args)
    if cmd == "status":
        return _status(args)
    if cmd == "cancel":
        return _cancel(args)

    return _figure(cmd, args)


def _figure(name: str, args) -> int:
    """`repro <figure>`: run one FIGURES entry and print its report."""
    fig = FIGURES[name]
    # --quick picks the quick subset; a study with a fixed subject keeps it.
    wls = QUICK_WORKLOADS if args.quick and fig.workloads is None else None
    kw = dict(tier=args.tier, length=args.length)
    if name == "fig14":
        kw["mixes"] = args.mixes
    if not fig.grid:
        print(fig.render(figures.run_figure(name, wls, **kw)))
        return 0
    from repro import faults
    from repro.experiments import sharding
    from repro.experiments.parallel import (GridError, GridInterrupted,
                                            ProgressPrinter, RunPolicy,
                                            ShardComplete)
    shard = None
    if args.shard:
        try:
            shard = sharding.parse_shard(args.shard)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        if args.resume is None:
            print("--shard needs a shared run id: pass --resume RUN_ID "
                  "with the same id on every host (repro merge RUN_ID "
                  "stitches the shards afterwards)", file=sys.stderr)
            return 2
        if args.no_cache or args.check:
            print("--shard requires the results cache (repro merge "
                  "validates shard results out of it); drop "
                  "--no-cache/--check", file=sys.stderr)
            return 2
    policy = RunPolicy(timeout=args.timeout, retries=args.retries,
                       fail_fast=args.fail_fast)
    progress = ProgressPrinter() if (args.progress or args.jobs > 1) \
        else None
    tdir = _activate_telemetry(args)
    sharding.activate_shard(shard)
    try:
        print(fig.render(figures.run_figure(
            name, wls, jobs=args.jobs, use_cache=not args.no_cache,
            progress=progress, policy=policy, run_id=args.resume, **kw)))
    except ShardComplete as sc:
        print(f"shard {sc.shard[0]}/{sc.shard[1]} of run {sc.run_id} "
              f"complete ({sc.summary}).")
        print(f"When every shard has run, stitch with: "
              f"repro merge {sc.run_id}")
        return 0
    except faults.FaultInjected as fi:
        print(f"\n{fi}", file=sys.stderr)
        if shard is not None:
            print(f"Shard checkpoint kept; re-run this shard with "
                  f"--shard {shard[0]}/{shard[1]} --resume "
                  f"{args.resume}", file=sys.stderr)
        return 1
    except GridInterrupted as gi:
        print(f"\nInterrupted — every completed cell is checkpointed "
              f"({gi.summary}).")
        print(f"Resume with: --resume {gi.run_id}")
        return 130
    except GridError as ge:
        print(f"\n{ge}")
        for label, err in sorted(ge.failures.items()):
            print(f"  {label}: {err}")
        if ge.run_id is not None:
            print(f"Completed cells are checkpointed; retry the rest "
                  f"with: --resume {ge.run_id}")
        return 1
    finally:
        sharding.activate_shard(None)
        if tdir is not None:
            from repro import telemetry as tele
            tele.deactivate()
    if tdir is not None:
        from repro.telemetry.events import latest_run_id
        run_id = latest_run_id(tdir)
        if run_id is not None:
            print(f"\ntelemetry: event log {tdir}/events-{run_id}.jsonl")
            print(f"export with: repro trace-export {run_id} "
                  f"--telemetry {tdir}")
    return 0


def _activate_telemetry(args) -> Path | None:
    """Install the ambient TelemetryConfig for ``--telemetry`` sweeps
    (run_grid picks it up); returns the directory, or None when off."""
    if getattr(args, "telemetry", None) is None:
        return None
    from repro import telemetry as tele
    tdir = Path(args.telemetry) if args.telemetry \
        else tele.default_telemetry_dir()
    window = tele.telemetry_interval(None) or tele.DEFAULT_WINDOW
    tele.activate(tele.TelemetryConfig(directory=tdir, window=window))
    return tdir


def _ingest(args) -> int:
    """`repro ingest <path>`: stream an edge list into the graph store."""
    from repro.graphs import ingest

    try:
        kwargs = {}
        if args.chunk_edges is not None:
            kwargs["chunk_edges"] = args.chunk_edges
        report_ = ingest.ingest_graph(
            args.path, name=args.name, symmetrize=args.symmetrize,
            num_vertices=args.num_vertices, force=args.force, **kwargs)
    except (OSError, ValueError) as exc:
        print(f"ingest failed: {exc}", file=sys.stderr)
        return 1
    if report_.raw_edges < 0:
        print(f"{report_.name}: already ingested at {report_.path} "
              f"(use --force to rebuild)")
    else:
        print(f"{report_.name}: {report_.num_vertices:,} vertices, "
              f"{report_.num_edges:,} edges "
              f"({'symmetrized, ' if report_.symmetric else ''}"
              f"{'weighted, ' if report_.weighted else ''}"
              f"{report_.file_bytes:,} bytes mapped)")
        print(f"  store: {report_.path}")
    print(f"  run it: repro run bfs.{report_.name} sdc_lp "
          f"(any kernel from `repro workloads`)")
    return 0


def _timeline(args) -> int:
    """`repro timeline <workload> [variant]`: windowed ASCII report."""
    from repro import telemetry as tele
    from repro.experiments.runner import run_variant
    from repro.experiments.workloads import workload_trace
    from repro.telemetry.probes import TIMELINE_METRICS
    from repro.telemetry.render import render_timeline

    if args.metric not in TIMELINE_METRICS:
        print(f"unknown metric {args.metric!r}; choose from: "
              + ", ".join(TIMELINE_METRICS), file=sys.stderr)
        return 2
    wl = args.workload
    if "." not in wl:               # accept bfs-twitter for bfs.twitter
        wl = wl.replace("-", ".", 1)
    trace = workload_trace(wl, tier=args.tier, length=args.length)
    # Default window: ~32+ windows per run, never finer than 256
    # accesses (too noisy) or coarser than the standard 4096.
    window = args.window or max(256, min(tele.DEFAULT_WINDOW,
                                         len(trace) // 32))
    stats = run_variant(trace, args.variant, telemetry_every=window)
    print(render_timeline(
        stats.timeline,
        title=f"{wl}/{args.variant} — {len(trace):,} accesses, "
              f"tier={args.tier}",
        primary=args.metric))
    return 0


def _trace_export(args) -> int:
    """`repro trace-export <run_id>`: write Perfetto trace JSON."""
    from repro import telemetry as tele
    from repro.experiments.manifest import RunManifest
    from repro.telemetry import events as tele_events
    from repro.telemetry import trace_export

    tdir = Path(args.telemetry) if args.telemetry \
        else tele.default_telemetry_dir()
    run_id = args.run_id
    if run_id == "latest":
        run_id = tele_events.latest_run_id(tdir)
        if run_id is None:
            try:
                run_id = RunManifest.latest().run_id
            except (FileNotFoundError, ValueError):
                print(f"no event logs in {tdir} and no run manifests",
                      file=sys.stderr)
                return 1
    try:
        trace = trace_export.export_trace(run_id, telemetry_dir=tdir)
    except (FileNotFoundError, ValueError) as exc:
        print(f"run {run_id}: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out \
        else tdir / f"trace-{run_id}.json"
    trace_export.write_trace(trace, out)
    spans = sum(1 for e in trace["traceEvents"] if e.get("ph") == "X")
    print(f"wrote {out} — {spans} spans "
          f"(source: {trace['otherData']['source']}); open in "
          "https://ui.perfetto.dev or chrome://tracing")
    if args.validate:
        from repro.telemetry import schema as tele_schema
        errors = tele_schema.validate_trace(trace)
        if errors:
            for err in errors:
                print(err, file=sys.stderr)
            return 1
        print("trace schema: OK")
    return 0


def _merge(args) -> int:
    """`repro merge <run_id>`: validate + stitch a sharded sweep.
    With ``--watch``, poll until every shard reports complete first."""
    from repro.experiments.sharding import (ShardMergeError,
                                            merge_shards,
                                            wait_for_shards)

    tdir = None
    if args.telemetry is not None:
        from repro import telemetry as tele
        tdir = Path(args.telemetry) if args.telemetry \
            else tele.default_telemetry_dir()
    if getattr(args, "watch", False):
        last = [None]

        def on_poll(ready: bool, summary: str) -> None:
            if not ready and summary != last[0]:
                print(f"waiting: {summary}")
                last[0] = summary
        try:
            summary = wait_for_shards(args.run_id, poll=args.interval,
                                      timeout=args.watch_timeout,
                                      on_poll=on_poll)
        except KeyboardInterrupt:
            print("\nwatch interrupted; shards keep their checkpoints "
                  "— re-run repro merge --watch to continue waiting.",
                  file=sys.stderr)
            return 130
        except TimeoutError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"all shards complete ({summary}); merging...")
    try:
        report = merge_shards(args.run_id, telemetry_dir=tdir)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ShardMergeError as exc:
        print(f"{exc}", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        print("Nothing was merged; fix the shards above and re-run "
              "repro merge.", file=sys.stderr)
        return 1
    print(f"run {report.run_id}: {report.summary()}")
    print(f"merged manifest: {report.manifest_path}")
    if tdir is not None:
        print(f"telemetry: folded {report.events_merged} shard-log "
              f"events into {tdir}/events-{report.run_id}.jsonl")
    print("A figure rerun against this cache now reproduces the "
          "single-host output from validated shard results.")
    return 0


def _service_url(args) -> str:
    import os
    return (args.url or os.environ.get("REPRO_SERVICE_URL")
            or "http://127.0.0.1:8421")


def _serve(args) -> int:
    """`repro serve`: run the orchestrator until SIGTERM/SIGINT
    (graceful drain) or a fatal fault (docs/SERVICE.md)."""
    import signal

    from repro import faults
    from repro.experiments.parallel import RunPolicy
    from repro.service import Orchestrator, ServiceConfig
    from repro.service.api import serve_in_thread

    tdir = None
    if args.telemetry is not None:
        from repro import telemetry as tele
        tdir = Path(args.telemetry) if args.telemetry \
            else tele.default_telemetry_dir()
    orc = Orchestrator(ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, lease_ttl=args.lease_ttl,
        policy=RunPolicy(timeout=args.timeout, retries=args.retries),
        telemetry_dir=tdir,
        hard_crash=True))       # injected crashes really kill us
    server, _ = serve_in_thread(orc, verbose=args.verbose)
    host, port = server.server_address[:2]

    def on_signal(signum, frame):
        print(f"\nsignal {signal.Signals(signum).name}: draining "
              "(in-flight cells finish, nothing new is leased)...",
              file=sys.stderr)
        orc.request_drain()
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)

    print(f"repro service generation {orc.generation} listening on "
          f"http://{host}:{port} ({args.workers} worker(s), "
          f"lease TTL {args.lease_ttl:g}s, queue depth "
          f"{args.queue_depth})")
    resumed = [j for j in orc.jobs.values()
               if j.state in ("queued", "running")]
    if resumed:
        print(f"recovered {len(resumed)} in-flight job(s) from the "
              "journal; resuming with zero redundant simulation")
    try:
        orc.run()
    except faults.FaultInjected as fi:
        print(f"\n{fi}", file=sys.stderr)
        print("journal and manifests are checkpointed; restart "
              "'repro serve' to resume every in-flight job.",
              file=sys.stderr)
        return 1
    print("drained cleanly.")
    return 0


def _submit(args) -> int:
    """`repro submit`: POST a job to a running service."""
    import json as _json

    from repro.service import JobRequest, ServiceClient, ServiceError

    if args.merge is not None:
        req = JobRequest(kind="merge", run_id=args.merge,
                         watch_timeout=args.watch_timeout)
    else:
        if args.workloads:
            wls: object = list(args.workloads)
        elif args.all:
            wls = None
        else:
            wls = "quick"
        req = JobRequest(workloads=wls,
                         variants=tuple(args.variants or ()),
                         tier=args.tier, length=args.length,
                         backend=args.backend)
    client = ServiceClient(_service_url(args))
    try:
        resp = client.submit(req, max_retries=3)
    except ServiceError as exc:
        print(exc, file=sys.stderr)
        for d in exc.detail:
            print(f"  - {d}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {client.base_url}: {exc} "
              "(is 'repro serve' running?)", file=sys.stderr)
        return 1
    print(f"job {resp.job_id}: {resp.state}, {resp.cells} unique "
          f"cell(s)")
    if not args.follow:
        print(f"follow with: repro status {resp.job_id}")
        return 0
    for row in client.results(resp.job_id, follow=True,
                              timeout=3600.0):
        print(_json.dumps(row, sort_keys=True))
    status = client.status(resp.job_id)
    print(f"job {resp.job_id}: {status.state}")
    return 0 if status.state == "complete" else 1


def _status(args) -> int:
    """`repro status [job_id]`: typed job state as JSON."""
    import json as _json

    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(_service_url(args))
    try:
        if args.job_id is None:
            jobs = client.list_jobs()
            for job in jobs:
                p = job.progress
                print(f"{job.job_id}  {job.state:9} "
                      f"{p.done}/{p.total} done "
                      f"({p.failed} failed, {p.running} running)")
            if not jobs:
                print("no jobs")
            return 0
        status = client.status(args.job_id)
    except ServiceError as exc:
        print(exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {client.base_url}: {exc}",
              file=sys.stderr)
        return 1
    print(_json.dumps(status.to_dict(), indent=2, sort_keys=True))
    return 0


def _cancel(args) -> int:
    """`repro cancel <job_id>`."""
    from repro.service import ServiceClient, ServiceError
    client = ServiceClient(_service_url(args))
    try:
        status = client.cancel(args.job_id)
    except (ServiceError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"job {status.job_id}: {status.state}")
    return 0


def _run_one(args) -> int:
    """`repro run <workload>`: full stats dump for one simulation."""
    from repro.core.energy import energy_of, energy_per_kilo_instruction
    from repro.experiments.runner import default_config, run_variant
    from repro.experiments.workloads import workload_trace
    from repro.mem.hierarchy import LEVEL_NAMES

    trace = workload_trace(args.workload, tier=args.tier,
                           length=args.length)
    cfg = default_config()
    stats = run_variant(trace, args.variant, cfg, record_levels=True)
    print(f"{args.workload} under {args.variant} "
          f"({len(trace):,} accesses, {stats.instructions:,} instr)")
    print(f"  cycles {stats.cycles:,.0f}   IPC {stats.ipc:.3f}")
    for cache in ("l1d", "sdc", "l2c", "llc"):
        cs = getattr(stats, cache)
        if cs is None:
            continue
        print(f"  {cache.upper():4} accesses {cs.accesses:>9,}  "
              f"hit-rate {100 * cs.hit_rate:5.1f}%  "
              f"MPKI {stats.mpki(cache):7.1f}")
    print(f"  DRAM reads {stats.dram.reads:,} writes {stats.dram.writes:,} "
          f"(row hits {stats.dram.row_hits:,})")
    if stats.lp is not None:
        lp = stats.lp
        print(f"  LP: {lp.predicted_irregular:,}/{lp.lookups:,} "
              f"({100 * lp.predicted_irregular / max(1, lp.lookups):.1f}%) "
              f"routed to the SDC")
    if stats.tlb is not None:
        print(f"  TLB: {stats.tlb.walks:,} page walks "
              f"({100 * stats.tlb.l1_miss_rate:.1f}% DTLB miss)")
    import numpy as np
    counts = np.bincount(stats.levels, minlength=6)
    served = ", ".join(f"{LEVEL_NAMES[i]} {100 * c / len(trace):.1f}%"
                       for i, c in enumerate(counts) if c)
    print(f"  served by: {served}")
    print(f"  energy: {energy_per_kilo_instruction(stats):.2f} uJ/kilo-"
          f"instr (on-chip {energy_of(stats).on_chip:.3f} mJ)")
    return 0


def _dse(args) -> int:
    """`repro dse`: successive-halving search with a Pareto report."""
    from repro.dse import frontier_csv, render_frontier, run_study
    from repro.experiments.parallel import (GridError, GridInterrupted,
                                            ProgressPrinter, RunPolicy)

    candidates = args.candidates
    rungs = args.rungs
    tier = args.tier or "medium"
    length = args.length or 20_000
    workloads = tuple(args.workloads) if args.workloads else None
    if args.quick:
        candidates = min(candidates, 32)
        rungs = min(rungs, 2)
        tier = args.tier or "tiny"
        length = args.length or 4_000
    seed = args.seed
    if args.resume:
        # Resume takes its parameters from the ledger, so the bare
        # `--resume STUDY_ID` works without repeating the flags.
        from repro.dse import StudyManifest
        try:
            ledger = StudyManifest.load(args.resume)
        except FileNotFoundError:
            print(f"no study ledger for {args.resume!r} "
                  f"(runs/{args.resume}.dse.json)", file=sys.stderr)
            return 2
        p = ledger.data["params"]
        seed, candidates, rungs = p["seed"], p["n"], p["rungs"]
        length, tier = p["base_length"], p["tier"]
        workloads = tuple(p["workloads"])
    policy = RunPolicy(timeout=args.timeout, retries=args.retries)
    progress = ProgressPrinter() \
        if (args.progress or args.jobs > 1) else None
    tdir = _activate_telemetry(args)
    try:
        result = run_study(
            seed=seed, n=candidates, rungs=rungs,
            base_length=length, tier=tier, workloads=workloads,
            study_id=args.resume, jobs=args.jobs,
            use_cache=not args.no_cache, progress=progress,
            policy=policy)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except GridInterrupted as gi:
        study_id = gi.run_id.rsplit("-rung", 1)[0]
        print(f"\nInterrupted — every completed cell is checkpointed "
              f"({gi.summary}).")
        print(f"Resume with: repro dse --resume {study_id}")
        return 130
    except GridError as ge:
        print(f"\n{ge}")
        for label, err in sorted(ge.failures.items()):
            print(f"  {label}: {err}")
        print(f"Completed cells are checkpointed; the same command "
              f"retries only the rest.")
        return 1
    finally:
        if tdir is not None:
            from repro import telemetry as tele
            tele.deactivate()
    print(render_frontier(result))
    print()
    print(f"  cells: {result.cells_simulated} simulated, "
          f"{result.cells_cached} cached/deduped, "
          f"{result.resumed_rungs} rung(s) replayed from the ledger")
    print(f"  full enumeration of the space would be "
          f"{result.full_enumeration_cells} cells")
    print(f"  study ledger: runs/{result.study_id}.dse.json "
          f"(resume with --resume {result.study_id})")
    if args.csv:
        Path(args.csv).write_text(frontier_csv(result.points),
                                  encoding="utf-8")
        print(f"  CSV: {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
