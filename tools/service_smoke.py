#!/usr/bin/env python
"""CI smoke for the simulation service (make check-service).

The full acceptance scenario, with real processes:

1. start `repro serve` with ``crash`` + ``lease_loss`` +
   ``orchestrator_crash`` faults armed (hard crashes: the orchestrator
   process really dies);
2. submit the quick fig7 sweep over the HTTP API;
3. the orchestrator kills itself after the first journaled completion
   (exit code 173) — restart it and let generation 2 resume the job
   from the journal/manifests/cache and run it to completion;
4. drain generation 2 with SIGTERM (must exit 0);
5. assert, from the service event log, that no cell was executed more
   than its bounded retry budget;
6. assert the results are byte-identical to a fault-free CLI
   ``repro fig7`` run: a warm rerun against the service's cache must
   print exactly the clean run's report.

Run from the repo root: ``PYTHONPATH=src python tools/service_smoke.py``
(options: ``--length``, ``--workers``, ``--keep``).
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faults import CRASH_EXIT_CODE                  # noqa: E402
from repro.service import JobRequest, ServiceClient       # noqa: E402
from repro.service.queue import Journal                   # noqa: E402
from repro.telemetry import events as tele_events         # noqa: E402

FAULTS = ("seed=11,crash:0.5:1,lease_loss:0.3:1,"
          "orchestrator_crash:1.0:1")
RETRIES = 2
FIG = ("fig7", "--quick", "--tier", "tiny")


def log(msg: str) -> None:
    print(f"[service-smoke] {msg}", flush=True)


def fail(msg: str) -> "NoReturn":        # noqa: F821
    print(f"[service-smoke] FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def start_serve(work: Path, env: dict, tag: str, faulty: bool,
                workers: int) -> tuple[subprocess.Popen, str]:
    """Launch `repro serve` on an ephemeral port; return (proc, url)."""
    out = work / f"serve-{tag}.log"
    serve_env = dict(env)
    if faulty:
        serve_env["REPRO_FAULTS"] = FAULTS
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(workers), "--lease-ttl", "10",
         "--retries", str(RETRIES),
         "--telemetry", str(work / "telemetry")],
        env=serve_env, stdout=open(out, "w"), stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        text = out.read_text() if out.exists() else ""
        m = re.search(r"listening on (http://[0-9.]+:[0-9]+)", text)
        if m:
            log(f"serve[{tag}] pid {proc.pid} at {m.group(1)}")
            return proc, m.group(1)
        if proc.poll() is not None:
            fail(f"serve[{tag}] died at startup:\n{text}")
        time.sleep(0.2)
    fail(f"serve[{tag}] never announced its port")


def run_fig(env: dict, length: int, extra=()) -> str:
    """One CLI fig7 run; returns the report (progress lines stripped)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *FIG,
         "--length", str(length), "--jobs", "2", *extra],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(f"CLI {' '.join(FIG)} failed:\n{proc.stdout}"
             f"\n{proc.stderr}")
    return "".join(line for line in proc.stdout.splitlines(True)
                   if not line.startswith("  ["))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=20_000)
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--keep", action="store_true",
                    help="keep the work dir for inspection")
    args = ap.parse_args()

    work = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    cache = work / "cache"
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_FAULTS",)}
    env["REPRO_CACHE_DIR"] = str(cache)
    env["PYTHONPATH"] = str(Path("src").resolve())
    request = JobRequest(workloads="quick", tier="tiny",
                         length=args.length)

    # 1-2: faulty serve, submit over HTTP.
    proc1, url1 = start_serve(work, env, "gen1", faulty=True,
                              workers=args.workers)
    client = ServiceClient(url1, timeout=30.0)
    resp = client.submit(request, max_retries=3)
    log(f"submitted {resp.job_id}: {resp.cells} unique cells")

    # 3: the armed orchestrator_crash must really kill the process.
    rc = proc1.wait(timeout=600)
    if rc != CRASH_EXIT_CODE:
        fail(f"gen1 exit code {rc}, expected injected crash "
             f"{CRASH_EXIT_CODE}")
    log(f"gen1 crashed as planned (exit {rc}); restarting")

    proc2, url2 = start_serve(work, env, "gen2", faulty=True,
                              workers=args.workers)
    client = ServiceClient(url2, timeout=30.0)
    health = client.health()
    if health["generation"] != 2:
        fail(f"expected generation 2 after restart, got {health}")
    status = client.wait(resp.job_id, timeout=1800.0, poll=1.0)
    if status.state != "complete":
        fail(f"job {resp.job_id} ended {status.state!r}: "
             f"{status.error}")
    p = status.progress
    log(f"job complete after restart: {p.done}/{p.total} done, "
        f"{p.cached} recovered from cache")
    if p.cached < 1:
        fail("restart re-simulated everything: recovery found no "
             "cached cells")

    # 4: graceful drain.
    proc2.send_signal(signal.SIGTERM)
    rc = proc2.wait(timeout=120)
    if rc != 0:
        fail(f"gen2 drain exited {rc}, expected 0")
    log("gen2 drained cleanly (exit 0)")
    generations = Journal(cache / "service" / "journal.jsonl"
                          ).generation()
    if generations != 2:
        fail(f"journal records {generations} generations, expected 2")

    # 5: bounded per-cell work, from the merged service event log.
    events = tele_events.read_events(
        tele_events.events_path(work / "telemetry", "service"))
    execs: dict[str, int] = {}
    for record in events:
        if record["event"] == "cell_exec_started":
            execs[record["key"]] = execs.get(record["key"], 0) + 1
    if not execs:
        fail("no cell_exec_started events in the service log")
    worst = max(execs.values())
    if worst > 1 + RETRIES:
        fail(f"a cell was executed {worst} times, budget is "
             f"{1 + RETRIES}")
    log(f"retry budget held: {len(execs)} executed cells, worst "
        f"{worst}/{1 + RETRIES} attempts, "
        f"{sum(execs.values())} executions total")

    # 6: byte-identity with the fault-free CLI run.
    solo_env = dict(env, REPRO_CACHE_DIR=str(work / "solo-cache"))
    clean = run_fig(solo_env, args.length, extra=("--no-cache",))
    warm = run_fig(env, args.length)
    if clean != warm:
        (work / "clean.txt").write_text(clean)
        (work / "warm.txt").write_text(warm)
        fail(f"service results are NOT byte-identical to the clean "
             f"CLI run (see {work}/clean.txt vs warm.txt)")
    log("byte-identity: warm CLI rerun over the service cache "
        "matches the fault-free run exactly")

    if not args.keep:
        import shutil
        shutil.rmtree(work, ignore_errors=True)
    log("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
