#!/usr/bin/env python
"""CI smoke for the DSE subsystem (make check-dse).

The acceptance scenario, with real processes and a real SIGINT:

1. run a clean quick study (>= 32 candidates, 2 halving rungs) to
   completion against cache A, exporting the frontier CSV;
2. launch the identical study against cache B and SIGINT it after the
   first few simulated cells — the process must exit 130 and print a
   resume hint;
3. rerun the same command (the deterministic study id lands on the
   same ledger, so the plain rerun *is* the resume) and let it finish;
4. assert the interrupted+resumed frontier CSV is byte-identical to
   the clean run's, and that no cell was simulated twice across the
   interrupt boundary;
5. assert the search simulated strictly fewer cells than a full
   enumeration of the declared space would;
6. every study runs with ``--backend batch --telemetry``: assert that
   each ``cell_exec_finished`` event of the clean and the resumed study
   reports ``engine: batch`` (no cell fell back to the reference loop)
   and that the event logs pass the telemetry schema.

Run from the repo root: ``PYTHONPATH=src python tools/dse_smoke.py``
(options: ``--candidates``, ``--length``, ``--keep``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.telemetry.schema import validate_events_file  # noqa: E402

# One progress line per finished cell; simulated cells carry no
# "[cache]"/"[dedup]" source note.
PROGRESS_RE = re.compile(r"^  \[\d+/\d+\] ")
SIMULATED_RE = re.compile(r"^  \[\d+/\d+\] (?!.*\[(cache|dedup)\])")
CELLS_RE = re.compile(r"cells: (\d+) simulated")
ENUM_RE = re.compile(r"full enumeration of the space would be (\d+) cells")


def log(msg: str) -> None:
    print(f"[dse-smoke] {msg}", flush=True)


def fail(msg: str) -> None:
    print(f"[dse-smoke] FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def dse_cmd(csv: Path, candidates: int, length: int) -> list[str]:
    return [sys.executable, "-m", "repro", "dse", "--seed", "5",
            "--candidates", str(candidates), "--rungs", "2",
            "--tier", "tiny", "--length", str(length),
            "--workloads", "pr.urand", "cc.urand",
            "--backend", "batch", "--telemetry", str(csv.parent / (
                csv.stem + "-telemetry")),
            "--progress", "--csv", str(csv)]


def run_env(cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache)
    return env


def check_engines(csv: Path, label: str) -> None:
    """Every cell the study's grids executed ran on the batch kernel."""
    tdir = csv.parent / (csv.stem + "-telemetry")
    logs = sorted(tdir.glob("events-*.jsonl"))
    engines: Counter = Counter()
    for path in logs:
        errors = validate_events_file(path)
        if errors:
            fail(f"{label}: event log {path.name} fails the schema: "
                 f"{errors[:3]}")
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if rec["event"] == "cell_exec_finished" and rec["ok"]:
                engines[rec.get("engine")] += 1
                if rec.get("engine") != "batch":
                    fail(f"{label}: cell {rec['key'][:12]} ran on engine "
                         f"{rec.get('engine')!r} "
                         f"(fallback: {rec.get('fallback')!r})")
    if not engines["batch"]:
        fail(f"{label}: no cell_exec_finished events under {tdir}")
    log(f"{label}: all {engines['batch']} executed cells ran on the "
        f"batch kernel ({len(logs)} event logs, schema OK)")


def count_simulated(output: str) -> int:
    return sum(1 for line in output.splitlines()
               if SIMULATED_RE.match(line))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--candidates", type=int, default=32)
    ap.add_argument("--length", type=int, default=2_500)
    ap.add_argument("--keep", action="store_true",
                    help="keep the work dir for inspection")
    args = ap.parse_args()
    if args.candidates < 32:
        fail("the smoke contract requires >= 32 candidates")

    work = Path(tempfile.mkdtemp(prefix="dse-smoke-"))
    try:
        smoke(work, args.candidates, args.length)
    finally:
        if args.keep:
            log(f"work dir kept at {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


def smoke(work: Path, candidates: int, length: int) -> None:
    csv_a = work / "a.csv"
    csv_b = work / "b.csv"

    log(f"clean study: {candidates} candidates, 2 rungs, cache A")
    clean = subprocess.run(dse_cmd(csv_a, candidates, length),
                           env=run_env(work / "cache-a"), cwd=REPO,
                           capture_output=True, text=True)
    if clean.returncode != 0:
        fail(f"clean run exited {clean.returncode}:\n{clean.stderr}")
    m = CELLS_RE.search(clean.stdout)
    if not m:
        fail("clean run printed no simulated-cell count")
    clean_cells = int(m.group(1))
    enum = ENUM_RE.search(clean.stdout)
    if not enum:
        fail("clean run printed no full-enumeration count")
    if clean_cells * 2 >= int(enum.group(1)):
        fail(f"search simulated {clean_cells} cells, not < 50% of the "
             f"{enum.group(1)}-cell full enumeration")
    log(f"clean study done: {clean_cells} cells simulated "
        f"(full enumeration {enum.group(1)})")
    check_engines(csv_a, "clean study")

    log("interrupting the same study against cache B with SIGINT")
    proc = subprocess.Popen(dse_cmd(csv_b, candidates, length),
                            env=run_env(work / "cache-b"), cwd=REPO,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    seen: list[str] = []
    assert proc.stdout is not None
    for line in proc.stdout:
        seen.append(line)
        if sum(1 for l in seen if PROGRESS_RE.match(l)) >= 3:
            proc.send_signal(signal.SIGINT)
            break
    seen.extend(proc.stdout)                  # drain to EOF
    rc = proc.wait(timeout=120)
    out = "".join(seen)
    if rc != 130:
        fail(f"interrupted run exited {rc}, expected 130:\n{out}")
    if "Resume with: repro dse --resume" not in out:
        fail(f"interrupted run printed no resume hint:\n{out}")
    interrupted_cells = count_simulated(out)
    log(f"interrupted after {interrupted_cells} simulated cells "
        f"(exit 130, resume hint printed)")

    log("resuming (same command, same ledger)")
    resumed = subprocess.run(dse_cmd(csv_b, candidates, length),
                             env=run_env(work / "cache-b"), cwd=REPO,
                             capture_output=True, text=True)
    if resumed.returncode != 0:
        fail(f"resume exited {resumed.returncode}:\n{resumed.stderr}")
    m = CELLS_RE.search(resumed.stdout)
    if not m:
        fail("resume printed no simulated-cell count")
    resumed_cells = int(m.group(1))
    if resumed_cells >= clean_cells:
        fail(f"resume re-simulated the study ({resumed_cells} cells, "
             f"clean run needed {clean_cells})")
    if interrupted_cells + resumed_cells > clean_cells:
        fail(f"cells simulated twice across the interrupt: "
             f"{interrupted_cells} + {resumed_cells} > {clean_cells}")
    log(f"resume simulated {resumed_cells} cells "
        f"({interrupted_cells + resumed_cells} total across the "
        f"interrupt, clean run {clean_cells})")
    check_engines(csv_b, "interrupted+resumed study")

    a = csv_a.read_bytes()
    b = csv_b.read_bytes()
    if a != b:
        fail("frontier CSV differs between clean and interrupted+resumed "
             f"runs:\n--- clean ---\n{a.decode()}\n--- resumed ---\n"
             f"{b.decode()}")
    if len(a.decode().splitlines()) < 2:
        fail("frontier CSV is empty")
    log(f"frontier CSV byte-identical across the interrupt "
        f"({len(a.decode().splitlines()) - 1} rows)")
    log("OK")


if __name__ == "__main__":
    main()
