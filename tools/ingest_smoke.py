#!/usr/bin/env python
"""CI smoke for the streaming graph-ingestion path (make check-ingest).

The acceptance scenario, end to end with real subprocesses:

1. generate a small gzipped edge list (dupes, self-loops, a gap in the
   vertex ids) and ``repro ingest`` it into a fresh cache;
2. assert the mapped store round-trips byte-identical to an in-memory
   ``from_edges`` build over the same rows (every CSR/CSC array), also
   when re-ingested at ``--chunk-edges 4096`` (many vertex ranges, not
   one) and for a weighted, directed ``.wel`` copy of the rows at that
   chunk size (weights and the CSC too);
3. run one simulation cell per post-paper workload family
   (``rw``/``gs``/``dyn``) over the *ingested* graph and diff the
   printed stats against the same cells run from the in-memory build —
   mapped and in-memory inputs must be indistinguishable downstream;
4. corrupt the store file in place and assert the next load
   quarantines it and rebuilds from the recorded source exactly once;
5. ingest an edge list whose largest vertex id is past
   ``--num-vertices`` and assert the command exits 1 naming that id.

Run from the repo root: ``PYTHONPATH=src python tools/ingest_smoke.py``
(options: ``--edges``, ``--keep``).
"""

from __future__ import annotations

import argparse
import gzip
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
FAMILIES = ("rw", "gs", "dyn")


def log(msg: str) -> None:
    print(f"[ingest-smoke] {msg}", flush=True)


def fail(msg: str) -> None:
    print(f"[ingest-smoke] FAIL: {msg}", file=sys.stderr, flush=True)
    sys.exit(1)


def run(cmd: list[str], cache: Path,
        expect: int = 0) -> subprocess.CompletedProcess:
    env = dict(os.environ,
               PYTHONPATH=f"src{os.pathsep}" + os.environ.get(
                   "PYTHONPATH", ""),
               REPRO_CACHE_DIR=str(cache))
    proc = subprocess.run(cmd, cwd=REPO, env=env, text=True,
                          capture_output=True)
    if proc.returncode != expect:
        fail(f"{' '.join(cmd)} exited {proc.returncode}, not {expect}:\n"
             f"{proc.stdout}\n{proc.stderr}")
    return proc


def same_bytes(name, mapped, ref) -> None:
    """Fail unless every CSR/CSC array of ``mapped`` (and the weights,
    when ``ref`` has them) has the bytes of ``ref``'s."""
    fields = ["out_oa", "out_na", "in_oa", "in_na"]
    if ref.out_weights is not None:
        fields += ["out_weights", "in_weights"]
    for f in fields:
        got = np.asarray(getattr(mapped, f))
        if got.tobytes() != np.asarray(getattr(ref, f)).tobytes():
            fail(f"{name}: mapped {f} differs from in-memory from_edges")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--edges", type=int, default=60_000)
    ap.add_argument("--keep", action="store_true",
                    help="keep the scratch directory")
    args = ap.parse_args()

    work = Path(tempfile.mkdtemp(prefix="ingest-smoke-"))
    cache = work / "cache"
    try:
        rng = np.random.default_rng(17)
        n_hint = max(args.edges // 16, 64)
        edges = rng.integers(0, n_hint, size=(args.edges, 2),
                             dtype=np.int64)
        edges[::251, 1] = edges[::251, 0]          # self-loops
        edges[1] = edges[2]                        # duplicate edge
        edges[0] = (0, n_hint + 7)                 # id gap + pure sink
        el = work / "smoke.el.gz"
        with gzip.open(el, "wt") as fh:
            fh.write("# ingest-smoke graph\n\n")
            for a, b in edges:
                fh.write(f"{a} {b}\n")
        log(f"wrote {args.edges:,} edges to {el.name}")

        out = run([sys.executable, "-m", "repro", "ingest", str(el),
                   "--name", "smoke", "--symmetrize"], cache).stdout
        log(out.strip().splitlines()[0])

        # 2. mapped store == in-memory from_edges, byte for byte.
        sys.path.insert(0, str(REPO / "src"))
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        from repro.graphs import ingest
        from repro.graphs.csr import from_edges
        mapped = ingest.load_ingested("smoke")
        ref = from_edges(edges, symmetrize=True, name="smoke")
        same_bytes("smoke", mapped, ref)
        log("mapped CSR byte-identical to in-memory from_edges")

        # The multi-range path: the same rows at --chunk-edges 4096, and
        # a weighted copy of them (the duplicate rows carry different
        # weights, so the first one must win) built directed.
        weights = rng.integers(1, 1 << 20, size=args.edges)
        wel = work / "smoke.wel"
        with wel.open("w") as fh:
            for (a, b), c in zip(edges.tolist(), weights.tolist()):
                fh.write(f"{a} {b} {c}\n")
        for src, name, w, sym in ((el, "smoke4k", None, True),
                                  (wel, "smoke4kw", weights, False)):
            run([sys.executable, "-m", "repro", "ingest", str(src),
                 "--name", name, "--chunk-edges", "4096"]
                + ["--symmetrize"] * sym, cache)
            same_bytes(name, ingest.load_ingested(name),
                       from_edges(edges, weights=w, symmetrize=sym))
        log("--chunk-edges 4096 and a weighted directed copy are "
            "byte-identical to from_edges")

        # 3. one cell per family over the ingested graph: the mapped
        # and in-memory graphs must produce identical stats output.
        from repro.experiments.runner import default_config, run_variant
        from repro.trace.kernels import generate_trace
        for fam in FAMILIES:
            out_cli = run([sys.executable, "-m", "repro", "run",
                           f"{fam}.smoke", "--variant", "sdc_lp",
                           "--length", "20000"], cache).stdout
            t_mem = generate_trace(fam, ref, max_accesses=20000)
            t_map = generate_trace(fam, mapped, max_accesses=20000)
            if t_mem.accesses.tobytes() != t_map.accesses.tobytes():
                fail(f"{fam}: mapped vs in-memory traces differ")
            s1 = run_variant(t_map, "sdc_lp", default_config())
            s2 = run_variant(t_mem, "sdc_lp", default_config())
            if (s1.cycles, s1.instructions) != (s2.cycles,
                                                s2.instructions):
                fail(f"{fam}: mapped vs in-memory stats differ")
            head = out_cli.strip().splitlines()[0]
            log(f"{fam}.smoke OK — {head}")

        # 4. corrupt the store; next load must quarantine + rebuild.
        store_file = ingest.store_path("smoke")
        data = bytearray(store_file.read_bytes())
        mid = len(data) // 2
        data[mid:mid + 9] = b"\x00CORRUPT\x00"
        store_file.write_bytes(bytes(data))
        before = ingest.COUNTERS["rebuilt"].value
        rebuilt = ingest.load_ingested("smoke")
        if ingest.COUNTERS["rebuilt"].value != before + 1:
            fail("corrupt store was not rebuilt exactly once")
        if np.asarray(rebuilt.out_na).tobytes() != \
                np.asarray(ref.out_na).tobytes():
            fail("rebuilt store differs from reference build")
        qdir = cache / "results" / "quarantine"
        if not any(qdir.glob("*.bad")):
            fail("corrupt store file was not quarantined")
        log("corrupt store quarantined and rebuilt from source")

        # 5. an id past --num-vertices is refused, never remapped.
        bad = work / "bad.el"
        bad.write_text("0 1\n1 9\n2 3\n")
        err = run([sys.executable, "-m", "repro", "ingest", str(bad),
                   "--num-vertices", "5"], cache, expect=1).stderr
        want = "ingest failed: vertex id 9 is outside [0, 5)"
        if want not in err:
            fail(f"out-of-range id: expected {want!r}, got {err!r}")
        log("vertex id past --num-vertices refused with exit 1")

        log("OK: ingest pipeline, family cells, quarantine recovery "
            "and the vertex-range check all verified")
    finally:
        if args.keep:
            log(f"scratch kept at {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
