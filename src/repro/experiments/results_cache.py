"""Content-addressed on-disk cache for simulation results.

A cached entry is the lossless JSON payload of one ``SystemStats`` (or a
multi-core result), keyed by everything that determines it:

* the **trace fingerprint** — for disk-cached workload traces this is
  the ``(name, tier, length, format-version)`` spec, which is enough
  because trace generation is deterministic; for in-memory traces
  (synthetic suites, derived no-dep copies) it is a content hash of the
  access records;
* the **variant** name plus any variant extras (e.g. expert regions);
* the **config digest** (:meth:`repro.config.SystemConfig.digest`);
* the **code fingerprint** — a hash over the simulator sources, so any
  change to the model automatically invalidates every cached result.

Entries live under ``REPRO_CACHE_DIR`` (default ``.repro_cache/``) in
``results/<first-2-hex>/<key>.json`` (the suffix predates the binary
container).  Writes are atomic (temp file + rename), so concurrent
``run_grid`` workers can share one cache directory safely.  Set the
``REPRO_CACHE_DIR`` environment variable to relocate the whole cache
(traces and results) — see docs/PERFORMANCE.md.

Each entry is a :mod:`repro.store` container of kind :data:`RESULT`
whose metadata block is the canonical payload JSON, so its
``payload_sha`` is :func:`payload_checksum` of the payload and a read
hashes the stored bytes instead of re-serialising them
(docs/TRACES.md).  A file that fails validation is **quarantined** —
moved to ``results/quarantine/<name>.bad`` and counted in ``corrupt``
(absent entries count in ``misses``) — so one flipped bit costs one
recompute instead of poisoning a figure or re-missing forever.  An
intact entry from an *older format version* is not corrupt, just
outdated: it is unlinked and counted in ``stale``, then served as a
miss.  Construction also sweeps stale ``*.tmp.<pid>`` droppings left
by writers that crashed mid-``put``.  See docs/RESILIENCE.md.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from pathlib import Path

from repro import store
from repro.experiments.workloads import TRACE_FORMAT_VERSION, cache_dir

# Sources whose content defines the simulation model.  A change to any
# of these files must invalidate cached results; experiment-layer files
# (figures, CLI, reporting) deliberately do not.
_REPRO_ROOT = Path(__file__).resolve().parents[1]
_FINGERPRINT_SOURCES = ("config.py", "mem", "core", "trace", "graphs",
                        "kernels")

#: v3 moved entries from a checksummed JSON envelope (v1, v2) into the
#: container; v2 payloads gained ``timeline`` (windowed metric series,
#: :mod:`repro.telemetry.probes`).
RESULT = store.Kind(b"REPRORES", 3, "", "result_store")

#: A ``*.tmp.<pid>`` file older than this is presumed orphaned by a
#: crashed writer (live writers hold theirs for milliseconds).
STALE_TMP_AGE_SECONDS = 3600.0

_HEX = frozenset("0123456789abcdef")

_code_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Hash of the simulator sources (memoized per process)."""
    global _code_fingerprint
    if _code_fingerprint is None:
        h = hashlib.sha256()
        files: list[Path] = []
        for entry in _FINGERPRINT_SOURCES:
            p = _REPRO_ROOT / entry
            if p.is_file():
                files.append(p)
            elif p.is_dir():
                files.extend(p.rglob("*.py"))
                # The batch backend's semantics live in C sources
                # (core/batch/kernel.c) — a kernel edit must invalidate
                # cached results exactly like a .py edit does.
                files.extend(p.rglob("*.c"))
        for f in sorted(files):
            h.update(str(f.relative_to(_REPRO_ROOT)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
            h.update(b"\0")
        _code_fingerprint = h.hexdigest()[:16]
    return _code_fingerprint


def workload_fingerprint(name: str, tier: str, length: int) -> str:
    """Fingerprint of a disk-cached workload trace, without loading it.

    Trace generation is deterministic in (name, tier, length) and the
    trace format version, so the spec alone identifies the content —
    this is what makes a warm-cache figure rerun trace-load-free.
    """
    return f"wl:{name}:{tier}:{length}:v{TRACE_FORMAT_VERSION}"


def trace_fingerprint(trace) -> str:
    """Content hash of an in-memory :class:`repro.trace.record.Trace`."""
    acc = trace.accesses
    h = hashlib.sha256()
    h.update(str(acc.dtype).encode())
    h.update(acc.tobytes())
    return f"tr:{trace.name}:{h.hexdigest()[:16]}"


def result_key(trace_fp: str, variant: str, config_digest: str,
               extra: str = "") -> str:
    """Content-addressed key for one simulation result."""
    blob = "|".join((trace_fp, variant, config_digest, code_fingerprint(),
                     extra))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def payload_checksum(payload: dict) -> str:
    """sha256 over the canonical JSON form of a payload."""
    return hashlib.sha256(store.encode_meta(payload)).hexdigest()


class ResultsCache:
    """On-disk result store with hit/miss/corruption accounting.

    Counters: ``hits`` (valid entry served), ``misses`` (entry absent),
    ``corrupt`` (entry present but unreadable — quarantined, served as
    a miss), ``stale`` (intact entry from an older format version —
    unlinked, served as a miss), ``stores`` (entries
    written), ``quarantined`` (files moved to ``quarantine/``),
    ``swept`` (stale temp files removed at construction).
    """

    def __init__(self, root: str | os.PathLike | None = None,
                 sweep_stale: bool = True,
                 stale_tmp_age: float = STALE_TMP_AGE_SECONDS):
        self.root = Path(root) if root is not None \
            else cache_dir() / "results"
        self._root = os.fspath(self.root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.stale = 0
        self.quarantined = 0
        self.swept = 0
        self._write_seq: dict[str, int] = {}
        if sweep_stale:
            self.swept = self.sweep_stale_tmp(stale_tmp_age)

    def _file(self, key: str) -> str:
        """The entry path of ``key``; a string, so that ``get`` and
        ``put`` build no ``Path``."""
        return f"{self._root}/{key[:2]}/{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _files(self) -> tuple[list[str], list[str]]:
        """``(entries, temp files)`` in the two-hex entry directories:
        committed ``<key>.json`` files and the ``<key>.json.tmp.<pid>``
        files of in-flight or crashed writers.  Tolerates a concurrent
        supervisor pruning or ``clear()``-ing directories mid-scan: a
        directory that vanishes between listing and descent is simply
        not there any more — not an error."""
        entries: list[str] = []
        tmps: list[str] = []
        try:
            with os.scandir(self._root) as top:
                dirs = [e.path for e in top
                        if len(e.name) == 2 and set(e.name) <= _HEX]
        except OSError:
            return entries, tmps
        for d in dirs:
            try:
                with os.scandir(d) as it:
                    for e in it:
                        if e.name.endswith(".json"):
                            entries.append(e.path)
                        elif ".json.tmp." in e.name:
                            tmps.append(e.path)
            except OSError:
                pass
        return entries, tmps

    def sweep_stale_tmp(self,
                        max_age: float = STALE_TMP_AGE_SECONDS) -> int:
        """Remove temp files older than ``max_age`` seconds; returns
        the number removed.  Young temp files belong to live writers
        and are left alone."""
        removed = 0
        now = time.time()
        for tmp in self._files()[1]:
            try:
                if now - os.stat(tmp).st_mtime >= max_age:
                    os.unlink(tmp)
                    removed += 1
            except OSError:
                pass        # raced with the writer's own rename/cleanup
        return removed

    def get(self, key: str) -> dict | None:
        """Load a cached payload.

        Returns ``None`` both when the entry is absent (counted in
        ``misses``) and when it is present but fails validation, in
        which case it is unlinked when stale or quarantined and counted
        in ``corrupt`` otherwise.
        """
        path = self._file(key)
        try:
            payload = store.read(RESULT, path)[0]
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, store.ArtifactError) as exc:
            if store.discard(RESULT, Path(path), exc, self.quarantine_dir):
                self.stale += 1
                self.misses += 1
            else:
                self.corrupt += 1
                self.quarantined += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store a payload atomically.  A concurrent supervisor
        ``clear()``-ing the store can rmtree the entry directory between
        the mkdir and the write/rename — transient by construction, so
        the write is retried on a freshly recreated directory."""
        path = self._file(key)
        for attempt in range(5):
            try:
                # Inside the retry: recursive mkdir itself raises
                # FileNotFoundError when a concurrent rmtree removes
                # the just-created ancestor mid-recursion.
                os.makedirs(f"{self._root}/{key[:2]}", exist_ok=True)
                store.write(RESULT, path, payload)
                break
            except FileNotFoundError:
                if attempt == 4:
                    raise
        self.stores += 1
        store.fault_hook(path, key, self._write_seq)

    def clear(self) -> int:
        """Delete the whole store — committed entries, stray temp files
        and the quarantine; returns committed entries + temp files
        removed.  Safe against a concurrent supervisor clearing or
        writing the same root: files that vanish mid-walk are treated
        as already gone (``ignore_errors``), never as an exception."""
        removed = 0
        if self.root.is_dir():
            removed = sum(map(len, self._files()))
            shutil.rmtree(self.root, ignore_errors=True)
        return removed

    def __len__(self) -> int:
        """Files the store currently owns: committed entries plus stray
        temp files (quarantined files are not counted — they are dead)."""
        return sum(map(len, self._files()))
