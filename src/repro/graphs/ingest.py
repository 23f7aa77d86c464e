"""Streaming real-graph ingestion: edge lists to memory-mapped CSR.

The synthetic suite (:mod:`repro.graphs.suite`) covers the paper's
grid; this module is ROADMAP item 5 — real SNAP-scale graphs flowing
from a raw edge-list file into the CSR substrate without the edge set
ever materializing in one process's RAM.  Peak ingest memory is
O(vertices + chunk): the per-vertex offset/degree/cursor arrays plus
one bounded parse chunk; all O(edges) data lives in ``np.memmap``
scratch files and the final store file.

Input formats (detected from the file name; ``.gz`` composes)::

    suffix        columns        notes
    ------------  -------------  ----------------------------------
    .el[.gz]      src dst        GAP plain edge list
    .wel[.gz]     src dst w      GAP weighted edge list
    .txt[.gz]     src dst        SNAP dump (# comment lines ignored)

Rows with the wrong column count are an error, never silently
truncated (a ``.el`` row with three fields raises, matching
:func:`repro.graphs.io.load_edgelist`).

**Pipeline** (``ingest_graph``):

1. *Count pass* — stream the file in bounded chunks; find the vertex
   count and raw out-degrees.
2. *Scatter pass* — re-stream, counting-sort each edge's destination
   (and weight) into an on-disk ``np.memmap`` neighbours array.  Input
   order is preserved inside every vertex segment; with
   ``symmetrize`` the file is streamed twice (forward edges, then
   reverse), reproducing :func:`repro.graphs.csr.from_edges`'s
   concatenation order exactly.
3. *Compact pass* — per vertex range: drop self-loops, stable-sort by
   ``(src, dst)`` and keep the first occurrence of each duplicate
   (GAP's cleanup, byte-identical to ``from_edges``'s one stable sort
   of the packed ``src * n + dst`` keys).
4. *CSC pass* — stream the finished out-CSR to build the in-adjacency
   (skipped for symmetrized graphs, which share arrays).
5. *Store write* — stream the sections into one store file atomically.

**Store format** (v1): a :mod:`repro.store` container of kind
:data:`GRAPH` (docs/TRACES.md)::

    offset  size  field
    ------  ----  --------------------------------------------------
    0       8     magic                 b"REPROGRF"
    8       4     version               u32, == STORE_VERSION (1)
    12      4     header_size           u32, == 112
    16      8     meta_len              u64, metadata block length
    24      8     num_vertices          u64
    32      8     num_edges             u64, directed arcs in the CSR
    40      4     flags                 u32, bit0 symmetric, bit1 weighted
    44      4     reserved              u32, zero
    48      32    payload_sha           sha256(meta ‖ array sections)
    80      32    header_sha            sha256(header bytes [0:80])
    112     ...   metadata block        UTF-8 JSON (name, source, ...)
    ...     ...   out_oa  (n+1) × i64
    ...     ...   out_na  e × i32
    ...     ...   out_w   e × i32       (weighted only)
    ...     ...   in_oa / in_na / in_w  (directed graphs only)

:func:`open_graph` hands out read-only ``np.memmap`` views of a
validated file, so all ``run_grid`` workers share one page-cache copy
of each graph exactly like traces.  A file that fails validation is
discarded (stale files deleted, corrupt ones quarantined to
``results/quarantine/``) and rebuilt from its recorded source file
exactly once (:func:`load_ingested`).  Armed ``corrupt``/``truncate``
fault plans damage the first write of a store file (site
``graph:<filename>``), exercising that path in CI.

See docs/WORKLOADS.md for the end-to-end walkthrough.
"""

from __future__ import annotations

import gzip
import itertools
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import store as artifact
from repro.graphs.csr import (CSRGraph, OFFSET_DTYPE, VERTEX_DTYPE,
                              WEIGHT_DTYPE, check_vertex_ids)

STORE_VERSION = 1

MAGIC = b"REPROGRF"

FLAG_SYMMETRIC = 1
FLAG_WEIGHTED = 2

#: Edges parsed (and bytes copied) per streaming chunk.  The bound on
#: ingest RAM is a few arrays of this length, never the whole file.
DEFAULT_CHUNK_EDGES = 1 << 20

#: Extensions the parser understands (´.gz´ composes with each).
_FORMATS = {".el": False, ".wel": True, ".txt": False}


class GraphStoreError(artifact.ArtifactError):
    """A graph-store file failed validation (corrupt, truncated, or
    wrong version).  The file is *not* trusted; callers should
    discard it and rebuild from the source edge list."""


def _sections(n: int, e: int, flags: int, _reserved: int) -> list:
    """``(dtype, length)`` of every array section, in file order."""
    csr = [(OFFSET_DTYPE, n + 1), (VERTEX_DTYPE, e)]
    if flags & FLAG_WEIGHTED:
        csr.append((WEIGHT_DTYPE, e))
    return csr if flags & FLAG_SYMMETRIC else csr + csr


#: num_vertices, num_edges, flags, reserved.
GRAPH = artifact.Kind(MAGIC, STORE_VERSION, "QQII", "graph_store",
                      _sections, GraphStoreError, ("ingests", "rebuilt"))
COUNTERS = GRAPH.counters
counters_snapshot = GRAPH.counters_snapshot
reset_counters = GRAPH.reset_counters


def graphs_dir() -> Path:
    """``$REPRO_CACHE_DIR/graphs/`` — where ingested stores live."""
    from repro.experiments.workloads import cache_dir
    d = cache_dir() / "graphs"
    d.mkdir(parents=True, exist_ok=True)
    return d


def store_path(name: str) -> Path:
    return graphs_dir() / f"{name}.v{STORE_VERSION}.graph"


def has_ingested(name: str) -> bool:
    """Whether an ingested store exists for ``name`` (no validation)."""
    return store_path(name).exists()


def list_ingested() -> list[str]:
    """Names of every ingested graph in the store directory."""
    suffix = f".v{STORE_VERSION}.graph"
    return sorted(p.name[:-len(suffix)]
                  for p in graphs_dir().glob(f"*{suffix}"))


# -- streaming parser -------------------------------------------------------

def edge_list_format(path: str | os.PathLike) -> tuple[str, bool]:
    """``(format, gzipped)`` from the file name's suffixes.

    ``format`` is ``"el"``/``"wel"``/``"txt"``; unknown extensions
    raise ``ValueError``.

    >>> edge_list_format("web.el")
    ('el', False)
    >>> edge_list_format("snap-dump.txt.gz")
    ('txt', True)
    """
    suffixes = [s.lower() for s in Path(path).suffixes]
    gz = bool(suffixes) and suffixes[-1] == ".gz"
    core = suffixes[-2] if gz and len(suffixes) >= 2 else (
        suffixes[-1] if suffixes else "")
    if core not in _FORMATS:
        raise ValueError(
            f"{Path(path).name}: unsupported edge-list extension "
            f"(expected one of {sorted(_FORMATS)}, optionally .gz)")
    return core[1:], gz


def graph_name_from_path(path: str | os.PathLike) -> str:
    """Default store name: the file name minus its format suffixes.

    >>> graph_name_from_path("/data/com-orkut.txt.gz")
    'com-orkut'
    """
    name = Path(path).name
    fmt, gz = edge_list_format(name)
    if gz:
        name = name[:-len(".gz")]
    return name[:-(len(fmt) + 1)]


def _open_text(path: Path, gz: bool):
    if gz:
        return gzip.open(path, "rt", encoding="utf-8", errors="strict")
    return open(path, "rt", encoding="utf-8", errors="strict")


def iter_edge_chunks(path: str | os.PathLike,
                     chunk_edges: int = DEFAULT_CHUNK_EDGES):
    """Yield ``(src, dst, weights)`` int64 arrays in bounded chunks.

    ``weights`` is ``None`` for unweighted formats.  ``#`` comments and
    blank lines are skipped (by ``np.loadtxt`` itself, which also drops
    inline comments); a row whose column count does not match
    the format raises ``ValueError`` (never silently dropped columns).
    A truncated ``.gz`` file surfaces as the underlying
    ``EOFError``/``gzip.BadGzipFile`` mid-stream.
    """
    path = Path(path)
    fmt, gz = edge_list_format(path)
    weighted = _FORMATS[f".{fmt}"]
    cols = 3 if weighted else 2
    with _open_text(path, gz) as fh:
        while True:
            lines = list(itertools.islice(fh, chunk_edges))
            if not lines:
                break
            try:
                with warnings.catch_warnings():
                    # A chunk of only comments and blank lines is empty,
                    # not suspicious.
                    warnings.filterwarnings(
                        "ignore", "loadtxt: input contained no data",
                        UserWarning)
                    data = np.loadtxt(lines, dtype=np.int64, ndmin=2)
            except ValueError as exc:     # ragged rows inside a chunk
                raise ValueError(
                    f"{path.name}: expected {cols} columns "
                    f"({fmt} format): {exc}") from exc
            if data.size == 0:
                continue
            if data.shape[1] != cols:
                raise ValueError(
                    f"{path.name}: expected {cols} columns "
                    f"({fmt} format), got {data.shape[1]}")
            if data[:, :2].min() < 0:
                raise ValueError(f"{path.name}: negative vertex id")
            yield data[:, 0], data[:, 1], (data[:, 2] if weighted
                                           else None)


# -- out-of-core CSR build --------------------------------------------------

@dataclass(frozen=True)
class IngestReport:
    """Summary of one :func:`ingest_graph` run."""

    name: str
    path: Path
    num_vertices: int
    num_edges: int
    raw_edges: int            # parsed rows (× 2 when symmetrized)
    symmetric: bool
    weighted: bool

    @property
    def file_bytes(self) -> int:
        return self.path.stat().st_size


def _scatter_chunk(cursor: np.ndarray, src: np.ndarray,
                   dst: np.ndarray, w: np.ndarray | None,
                   na: np.ndarray, wa: np.ndarray | None) -> None:
    """Counting-sort one chunk into the raw NA memmap.

    The stable per-``src`` ordering (argsort ``kind="stable"`` plus the
    carried ``cursor``) preserves global input order within every
    vertex segment — required for first-occurrence dedup semantics.
    """
    order = np.argsort(src, kind="stable")
    s = src[order]
    uniq, start, counts = np.unique(s, return_index=True,
                                    return_counts=True)
    within = np.arange(len(s), dtype=np.int64) - np.repeat(start, counts)
    pos = cursor[s] + within
    na[pos] = dst[order].astype(VERTEX_DTYPE)
    if wa is not None:
        wa[pos] = w[order].astype(WEIGHT_DTYPE)
    cursor[uniq] += counts


def _vertex_ranges(oa: np.ndarray, chunk_edges: int):
    """Split vertices into ranges of at most ~``chunk_edges`` edges."""
    n = len(oa) - 1
    v0 = 0
    while v0 < n:
        v1 = int(np.searchsorted(oa, oa[v0] + max(chunk_edges, 1),
                                 side="right")) - 1
        v1 = max(v1, v0 + 1)
        v1 = min(v1, n)
        yield v0, v1
        v0 = v1


def _append_raw(fh, arr: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(arr).tobytes())


def ingest_graph(path: str | os.PathLike, name: str | None = None,
                 symmetrize: bool = False,
                 num_vertices: int | None = None,
                 chunk_edges: int = DEFAULT_CHUNK_EDGES,
                 force: bool = False) -> IngestReport:
    """Stream an edge-list file into the on-disk graph store.

    Returns an :class:`IngestReport`; the store file lands at
    ``store_path(name)``.  An existing store for the same name is kept
    unless ``force``.  The resulting CSR/CSC arrays are byte-identical
    to an in-memory ``from_edges(edges, num_vertices, weights,
    symmetrize)`` build over the same rows — the equivalence the
    ``ingest-smoke`` CI leg pins.
    """
    path = Path(path)
    fmt, _ = edge_list_format(path)
    weighted = _FORMATS[f".{fmt}"]
    if name is None:
        name = graph_name_from_path(path)
    dest = store_path(name)
    if dest.exists() and not force:
        head = read_header(dest)
        return IngestReport(name, dest, head["num_vertices"],
                            head["num_edges"], -1,
                            bool(head["flags"] & FLAG_SYMMETRIC),
                            bool(head["flags"] & FLAG_WEIGHTED))

    directions = 2 if symmetrize else 1

    # Pass 1: vertex count and raw out-degrees.  `observed_n` matches
    # from_edges: max vertex id + 1, either endpoint counting.
    deg = np.zeros(1024, dtype=np.int64)
    raw_rows = 0
    observed_n = 0
    for src, dst, _w in iter_edge_chunks(path, chunk_edges):
        hi = int(max(src.max(), dst.max())) + 1
        observed_n = max(observed_n, hi)
        if hi > len(deg):
            deg = np.concatenate([deg, np.zeros(
                max(hi, 2 * len(deg)) - len(deg), dtype=np.int64)])
        deg[:hi] += np.bincount(src, minlength=hi)[:hi]
        if symmetrize:
            deg[:hi] += np.bincount(dst, minlength=hi)[:hi]
        raw_rows += len(src)
    n = num_vertices if num_vertices is not None else observed_n
    check_vertex_ids(0, observed_n - 1, n)
    deg = deg[:n] if len(deg) >= n else np.concatenate(
        [deg, np.zeros(n - len(deg), dtype=np.int64)])
    raw_m = int(deg.sum())

    scratch = Path(tempfile.mkdtemp(dir=graphs_dir(),
                                    prefix=f".{name}.build."))
    try:
        report = _build_and_write(
            path, dest, scratch, name, n, deg, raw_m, raw_rows,
            symmetrize, weighted, num_vertices, chunk_edges)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    COUNTERS["ingests"].inc()
    artifact.fault_hook(dest, f"graph:{dest.name}", _store_write_seq)
    return report


#: Per-process count of store writes per path, feeding the fault
#: injector's ``write_seq`` (see :func:`repro.store.fault_hook`).
_store_write_seq: dict[str, int] = {}


def _build_and_write(path, dest, scratch, name, n, deg, raw_m, raw_rows,
                     symmetrize, weighted, num_vertices,
                     chunk_edges) -> IngestReport:
    # Pass 2: counting-sort scatter into raw NA/weight memmaps.
    raw_na = _scratch_memmap(scratch / "raw_na.bin", VERTEX_DTYPE, raw_m)
    raw_w = (_scratch_memmap(scratch / "raw_w.bin", WEIGHT_DTYPE, raw_m)
             if weighted else None)
    raw_oa = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=raw_oa[1:])
    cursor = raw_oa[:-1].copy()
    passes = ("fwd", "rev") if symmetrize else ("fwd",)
    for direction in passes:
        for src, dst, w in iter_edge_chunks(path, chunk_edges):
            if direction == "rev":
                src, dst = dst, src
            _scatter_chunk(cursor, src, dst, w, raw_na, raw_w)

    # Pass 3: self-loop drop + first-occurrence dedup + (src, dst) sort.
    final_deg = np.zeros(n, dtype=np.int64)
    out_na_path = scratch / "out_na.bin"
    out_w_path = scratch / "out_w.bin"
    with open(out_na_path, "wb") as na_fh, \
            open(out_w_path, "wb") as w_fh:
        for v0, v1 in _vertex_ranges(raw_oa, chunk_edges):
            lo, hi = int(raw_oa[v0]), int(raw_oa[v1])
            dsts = np.asarray(raw_na[lo:hi], dtype=np.int64)
            counts = np.diff(raw_oa[v0:v1 + 1])
            srcs = np.repeat(np.arange(v0, v1, dtype=np.int64), counts)
            ws = (np.asarray(raw_w[lo:hi]) if raw_w is not None
                  else None)
            keep = srcs != dsts
            srcs, dsts = srcs[keep], dsts[keep]
            if ws is not None:
                ws = ws[keep]
            key = srcs * n + dsts
            order = np.argsort(key, kind="stable")
            k = key[order]
            first = np.ones(len(k), dtype=bool)
            first[1:] = k[1:] != k[:-1]
            sel = order[first]
            _append_raw(na_fh, dsts[sel].astype(VERTEX_DTYPE))
            if ws is not None:
                _append_raw(w_fh, ws[sel])
            final_deg[v0:v1] = np.bincount(
                srcs[sel] - v0, minlength=v1 - v0)

    out_oa = np.zeros(n + 1, dtype=OFFSET_DTYPE)
    np.cumsum(final_deg, out=out_oa[1:])
    e = int(out_oa[-1])
    out_na = _scratch_memmap(out_na_path, VERTEX_DTYPE, e, "r")
    out_w = (_scratch_memmap(out_w_path, WEIGHT_DTYPE, e, "r")
             if weighted else None)
    sections = [out_oa, out_na] + ([out_w] if weighted else [])

    # Pass 4: CSC from the finished out-CSR (directed graphs only).
    if not symmetrize:
        in_oa, in_na, in_w = _build_csc(scratch, out_oa, out_na, out_w,
                                        n, e, chunk_edges)
        sections += [in_oa, in_na] + ([in_w] if weighted else [])

    meta = {"name": name, "source": str(path), "num_vertices": n,
            "num_edges": e, "symmetric": symmetrize, "weighted": weighted,
            "requested_vertices": num_vertices}
    flags = (FLAG_SYMMETRIC if symmetrize else 0) | \
        (FLAG_WEIGHTED if weighted else 0)
    artifact.write(GRAPH, dest, meta, (n, e, flags, 0), sections)
    return IngestReport(name, dest, n, e, raw_rows, symmetrize,
                        weighted)


def _scratch_memmap(path: Path, dtype, length: int,
                    mode: str = "w+") -> np.ndarray:
    if length == 0:
        return np.zeros(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode=mode, shape=(length,))


def _build_csc(scratch, out_oa, out_na, out_w, n, e, chunk_edges):
    """Stream the compacted out-CSR into in-adjacency arrays."""
    in_deg = np.zeros(n, dtype=np.int64)
    for v0, v1 in _vertex_ranges(out_oa, chunk_edges):
        lo, hi = int(out_oa[v0]), int(out_oa[v1])
        if hi > lo:
            in_deg += np.bincount(out_na[lo:hi], minlength=n)
    in_oa = np.zeros(n + 1, dtype=OFFSET_DTYPE)
    np.cumsum(in_deg, out=in_oa[1:])
    cursor = in_oa[:-1].copy().astype(np.int64)
    in_na = _scratch_memmap(scratch / "in_na.bin", VERTEX_DTYPE, e)
    in_w = (_scratch_memmap(scratch / "in_w.bin", WEIGHT_DTYPE, e)
            if out_w is not None else None)
    for v0, v1 in _vertex_ranges(out_oa, chunk_edges):
        lo, hi = int(out_oa[v0]), int(out_oa[v1])
        if hi == lo:
            continue
        counts = np.diff(out_oa[v0:v1 + 1])
        srcs = np.repeat(np.arange(v0, v1, dtype=np.int64), counts)
        dsts = np.asarray(out_na[lo:hi], dtype=np.int64)
        w = (np.asarray(out_w[lo:hi]) if in_w is not None else None)
        _scatter_chunk(cursor, dsts, srcs, w, in_na, in_w)
    return in_oa, in_na, in_w


# -- read -------------------------------------------------------------------

def read_header(path: str | os.PathLike) -> dict:
    """Validate and return the header of a graph-store file.

    Raises :class:`GraphStoreError` on any header-level problem,
    including a file-size/section mismatch (truncation).
    """
    meta_len, (n, e, flags, _), payload_sha = artifact.read_header(
        GRAPH, path)
    return {"meta_len": meta_len, "num_vertices": n, "num_edges": e,
            "flags": flags, "payload_sha": payload_sha.hex()}


def open_graph(path: str | os.PathLike, mapped: bool = True) -> CSRGraph:
    """Open a v1 graph-store file as a :class:`CSRGraph`.

    With ``mapped=True`` (the default) every array is a *read-only*
    ``np.memmap`` view — zero copies, one shared page-cache instance
    across all worker processes.  ``mapped=False`` materializes
    private in-RAM copies (the in-memory half of the byte-equality
    tests).  Any validation failure raises :class:`GraphStoreError`;
    callers should discard the file (see :func:`load_ingested`).
    """
    meta, (_, _, flags, _), arrays = artifact.read(GRAPH, path, mapped)
    # The out-CSR leads and the in-CSR trails; a symmetric graph stores
    # one CSR that serves as both.
    k = 3 if flags & FLAG_WEIGHTED else 2
    out_oa, out_na, out_w = (arrays[:k] + [None])[:3]
    in_oa, in_na, in_w = (arrays[-k:] + [None])[:3]
    graph = CSRGraph(out_oa=out_oa, out_na=out_na, in_oa=in_oa,
                     in_na=in_na, out_weights=out_w, in_weights=in_w,
                     symmetric=bool(flags & FLAG_SYMMETRIC),
                     name=str(meta.get("name", Path(path).stem)))
    graph.validate()
    return graph


def load_ingested(name: str, mapped: bool = True) -> CSRGraph:
    """Open an ingested graph by name, with discard + rebuild.

    A store file that fails validation is discarded (a corrupt one
    quarantined to the shared ``results/quarantine/`` directory) and
    rebuilt from its recorded source edge-list file exactly once
    (two-round loop, mirroring
    :func:`repro.experiments.workloads.workload_trace`); a second
    consecutive failure, or a vanished source file, raises
    :class:`GraphStoreError`.
    """
    from repro.experiments.workloads import trace_quarantine_dir
    path = store_path(name)
    for round_ in range(2):
        if not path.exists():
            raise GraphStoreError(
                f"no ingested graph {name!r} (looked for {path}); "
                f"ingest one with: repro ingest <edges.el[.gz]> "
                f"--name {name}")
        try:
            return open_graph(path, mapped=mapped)
        except GraphStoreError as exc:
            meta = artifact.read_meta(GRAPH, path) or {}
            artifact.discard(GRAPH, path, exc, trace_quarantine_dir())
            source = str(meta.get("source") or "")
            if round_ or not source or not Path(source).exists():
                raise GraphStoreError(
                    f"graph store {path.name}: {exc} (quarantined; "
                    f"no readable source to rebuild from)") from exc
            ingest_graph(source, name=name,
                         symmetrize=bool(meta.get("symmetric")),
                         num_vertices=meta.get("requested_vertices"),
                         force=True)
            COUNTERS["rebuilt"].inc()


# -- synthetic weights for weighted kernels on unweighted inputs ------------

def _edge_weight(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Deterministic per-(u, v) weight in [1, 254] — a pure function of
    the endpoints, so the CSR and CSC views of one edge always agree."""
    mixed = (src.astype(np.uint64) * np.uint64(2654435761)
             + dst.astype(np.uint64) * np.uint64(40503))
    return (mixed % np.uint64(254) + np.uint64(1)).astype(WEIGHT_DTYPE)


def with_synthetic_weights(graph: CSRGraph) -> CSRGraph:
    """Attach deterministic weights to an unweighted graph.

    Used when a weighted kernel (SSSP) runs over an ingested graph
    whose edge list carried no weights.  The weight of edge ``(u, v)``
    is a pure hash of the endpoints, identical however the graph is
    loaded, so mapped and in-memory runs stay bit-identical.  Note the
    weight arrays are materialized in RAM (O(edges) × 4 B) — only
    weighted kernels pay this.
    """
    if graph.out_weights is not None:
        return graph
    n = graph.num_vertices
    out_src = np.repeat(np.arange(n, dtype=np.int64),
                        np.diff(graph.out_oa))
    out_w = _edge_weight(out_src, graph.out_na.astype(np.int64))
    if graph.symmetric:
        in_w = out_w
    else:
        in_dst = np.repeat(np.arange(n, dtype=np.int64),
                           np.diff(graph.in_oa))
        in_w = _edge_weight(graph.in_na.astype(np.int64), in_dst)
    return CSRGraph(out_oa=graph.out_oa, out_na=graph.out_na,
                    in_oa=graph.in_oa, in_na=graph.in_na,
                    out_weights=out_w, in_weights=in_w,
                    symmetric=graph.symmetric, name=graph.name)
