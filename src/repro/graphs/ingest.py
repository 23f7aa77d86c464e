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

**Pipeline** (``ingest_graph``; docs/WORKLOADS.md walks through it):

1. *Parse* — the only read of the text: spill each chunk's rows to an
   int32 scratch file and count every vertex's arcs.
2. *Bucket* — pack each arc into a ``src * n + dst`` key (all forward
   arcs, then all reverse ones: ``from_edges``'s order) and scatter the
   keys, stably, into their vertex range's region of a scratch file; a
   range holds at most ``chunk_edges`` arcs, or one vertex.
3. *Sort per range* — :func:`repro.graphs.csr.csr_rows`, the builder
   ``from_edges`` runs once over all rows, sorts each range once and
   drops repeats, so both paths write the same bytes.
4. *CSC* — steps 2–3 over the CSR's swapped keys, without dedupe
   (directed graphs only; symmetrized ones share one array set).
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
                              WEIGHT_DTYPE, check_vertex_ids,
                              check_weights, csr_rows)

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
    raw_edges: int            # rows parsed from the text
    symmetric: bool
    weighted: bool

    @property
    def file_bytes(self) -> int:
        return self.path.stat().st_size


def _range_bounds(oa: np.ndarray, chunk_edges: int) -> list[int]:
    """Vertex ids splitting ``[0, n)`` into ranges of at most
    ``chunk_edges`` arcs; a vertex with more is a range of its own."""
    bounds = [0]
    while bounds[-1] < len(oa) - 1:
        v0 = bounds[-1]
        bounds.append(max(v0 + 1, int(np.searchsorted(
            oa, oa[v0] + chunk_edges, side="right")) - 1))
    return bounds


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
    if chunk_edges < 1:
        raise ValueError(f"chunk_edges must be >= 1, got {chunk_edges}")
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

    scratch = Path(tempfile.mkdtemp(dir=graphs_dir(),
                                    prefix=f".{name}.build."))
    try:
        report = _build_and_write(path, dest, scratch, name, symmetrize,
                                  weighted, num_vertices, chunk_edges)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    COUNTERS["ingests"].inc()
    artifact.fault_hook(dest, f"graph:{dest.name}", _store_write_seq)
    return report


#: Per-process count of store writes per path, feeding the fault
#: injector's ``write_seq`` (see :func:`repro.store.fault_hook`).
_store_write_seq: dict[str, int] = {}


def _build_and_write(path, dest, scratch, name, symmetrize, weighted,
                     num_vertices, chunk_edges) -> IngestReport:
    spill = scratch / "edges.bin"
    n, rows, deg = _parse(path, spill, symmetrize, num_vertices,
                          chunk_edges)
    arcs = _spilled_arcs(spill, rows, weighted, symmetrize, chunk_edges)
    out_oa, out_na, out_w = _bucket_sort(scratch / "out", arcs, deg, n,
                                         weighted, chunk_edges)
    e = int(out_oa[-1])
    sections = [out_oa, out_na] + ([out_w] if weighted else [])

    if not symmetrize:
        # The CSC is the same build over the CSR's swapped arcs.
        in_deg = np.zeros(n, dtype=np.int64)
        for lo in range(0, e, chunk_edges):
            np.add.at(in_deg, out_na[lo:lo + chunk_edges], 1)

        def swapped():
            bounds = _range_bounds(out_oa, chunk_edges)
            for v0, v1 in zip(bounds, bounds[1:]):
                lo, hi = out_oa[v0], out_oa[v1]
                srcs = np.repeat(np.arange(v0, v1, dtype=np.int64),
                                 np.diff(out_oa[v0:v1 + 1]))
                yield (np.asarray(out_na[lo:hi], dtype=np.int64), srcs,
                       None if out_w is None else out_w[lo:hi])

        in_oa, in_na, in_w = _bucket_sort(scratch / "in", swapped(), in_deg,
                                          n, weighted, chunk_edges,
                                          dedup=False)
        sections += [in_oa, in_na] + ([in_w] if weighted else [])

    meta = {"name": name, "source": str(path), "num_vertices": n,
            "num_edges": e, "symmetric": symmetrize, "weighted": weighted,
            "requested_vertices": num_vertices}
    flags = (FLAG_SYMMETRIC if symmetrize else 0) | \
        (FLAG_WEIGHTED if weighted else 0)
    artifact.write(GRAPH, dest, meta, (n, e, flags, 0), sections)
    return IngestReport(name, dest, n, e, rows, symmetrize, weighted)


def _parse(path, spill, symmetrize, num_vertices, chunk_edges):
    """The only read of the text: spill the rows to the int32 file
    ``spill`` (ids and weights share that dtype) and count each
    vertex's arcs (self-loops excluded).  Returns ``(n, rows, deg)``;
    ``n`` is ``num_vertices`` or, as in ``from_edges``, the largest
    id + 1.  An id past ``n`` or int32, or a weight past int32, raises
    ``ValueError``."""
    limit = np.iinfo(VERTEX_DTYPE).max + 1
    cap = limit if num_vertices is None else min(num_vertices, limit)
    deg = np.zeros(0, dtype=np.int64)
    rows = observed_n = 0
    with open(spill, "wb") as fh:
        for src, dst, w in iter_edge_chunks(path, chunk_edges):
            top = int(max(src.max(), dst.max()))
            check_vertex_ids(0, top, cap)
            cols = [src, dst] if w is None else [src, dst, check_weights(w)]
            np.column_stack(cols).astype(VERTEX_DTYPE).tofile(fh)
            if top >= len(deg):
                deg = np.pad(deg, (0, max(top + 1, 2 * len(deg)) - len(deg)))
            keep = src != dst
            np.add.at(deg, src[keep], 1)
            if symmetrize:
                np.add.at(deg, dst[keep], 1)
            rows += len(src)
            observed_n = max(observed_n, top + 1)
    n = num_vertices if num_vertices is not None else observed_n
    deg = np.pad(deg[:n], (0, max(n - len(deg), 0)))
    return n, rows, deg


def _spilled_arcs(spill, rows, weighted, symmetrize, chunk_edges):
    """Every chunk's forward arcs of the ``spill`` file, then
    (symmetrized) the reverse ones, self-loops dropped; the file is
    deleted once read."""
    cols = 3 if weighted else 2
    edges = _scratch_memmap(spill, VERTEX_DTYPE, rows * cols,
                            "r").reshape(rows, cols)
    for flip in (False, True)[:1 + symmetrize]:
        for lo in range(0, rows, chunk_edges):
            part = edges[lo:lo + chunk_edges].astype(np.int64)
            s, d = part[:, 0], part[:, 1]
            keep = s != d
            s, d = (d, s) if flip else (s, d)
            yield s[keep], d[keep], part[keep, 2] if weighted else None
    del edges                   # unmap before the unlink frees the disk
    spill.unlink()


def _bucket_sort(prefix: Path, arcs, deg: np.ndarray, n: int,
                 weighted: bool, chunk_edges: int, dedup: bool = True):
    """CSR ``(oa, na, w)`` of the ``(rows, cols, w)`` chunks ``arcs``
    yields, out of core; ``deg[v]`` counts row ``v``'s arcs.  Each
    chunk's ``row * n + col`` keys go, stably, to their vertex range's
    region of a scratch key file; then :func:`csr_rows` sorts each
    range once, and the key files are deleted.  ``na`` and ``w`` map
    scratch files at ``prefix``."""
    raw_oa = np.concatenate([[0], np.cumsum(deg)])
    bounds = _range_bounds(raw_oa, chunk_edges)
    ranges = list(zip(bounds, bounds[1:]))
    range_of = np.repeat(np.arange(len(ranges), dtype=np.min_scalar_type(
        len(ranges))), np.diff(bounds))
    cursor = raw_oa[bounds[:-1]]
    keys_at = _scratch_memmap(prefix.with_suffix(".keys"), np.int64,
                              int(raw_oa[-1]))
    w_at = (_scratch_memmap(prefix.with_suffix(".wkeys"), WEIGHT_DTYPE,
                            int(raw_oa[-1])) if weighted else None)
    for rows, cols, w in arcs:
        rid = range_of[rows]
        order = np.argsort(rid, kind="stable")
        counts = np.bincount(rid, minlength=len(ranges))
        pos = (np.repeat(cursor - np.cumsum(counts) + counts, counts)
               + np.arange(len(rows)))
        cursor += counts
        keys_at[pos] = (rows * n + cols)[order]
        if w_at is not None:
            w_at[pos] = w[order]

    oa = np.zeros(n + 1, dtype=OFFSET_DTYPE)
    na_path, w_path = prefix.with_suffix(".na"), prefix.with_suffix(".w")
    with open(na_path, "wb") as na_fh, open(w_path, "wb") as w_fh:
        for v0, v1 in ranges:
            lo, hi = raw_oa[v0], raw_oa[v1]
            r_oa, keys, w = csr_rows(
                keys_at[lo:hi], None if w_at is None else w_at[lo:hi],
                n, v0, v1, dedup)
            oa[v0 + 1:v1 + 1] = oa[v0] + r_oa[1:]
            (keys % n).astype(VERTEX_DTYPE).tofile(na_fh)
            if w is not None:
                w.tofile(w_fh)
    del keys_at, w_at           # unmap before the unlinks free the disk
    for suffix in (".keys", ".wkeys"):
        prefix.with_suffix(suffix).unlink(missing_ok=True)
    e = int(oa[-1])
    return (oa, _scratch_memmap(na_path, VERTEX_DTYPE, e, "r"),
            _scratch_memmap(w_path, WEIGHT_DTYPE, e, "r") if weighted
            else None)


def _scratch_memmap(path: Path, dtype, length: int,
                    mode: str = "w+") -> np.ndarray:
    if length == 0:
        return np.zeros(0, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode=mode, shape=(length,))


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
