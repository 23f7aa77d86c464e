"""Access-record format, trace container and the vectorized stream builder.

**Record format.** A trace is a NumPy structured array of
:data:`ACCESS_DTYPE` records — one per dynamic memory access, 23 bytes
packed:

====== ==== ========================================================
field  type meaning
====== ==== ========================================================
pc     u32  static id of the access site (synthetic text address)
addr   u64  byte address within the traced program's address space
write  u8   1 = store, 0 = load
gap    u16  non-memory instructions executed since the previous access
dep    i64  index of the producer access; -1 = address-independent
====== ==== ========================================================

``dep`` is the load-load dependency chain that makes lookup latency
matter: ``contrib[NA[j]]`` depends on the ``NA[j]`` load that produced
its address, so the timing model serializes the pair.  Links always
point strictly backward (``dep[i] < i``, enforced by
:meth:`Trace.validate`); windowing a trace clamps links that escape
the window (:func:`rebase_links`, used by :meth:`Trace.slice` and the
builder's ``window``).

**Builder.** :class:`TraceBuilder` and
:func:`assemble_vertex_edge_stream` assemble interleaved per-vertex /
per-edge access streams without Python-level per-access loops: given
the per-active-vertex edge counts, the position of every record in the
final stream is an affine function of the vertex index and the
cumulative edge count, so all PCs, addresses and dependency links can
be scattered with NumPy fancy indexing (DESIGN.md substitution #1
keeps trace generation tractable).  A builder's ``limit`` (the run's
length) cuts each stream at the shortest vertex prefix that fills it,
so records past it are never kept, and its ``window`` (the last
records of the run that the trace keeps) is the only part assembled:
a mid-stream window counts the records before it without building
them.

**Serialization.** Traces have one binary form: the versioned,
checksummed, memory-mappable v8 store (:mod:`repro.trace.store`,
docs/TRACES.md), whose record block is this dtype byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.trace.layout import AddressSpace

ACCESS_DTYPE = np.dtype([
    ("pc", np.uint32),      # static id of the access site
    ("addr", np.uint64),    # byte address
    ("write", np.uint8),    # 1 = store
    ("gap", np.uint16),     # non-memory instructions preceding this access
    ("dep", np.int64),      # index of producer access (-1 = independent)
])


@dataclass
class Trace:
    """A complete memory-access trace plus its address-space metadata.

    ``accesses`` is an :data:`ACCESS_DTYPE` array.  When the trace was
    opened from the on-disk store it is a **read-only** ``np.memmap``
    view sharing the OS page cache with every other process mapping the
    same file — treat records as immutable and copy before mutating
    (:meth:`slice` already copies).
    """

    accesses: np.ndarray              # ACCESS_DTYPE array
    address_space: AddressSpace
    name: str = "trace"
    kernel: str = ""
    graph: str = ""

    def __len__(self) -> int:
        return len(self.accesses)

    @property
    def num_instructions(self) -> int:
        """Total instructions: each access is 1 µop plus its gap."""
        return int(len(self.accesses) + self.accesses["gap"].sum())

    def block_addrs(self, block_bits: int = 6) -> np.ndarray:
        return (self.accesses["addr"] >> block_bits).astype(np.int64)

    def slice(self, start: int, stop: int) -> "Trace":
        """Sub-trace with dependency links clamped to the window.

        Records are copied (never a view), ``dep`` indices are rebased
        to the new origin, and links pointing before ``start`` become
        -1 — the access is still replayed, it just no longer serializes
        behind a producer outside the window.

        >>> import numpy as np
        >>> from repro.trace.layout import AddressSpace
        >>> from repro.trace.record import ACCESS_DTYPE, Trace
        >>> acc = np.zeros(4, dtype=ACCESS_DTYPE)
        >>> acc["addr"] = [0, 8, 16, 24]
        >>> acc["dep"] = [-1, 0, 1, -1]
        >>> window = Trace(acc, AddressSpace(), "demo").slice(1, 3)
        >>> len(window)
        2
        >>> window.accesses["dep"].tolist()  # link to record 0 clamped,
        ...                                  # link to record 1 rebased
        [-1, 0]
        >>> window.name
        'demo[1:3]'
        """
        acc = self.accesses[start:stop].copy()
        acc["dep"] = rebase_links(acc["dep"], start)
        return Trace(acc, self.address_space, f"{self.name}[{start}:{stop}]",
                     self.kernel, self.graph)

    def validate(self) -> None:
        """Check record invariants (dep ordering, mapped addresses)."""
        dep = self.accesses["dep"]
        idx = np.arange(len(dep))
        bad = (dep >= idx) & (dep != -1)
        if bad.any():
            raise ValueError(f"{bad.sum()} dependency links are not "
                             "strictly backward")
        if (dep < -1).any():
            raise ValueError("dep < -1 encountered")


class TraceBuilder:
    """Incrementally assembles a :class:`Trace` from vectorized streams.

    ``limit`` (a tracer's ``max_accesses``) bounds the run: :meth:`emit`
    stops at ``limit`` records and :meth:`append_stream` at the end of
    the vertex that reaches it.  ``len(tb)`` counts the records kept so
    far, that vertex's overshoot included, and :attr:`full` turns true
    at ``limit``.  The trace is the first ``n = min(len(tb), limit)``
    of them; ``window`` keeps only its last ``window`` records, as
    ``Trace.slice(n - window, n)`` would.

    Neither method assembles anything.  Each keeps *copies* of the cut
    field arrays it is handed (a caller may reuse or mutate its own, as
    ``dyn``'s live-edge mask is), plus the count of records every
    vertex keeps.  :meth:`build` then assembles only the vertex range
    of each stream that overlaps the window, so the over-generated
    prefix of a mid-stream window is counted but never built.
    """

    def __init__(self, address_space: AddressSpace, name: str = "trace",
                 kernel: str = "", graph: str = "",
                 limit: int | None = None, window: int | None = None):
        self.space = address_space
        self.name = name
        self.kernel = kernel
        self.graph = graph
        self.limit = limit
        self.window = window
        self._streams: list[_Stream] = []
        self._length = 0
        self._pcs: dict[str, int] = {}

    def __len__(self) -> int:
        return self._length

    @property
    def full(self) -> bool:
        """True once the builder holds at least ``limit`` records."""
        return self.limit is not None and self._length >= self.limit

    def pc(self, site: str) -> int:
        """Stable PC id for a named static access site."""
        if site not in self._pcs:
            # Spread PCs out like distinct instruction addresses, leaving
            # room for up to 8 unrolled lanes per site (4 bytes apart,
            # see SegmentField.unroll).  The odd multiple-of-4 stride
            # (36) keeps sites from aliasing into the same predictor set.
            self._pcs[site] = 0x40_0000 + 36 * len(self._pcs)
        return self._pcs[site]

    def emit(self, pc: int, addr, write=False, gap=2, dep_rel=None) -> None:
        """Append a flat run of accesses from one site (vectorized).

        ``addr`` may be scalar or an array; ``dep_rel`` (if given) is a
        negative offset within the run linking each record to an earlier
        one (e.g. -1 = the immediately preceding record in this run).
        Records past the builder's ``limit`` are not kept.  The run is
        the one-header stream of vertices without edges.
        """
        addr = np.atleast_1d(np.asarray(addr, dtype=np.uint64))
        self.append_stream(np.zeros(len(addr), dtype=np.int64),
                           [SegmentField(pc, addr, write, gap, dep_rel)],
                           [], [])

    def append_stream(self, counts: np.ndarray,
                      header: list[SegmentField],
                      edge: list[SegmentField],
                      footer: list[SegmentField]) -> None:
        """Append an :func:`assemble_vertex_edge_stream` loop nest, cut
        at the shortest vertex prefix that fills the builder's
        ``limit``; it is assembled by :meth:`build`."""
        room = None if self.limit is None else self.limit - self._length
        if room is not None and room <= 0:
            return
        oa = _edge_offsets(counts, header, edge, footer)
        kept = _kept_records(oa, header + footer, edge)
        nv = len(oa) - 1
        if room is not None:
            nv = min(int(np.searchsorted(kept, room)), nv)
        ne = int(oa[nv])
        self._streams.append(_Stream(
            self._length, oa[:nv + 1].copy(), kept[:nv + 1].copy(),
            [_owned(fld, nv) for fld in header],
            [_owned(fld, ne) for fld in edge],
            [_owned(fld, nv) for fld in footer]))
        self._length += int(kept[nv])

    def build(self) -> Trace:
        """The trace: the last ``window`` of the first ``limit`` records
        (all of either when unset), assembled stream by stream."""
        stop = self._length if self.limit is None \
            else min(self._length, self.limit)
        start = 0 if self.window is None else max(0, stop - self.window)
        parts = [s.assemble(start, stop) for s in self._streams
                 if max(start, s.start) < min(stop, s.start + s.kept[-1])]
        if parts:
            accesses = np.concatenate(parts)
        else:
            accesses = np.zeros(0, dtype=ACCESS_DTYPE)
        trace = Trace(accesses, self.space, self.name, self.kernel,
                      self.graph)
        trace.validate()
        return trace


@dataclass
class SegmentField:
    """One access site inside an interleaved vertex/edge stream.

    ``addr`` has one element per vertex (header/footer) or per edge
    (edge fields).  ``dep_rel`` links a record to the record ``dep_rel``
    positions earlier in the final stream (must be negative); None means
    independent.  ``mask`` (same length as ``addr``) drops records for
    which it is False — used for conditional stores such as BFS's
    "claim child" write, which only executes on untouched vertices.

    ``unroll`` models compiler loop unrolling: the site is emitted under
    ``unroll`` distinct PCs, cycling with the record index, exactly as
    an unrolled inner loop has one load instruction per lane.  This is
    what puts realistic pressure on small PC-indexed predictor tables.
    ``first`` is the index of ``addr[0]`` in the site's whole run, so
    a field cut to a sub-range keeps its lanes.
    """

    pc: int
    addr: np.ndarray
    write: bool = False
    gap: int = 2
    dep_rel: int | None = None
    mask: np.ndarray | None = None
    unroll: int = 1
    first: int = 0

    def pcs(self) -> np.ndarray | int:
        if self.unroll <= 1:
            return self.pc
        lanes = (self.first + np.arange(len(self.addr), dtype=np.int64)) \
            % self.unroll
        return self.pc + 4 * lanes

    def cut(self, lo: int, hi: int) -> "SegmentField":
        """The field's records ``lo:hi`` (views), lanes continuing."""
        return replace(self, addr=self.addr[lo:hi], first=self.first + lo,
                       mask=None if self.mask is None else self.mask[lo:hi])


def assemble_vertex_edge_stream(
        counts: np.ndarray,
        header: list[SegmentField],
        edge: list[SegmentField],
        footer: list[SegmentField]) -> np.ndarray:
    """Interleave per-vertex and per-edge access sites into one stream.

    The logical program is::

        for each active vertex u (counts[u] edges):
            <header records>
            for each edge j of u:
                <edge records>
            <footer records>

    Returns an ``ACCESS_DTYPE`` array in exactly that order, built with
    pure array arithmetic; a ``dep`` link is a position in the returned
    array, and one that would point before its start (or at a
    masked-out record) is -1.

    Fields cut with :meth:`SegmentField.cut` to a vertex range and to
    that range's edges assemble exactly that range of the whole
    stream, with each link into an earlier vertex cleared:
    :meth:`TraceBuilder.build` assembles only the vertices its window
    overlaps.
    """
    counts = np.asarray(counts, dtype=np.int64)
    oa = _edge_offsets(counts, header, edge, footer)
    nv, ne = len(counts), int(oa[-1])
    h, e, f = len(header), len(edge), len(footer)

    total = nv * (h + f) + ne * e
    out = np.zeros(total, dtype=ACCESS_DTYPE)
    out["dep"] = -1
    keep = np.ones(total, dtype=bool)

    vbase = (h + f) * np.arange(nv, dtype=np.int64) + e * oa[:-1]

    def scatter(pos: np.ndarray, fld: SegmentField) -> None:
        out["pc"][pos] = fld.pcs()
        out["addr"][pos] = fld.addr.astype(np.uint64, copy=False)
        out["write"][pos] = 1 if fld.write else 0
        out["gap"][pos] = fld.gap
        if fld.dep_rel is not None:
            dep = pos + fld.dep_rel
            out["dep"][pos] = np.where(dep >= 0, dep, -1)
        if fld.mask is not None:
            keep[pos] = fld.mask

    for k, fld in enumerate(header):
        scatter(vbase + k, fld)

    if e and ne:
        seg = np.repeat(np.arange(nv, dtype=np.int64), counts)
        within = np.arange(ne, dtype=np.int64) - np.repeat(oa[:-1], counts)
        ebase = vbase[seg] + h + e * within
        for k, fld in enumerate(edge):
            scatter(ebase + k, fld)

    for k, fld in enumerate(footer):
        scatter(vbase + h + e * counts + k, fld)

    if not keep.all():
        out = _compress_stream(out, keep)
    return out


@dataclass
class _Stream:
    """One :meth:`TraceBuilder.append_stream` call, kept unassembled:
    its vertices' edge offsets ``oa`` and kept-record offsets ``kept``
    (both ``nv + 1`` long) and private copies of its fields."""

    start: int                      # builder records before it
    oa: np.ndarray
    kept: np.ndarray
    header: list[SegmentField]
    edge: list[SegmentField]
    footer: list[SegmentField]

    def assemble(self, lo: int, hi: int) -> np.ndarray:
        """Builder records ``lo:hi`` that fall in this stream, with
        ``dep`` links rebased to ``lo`` (:func:`rebase_links`).

        Only the vertices holding those records are assembled."""
        a = max(lo - self.start, 0)
        b = min(hi - self.start, int(self.kept[-1]))
        v0 = int(np.searchsorted(self.kept, a, side="right")) - 1
        v1 = int(np.searchsorted(self.kept, b, side="left"))
        e0, e1 = int(self.oa[v0]), int(self.oa[v1])
        out = assemble_vertex_edge_stream(
            np.diff(self.oa[v0:v1 + 1]),
            [fld.cut(v0, v1) for fld in self.header],
            [fld.cut(e0, e1) for fld in self.edge],
            [fld.cut(v0, v1) for fld in self.footer])
        first = int(self.kept[v0])        # the stream record at out[0]
        out = out[a - first:b - first]
        out["dep"] = rebase_links(out["dep"], lo - self.start - first)
        return out


def _edge_offsets(counts: np.ndarray, header: list[SegmentField],
                  edge: list[SegmentField],
                  footer: list[SegmentField]) -> np.ndarray:
    """``oa`` (each vertex's first edge, ``nv + 1`` long) after checking
    every field's length and ``dep_rel``."""
    counts = np.asarray(counts, dtype=np.int64)
    oa = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=oa[1:])
    for fld in header + footer:
        if len(fld.addr) != len(counts):
            raise ValueError("header/footer field length != #vertices")
    for fld in edge:
        if len(fld.addr) != oa[-1]:
            raise ValueError("edge field length != #edges")
    for fld in header + edge + footer:
        if fld.dep_rel is not None and fld.dep_rel >= 0:
            raise ValueError("dep_rel must be negative")
    return oa


def _kept_records(oa: np.ndarray, vertex_fields: list[SegmentField],
                  edge_fields: list[SegmentField]) -> np.ndarray:
    """Kept (post-mask) records before each vertex, ``nv + 1`` long."""
    nv = len(oa) - 1
    kept = len(vertex_fields) * np.arange(nv + 1, dtype=np.int64) \
        + len(edge_fields) * oa
    for fields, bounds in ((vertex_fields, None), (edge_fields, oa)):
        for fld in fields:
            if fld.mask is None:
                continue
            dropped = np.zeros(len(fld.mask) + 1, dtype=np.int64)
            np.cumsum(~np.asarray(fld.mask, dtype=bool), out=dropped[1:])
            kept -= dropped if bounds is None else dropped[bounds]
    return kept


def _owned(fld: SegmentField, n: int) -> SegmentField:
    """A private copy of ``fld``'s first ``n`` records."""
    return replace(fld, addr=fld.addr[:n].astype(np.uint64),
                   mask=None if fld.mask is None
                   else np.array(fld.mask[:n], dtype=bool))


def rebase_links(dep: np.ndarray, origin: int) -> np.ndarray:
    """``dep`` links re-counted from record ``origin``: a link to a
    record before it (or none, -1) becomes -1.  ``origin`` may be
    negative, when the links' own frame starts after it.

    >>> rebase_links(np.array([-1, 0, 1, 3]), 1).tolist()
    [-1, -1, 0, 2]
    """
    out = dep - origin
    out[(dep < origin) | (dep < 0)] = -1
    return out


def _compress_stream(out: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Drop masked-out records, remapping dependency links.

    A dependency on a dropped record is redirected to that record's own
    dependency (transitively none here, since masked records never carry
    deps in practice) or cleared.
    """
    new_index = np.cumsum(keep) - 1            # position after compression
    compressed = out[keep]
    dep = compressed["dep"]
    valid = dep >= 0
    idx = dep[valid]
    # Links to dropped records are cleared; links to kept ones remapped.
    remapped = np.where(keep[idx], new_index[idx], -1)
    dep[valid] = remapped
    compressed["dep"] = dep
    return compressed
