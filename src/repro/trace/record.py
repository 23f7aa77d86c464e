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
the window (:meth:`Trace.slice`).

**Builder.** :class:`TraceBuilder` and
:func:`assemble_vertex_edge_stream` assemble interleaved per-vertex /
per-edge access streams without Python-level per-access loops: given
the per-active-vertex edge counts, the position of every record in the
final stream is an affine function of the vertex index and the
cumulative edge count, so all PCs, addresses and dependency links can
be scattered with NumPy fancy indexing (DESIGN.md substitution #1
keeps trace generation tractable).  A builder's ``limit`` (the trace
window) cuts each stream at the shortest vertex prefix that fills it,
so records past the window are never built.

**Serialization.** :meth:`Trace.save`/:meth:`Trace.load` round-trip
the legacy compressed ``.npz`` form (format v7), which the engine
benchmark compares with the store.  Cached workload traces live in
the versioned, checksummed, memory-mappable v8 store
(:mod:`repro.trace.store`, docs/TRACES.md), whose record block is
this dtype byte-for-byte.
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
        dep = acc["dep"]
        rebased = dep - start
        rebased[(dep < start) | (dep < 0)] = -1
        acc["dep"] = rebased
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

    # -- serialization (legacy v7 .npz — see repro.trace.store for the
    # v8 mmap format that cached workload traces actually use) ------------
    def save(self, path) -> None:
        """Write the legacy compressed ``.npz`` form (format v7)."""
        regions = self.address_space.regions
        names = list(regions)
        np.savez_compressed(
            path,
            accesses=self.accesses,
            region_names=np.array(names),
            region_base=np.array([regions[n].base for n in names],
                                 dtype=np.int64),
            region_elem=np.array([regions[n].elem_size for n in names],
                                 dtype=np.int64),
            region_count=np.array([regions[n].num_elems for n in names],
                                  dtype=np.int64),
            region_irr=np.array([regions[n].irregular_hint for n in names]),
            meta=np.array([self.name, self.kernel, self.graph]),
        )

    @classmethod
    def load(cls, path) -> "Trace":
        """Read a legacy v7 ``.npz`` trace."""
        with np.load(path, allow_pickle=False) as z:
            space = AddressSpace()
            # Re-register regions preserving their original bases.
            for name, base, elem, count, irr in zip(
                    z["region_names"], z["region_base"], z["region_elem"],
                    z["region_count"], z["region_irr"]):
                from repro.trace.layout import Region
                region = Region(str(name), int(base), int(elem), int(count),
                                bool(irr))
                space.regions[str(name)] = region
                space._starts.append(region.base)
                space._names.append(str(name))
            meta = [str(x) for x in z["meta"]]
            return cls(z["accesses"].copy(), space, *meta)


class TraceBuilder:
    """Incrementally assembles a :class:`Trace` from vectorized chunks.

    ``limit`` (a tracer's ``max_accesses``) bounds what gets built:
    :meth:`emit` stops at ``limit`` records, :meth:`append_stream` at
    the end of the vertex that reaches it, and :meth:`build` cuts that
    vertex's overshoot, so a windowed trace never assembles the records
    its window would cut away.  The ``limit`` records it keeps are the
    same as an unbounded builder's first ``limit``.
    """

    def __init__(self, address_space: AddressSpace, name: str = "trace",
                 kernel: str = "", graph: str = "",
                 limit: int | None = None):
        self.space = address_space
        self.name = name
        self.kernel = kernel
        self.graph = graph
        self.limit = limit
        self._chunks: list[np.ndarray] = []
        self._length = 0
        self._pcs: dict[str, int] = {}

    def __len__(self) -> int:
        return self._length

    @property
    def full(self) -> bool:
        """True once the builder holds at least ``limit`` records."""
        return self.limit is not None and self._length >= self.limit

    def _room(self) -> int | None:
        return None if self.limit is None else self.limit - self._length

    def pc(self, site: str) -> int:
        """Stable PC id for a named static access site."""
        if site not in self._pcs:
            # Spread PCs out like distinct instruction addresses, leaving
            # room for up to 8 unrolled lanes per site (4 bytes apart,
            # see SegmentField.unroll).  The odd multiple-of-4 stride
            # (36) keeps sites from aliasing into the same predictor set.
            self._pcs[site] = 0x40_0000 + 36 * len(self._pcs)
        return self._pcs[site]

    def append_chunk(self, chunk: np.ndarray) -> None:
        """Append a pre-built record chunk, rebasing its dep links."""
        if chunk.dtype != ACCESS_DTYPE:
            raise TypeError("chunk must have ACCESS_DTYPE")
        chunk = chunk.copy()
        dep = chunk["dep"]
        chunk["dep"] = np.where(dep >= 0, dep + self._length, -1)
        self._chunks.append(chunk)
        self._length += len(chunk)

    def emit(self, pc: int, addr, write=False, gap=2, dep_rel=None) -> None:
        """Append a flat run of accesses from one site (vectorized).

        ``addr`` may be scalar or an array; ``dep_rel`` (if given) is a
        negative offset within the run linking each record to an earlier
        one (e.g. -1 = the immediately preceding record in this run).
        Records past the builder's ``limit`` are not emitted.
        """
        addr = np.atleast_1d(np.asarray(addr, dtype=np.uint64))
        room = self._room()
        if room is not None:
            addr = addr[:max(room, 0)]
        n = len(addr)
        chunk = np.zeros(n, dtype=ACCESS_DTYPE)
        chunk["pc"] = pc
        chunk["addr"] = addr
        chunk["write"] = 1 if write else 0
        chunk["gap"] = gap
        if dep_rel is None:
            chunk["dep"] = -1
        else:
            idx = np.arange(n, dtype=np.int64) + dep_rel
            chunk["dep"] = np.where(idx >= 0, idx, -1)
        self.append_chunk(chunk)

    def append_stream(self, counts: np.ndarray,
                      header: list[SegmentField],
                      edge: list[SegmentField],
                      footer: list[SegmentField]) -> None:
        """Append an :func:`assemble_vertex_edge_stream` chunk, built
        only as far as the builder's ``limit`` leaves room for."""
        room = self._room()
        if room is not None and room <= 0:
            return
        self.append_chunk(assemble_vertex_edge_stream(
            counts, header, edge, footer, limit=room))

    def build(self) -> Trace:
        """The assembled trace, cut to its first ``limit`` records."""
        if self._chunks:
            accesses = np.concatenate(self._chunks)
        else:
            accesses = np.zeros(0, dtype=ACCESS_DTYPE)
        if self.limit is not None and len(accesses) > self.limit:
            # Dep links only point backwards, so the cut keeps them.
            accesses = accesses[:self.limit].copy()
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
    """

    pc: int
    addr: np.ndarray
    write: bool = False
    gap: int = 2
    dep_rel: int | None = None
    mask: np.ndarray | None = None
    unroll: int = 1

    def pcs(self) -> np.ndarray | int:
        if self.unroll <= 1:
            return self.pc
        lanes = np.arange(len(self.addr), dtype=np.int64) % self.unroll
        return self.pc + 4 * lanes


def assemble_vertex_edge_stream(
        counts: np.ndarray,
        header: list[SegmentField],
        edge: list[SegmentField],
        footer: list[SegmentField],
        limit: int | None = None) -> np.ndarray:
    """Interleave per-vertex and per-edge access sites into one stream.

    The logical program is::

        for each active vertex u (counts[u] edges):
            <header records>
            for each edge j of u:
                <edge records>
            <footer records>

    Returns an ``ACCESS_DTYPE`` array in exactly that order, built with
    pure array arithmetic.

    ``limit`` builds only the shortest vertex prefix whose kept
    (post-mask) records number at least ``limit`` (the whole stream
    when it is shorter): at most one vertex's records past ``limit``,
    each equal to the full stream's record at that position, since
    every dependency link points backward.
    """
    counts = np.asarray(counts, dtype=np.int64)
    nv = len(counts)
    ne = int(counts.sum())
    h, e, f = len(header), len(edge), len(footer)
    for fld in header + footer:
        if len(fld.addr) != nv:
            raise ValueError("header/footer field length != #vertices")
    for fld in edge:
        if len(fld.addr) != ne:
            raise ValueError("edge field length != #edges")

    oa = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(counts, out=oa[1:])
    if limit is not None:
        nv = _prefix_vertices(oa, header + footer, edge, limit)
        ne = int(oa[nv])
        counts, oa = counts[:nv], oa[:nv + 1]
        header = [_head(fld, nv) for fld in header]
        edge = [_head(fld, ne) for fld in edge]
        footer = [_head(fld, nv) for fld in footer]

    total = nv * (h + f) + ne * e
    out = np.zeros(total, dtype=ACCESS_DTYPE)
    out["dep"] = -1
    keep = np.ones(total, dtype=bool)

    vbase = (h + f) * np.arange(nv, dtype=np.int64) + e * oa[:-1]

    def scatter(pos: np.ndarray, fld: SegmentField) -> None:
        out["pc"][pos] = fld.pcs()
        out["addr"][pos] = fld.addr.astype(np.uint64)
        out["write"][pos] = 1 if fld.write else 0
        out["gap"][pos] = fld.gap
        if fld.dep_rel is not None:
            if fld.dep_rel >= 0:
                raise ValueError("dep_rel must be negative")
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


def _prefix_vertices(oa: np.ndarray, vertex_fields: list[SegmentField],
                     edge_fields: list[SegmentField], limit: int) -> int:
    """Fewest leading vertices whose kept records number ``>= limit``
    (all of them when the whole stream keeps fewer)."""
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
    return min(int(np.searchsorted(kept, limit)), nv)


def _head(fld: SegmentField, n: int) -> SegmentField:
    """``fld`` cut to its first ``n`` records."""
    return replace(fld, addr=fld.addr[:n],
                   mask=None if fld.mask is None else fld.mask[:n])


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
