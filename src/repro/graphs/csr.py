"""CSR/CSC graph representation (paper §II-A, Fig. 1).

A graph is stored as two arrays per direction::

    array     dtype  length  contents
    --------  -----  ------  --------------------------------------
    out_oa    int64  n + 1   CSR Offset Array (row starts)
    out_na    int32  e       CSR Neighbors Array (destinations)
    in_oa     int64  n + 1   CSC offsets (incoming, pull kernels)
    in_na     int32  e       CSC sources
    *_weights int32  e       optional per-edge weights (SSSP)

``out_na[out_oa[u]:out_oa[u+1]]`` are the outgoing neighbours of
vertex ``u``, sorted by destination; symmetric (undirected) graphs
share one array set between CSR and CSC.  Vertex ids are ``int32``
(the GAP default for graphs under 2^31 edges), offsets ``int64``.

:func:`from_edges` applies GAP's loader semantics — infer ``n`` as the
max endpoint + 1, drop self-loops, keep the *first* occurrence of each
duplicate edge (and its weight), optionally add every reverse edge —
and refuses a vertex id outside ``[0, n)`` or a weight that does not
fit ``int32``.  There is one builder, :func:`csr_rows`: it sorts the
packed ``src * n + dst`` keys of a range of rows once and drops
repeats.  ``from_edges`` is its one-range case, all rows in RAM; the
streaming ingestion path (:mod:`repro.graphs.ingest`) buckets the keys
of a file by vertex range on disk and calls it once per range, so the
two build the same bytes:

>>> import numpy as np
>>> g = from_edges(np.array([[0, 1], [1, 2], [1, 1], [0, 1]]))
>>> g.num_vertices, g.num_edges          # self-loop + dupe dropped
(3, 2)
>>> g.out_neighbors(1)
array([2], dtype=int32)
>>> u = from_edges(np.array([[0, 1], [1, 2]]), symmetrize=True)
>>> u.num_edges, bool(u.symmetric)
(4, True)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VERTEX_DTYPE = np.int32
OFFSET_DTYPE = np.int64
WEIGHT_DTYPE = np.int32


@dataclass
class CSRGraph:
    """Immutable directed graph in CSR + CSC form.

    Attributes
    ----------
    out_oa, out_na:
        Offset Array / Neighbors Array of the out-adjacency (CSR).
    in_oa, in_na:
        Offset Array / Neighbors Array of the in-adjacency (CSC).
    out_weights, in_weights:
        Optional per-edge weights aligned with ``out_na`` / ``in_na``.
    symmetric:
        True when the graph was built as undirected (every edge has its
        reverse), in which case CSR and CSC share the same arrays.
    """

    out_oa: np.ndarray
    out_na: np.ndarray
    in_oa: np.ndarray
    in_na: np.ndarray
    out_weights: np.ndarray | None = None
    in_weights: np.ndarray | None = None
    symmetric: bool = False
    name: str = "graph"
    _out_degrees: np.ndarray | None = field(default=None, repr=False)

    # -- basic properties ------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.out_oa) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges (arcs) stored in the CSR."""
        return len(self.out_na)

    def out_degree(self, u: int) -> int:
        return int(self.out_oa[u + 1] - self.out_oa[u])

    def in_degree(self, u: int) -> int:
        return int(self.in_oa[u + 1] - self.in_oa[u])

    def out_degrees(self) -> np.ndarray:
        if self._out_degrees is None:
            object.__setattr__(self, "_out_degrees",
                               np.diff(self.out_oa).astype(VERTEX_DTYPE))
        return self._out_degrees

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.in_oa).astype(VERTEX_DTYPE)

    def out_neighbors(self, u: int) -> np.ndarray:
        return self.out_na[self.out_oa[u]:self.out_oa[u + 1]]

    def in_neighbors(self, u: int) -> np.ndarray:
        return self.in_na[self.in_oa[u]:self.in_oa[u + 1]]

    def out_edge_weights(self, u: int) -> np.ndarray:
        if self.out_weights is None:
            raise ValueError("graph has no weights")
        return self.out_weights[self.out_oa[u]:self.out_oa[u + 1]]

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raises ``ValueError`` if broken."""
        n = self.num_vertices
        for oa, na, side in ((self.out_oa, self.out_na, "out"),
                             (self.in_oa, self.in_na, "in")):
            if oa[0] != 0 or oa[-1] != len(na):
                raise ValueError(f"{side}: OA endpoints inconsistent with NA")
            if np.any(np.diff(oa) < 0):
                raise ValueError(f"{side}: OA is not monotonically "
                                 f"non-decreasing")
            if len(na) and (na.min() < 0 or na.max() >= n):
                raise ValueError(f"{side}: NA contains out-of-range vertex")
        if len(self.out_na) != len(self.in_na):
            raise ValueError("CSR and CSC edge counts differ")
        if self.out_weights is not None and \
                len(self.out_weights) != len(self.out_na):
            raise ValueError("out_weights length mismatch")
        if self.in_weights is not None and \
                len(self.in_weights) != len(self.in_na):
            raise ValueError("in_weights length mismatch")

    # -- conversions -----------------------------------------------------
    def transpose(self) -> "CSRGraph":
        """Return the transpose graph (swap CSR and CSC)."""
        return CSRGraph(
            out_oa=self.in_oa, out_na=self.in_na,
            in_oa=self.out_oa, in_na=self.out_na,
            out_weights=self.in_weights, in_weights=self.out_weights,
            symmetric=self.symmetric, name=self.name + ".T")

    def to_scipy(self):
        """Return the adjacency matrix as ``scipy.sparse.csr_matrix``."""
        from scipy.sparse import csr_matrix
        data = (self.out_weights if self.out_weights is not None
                else np.ones(self.num_edges, dtype=np.int8))
        return csr_matrix((data, self.out_na, self.out_oa),
                          shape=(self.num_vertices, self.num_vertices))


def check_vertex_ids(lo: int, hi: int, n: int) -> None:
    """Raise ``ValueError`` unless every vertex id in ``[lo, hi]`` lies
    in ``[0, n)``, naming the first offending id and the count."""
    bad = lo if lo < 0 else hi if hi >= n else None
    if bad is not None:
        raise ValueError(f"vertex id {bad} is outside [0, {n}) for "
                         f"num_vertices={n}")


def check_weights(w: np.ndarray) -> np.ndarray:
    """``w`` as :data:`WEIGHT_DTYPE` (int32); raises ``ValueError``
    naming a weight that does not fit."""
    info = np.iinfo(WEIGHT_DTYPE)
    for bad in (w.min(initial=0), w.max(initial=0)):
        if not info.min <= bad <= info.max:
            raise ValueError(f"edge weight {bad} does not fit in int32")
    return w.astype(WEIGHT_DTYPE, copy=False)


def csr_rows(keys: np.ndarray, w: np.ndarray | None, n: int, v0: int,
             v1: int, dedup: bool):
    """CSR rows ``[v0, v1)`` from their packed ``row * n + col`` keys.

    The keys are sorted once.  Weights ride along through a stable
    argsort, so equal keys keep their input order, and ``dedup`` keeps
    the first occurrence of each key by comparing neighbours.  Returns
    ``(oa, keys, w)``: the sorted keys and their weights, and ``oa``
    offsetting row ``v0 + i`` into them; a key's column is ``key % n``.
    :func:`from_edges` builds every row in one call;
    :mod:`repro.graphs.ingest` builds one vertex range per call.
    """
    if w is None:
        keys = np.sort(keys)
    else:
        order = np.argsort(keys, kind="stable")
        keys, w = keys[order], w[order]
    if dedup and len(keys):
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        if w is not None:
            w = w[first]
    oa = np.searchsorted(keys, np.arange(v0, v1 + 1) * n)
    return oa.astype(OFFSET_DTYPE, copy=False), keys, w


def from_edges(edges: np.ndarray, num_vertices: int | None = None,
               weights: np.ndarray | None = None,
               symmetrize: bool = False, dedup: bool = True,
               name: str = "graph") -> CSRGraph:
    """Build a :class:`CSRGraph` from an ``(m, 2)`` edge array.

    Each edge is packed into one key, ``src * n + dst``, and the keys
    are sorted once: the sorted keys, repeats dropped, are the CSR, and
    a directed graph's CSC is one more sort of the swapped keys.

    Parameters
    ----------
    edges:
        Integer array of shape ``(m, 2)``; row ``(u, v)`` is the directed
        edge ``u -> v``.
    num_vertices:
        Vertex count; inferred as ``edges.max() + 1`` when omitted.  An
        id outside ``[0, num_vertices)`` raises ``ValueError``.
    weights:
        Optional per-edge weights (same length as ``edges``); one that
        does not fit ``int32`` raises ``ValueError``.
    symmetrize:
        Add the reverse of every edge (GAP's undirected-graph loading).
    dedup:
        Remove duplicate edges and self-loops (GAP's default cleanup).
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edges must have shape (m, 2)")
    n = num_vertices
    if n is None:
        n = int(edges.max()) + 1 if len(edges) else 0
    if len(edges):
        check_vertex_ids(int(edges.min()), int(edges.max()), n)
    src, dst = edges[:, 0], edges[:, 1]
    w = None if weights is None else check_weights(np.asarray(weights))

    keys = src * n + dst
    keep = src != dst
    if symmetrize:
        keys = np.concatenate([keys, dst * n + src])
        keep = np.concatenate([keep, keep])
        if w is not None:
            w = np.concatenate([w, w])
    if dedup:
        keys = keys[keep]
        if w is not None:
            w = w[keep]
    out_oa, keys, out_w = csr_rows(keys, w, n, 0, n, dedup)
    src, dst = np.divmod(keys, max(n, 1))
    out_na = dst.astype(VERTEX_DTYPE)
    if symmetrize:
        in_oa, in_na, in_w = out_oa, out_na, out_w
    else:
        in_oa, in_keys, in_w = csr_rows(dst * n + src, out_w, n, 0, n,
                                        False)
        in_na = (in_keys % max(n, 1)).astype(VERTEX_DTYPE)

    g = CSRGraph(out_oa=out_oa, out_na=out_na, in_oa=in_oa, in_na=in_na,
                 out_weights=out_w, in_weights=in_w,
                 symmetric=symmetrize, name=name)
    g.validate()
    return g
