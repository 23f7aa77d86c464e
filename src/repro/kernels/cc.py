"""Connected Components via Shiloach–Vishkin (GAP `cc`).

Alternates *hooking* (every edge (u, v) links the larger component label
to the smaller) with *pointer-jumping* (compressing label chains) until a
fixed point — the classic SV algorithm the paper cites [41].
Treats the graph as undirected (labels propagate along both edge
directions), matching GAP semantics.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph


def hooking_edges(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Indices of the edges that hook in one round.

    Every edge whose endpoint labels differ proposes ``comp[hi] = lo``.
    For each ``hi`` label the smallest ``lo`` wins, and of the edges
    carrying it the first, so the round is deterministic whatever the
    edge order.  Labels lie in ``[0, n)``.
    """
    idx = np.flatnonzero(lo != hi)
    hi_d, lo_d = hi[idx], lo[idx]
    best = np.full(n, n, dtype=np.int64)
    np.minimum.at(best, hi_d, lo_d)
    at_best = lo_d == best[hi_d]
    first = np.full(n, len(lo), dtype=np.int64)
    np.minimum.at(first, hi_d[at_best], idx[at_best])
    return first[first < len(lo)]


def connected_components(graph: CSRGraph, max_rounds: int | None = None
                         ) -> np.ndarray:
    """Return per-vertex component labels (the min vertex id per component)."""
    n = graph.num_vertices
    comp = np.arange(n, dtype=np.int64)
    if graph.num_edges == 0:
        return comp
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.out_oa))
    dst = graph.out_na.astype(np.int64)
    if not graph.symmetric:
        src, dst = (np.concatenate([src, dst]),
                    np.concatenate([dst, src]))
    limit = max_rounds if max_rounds is not None else n + 1

    for _ in range(limit):
        # Hooking: comp[max] <- comp[min] along one edge per 'max' label.
        cs, cd = comp[src], comp[dst]
        lo, hi = np.minimum(cs, cd), np.maximum(cs, cd)
        win = hooking_edges(lo, hi, n)
        if not len(win):
            break
        comp[hi[win]] = lo[win]
        # Pointer jumping until the labels form a flat forest.
        while True:
            nxt = comp[comp]
            if np.array_equal(nxt, comp):
                break
            comp = nxt
    return comp


def num_components(graph: CSRGraph) -> int:
    """Convenience: number of connected components."""
    return len(np.unique(connected_components(graph)))
