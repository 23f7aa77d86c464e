"""Instrumented GAP kernels: execute the algorithm *and* emit the memory
trace its inner loops would issue.

Each tracer mirrors the reference kernel in ``repro.kernels`` closely
enough that the control flow (frontiers, rounds, buckets) is driven by
the real algorithm state, while every load/store of the principal data
structures (OA, NA, weights, property arrays, frontier buffers) is
recorded with its static PC, byte address and producer dependency.

Element sizes follow GAP / paper Table II: OA offsets are 8 B, NA vertex
ids 4 B, property arrays 4 B (BC's dependency array is 8 B), frontier
bitmaps 1 bit per vertex (modelled as byte-granular loads).

:func:`generate_trace` is the dispatch entry point (by GAP short
name); tracing is deterministic in its arguments, which is what lets
the on-disk trace cache (docs/TRACES.md) key entries on the workload
spec without hashing the records.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.kernels.cc import hooking_edges
from repro.trace.layout import AddressSpace
from repro.trace.record import SegmentField, Trace, TraceBuilder

_BIG = np.int64(1) << 60

# Inner (per-edge) loops are emitted under this many PC lanes,
# modelling compiler loop unrolling (see SegmentField.unroll).
UNROLL = 4


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` per count; robust to zero counts."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


def _edge_indices(oa: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Global NA indices of all edges of ``verts``, in traversal order."""
    starts = oa[verts].astype(np.int64)
    counts = (oa[verts + 1] - oa[verts]).astype(np.int64)
    return np.repeat(starts, counts) + _ragged_arange(counts)


# ---------------------------------------------------------------------------
# PageRank (paper Algorithm 1): pull over the CSC.
# ---------------------------------------------------------------------------

def trace_pagerank(graph: CSRGraph, iterations: int = 2,
                   max_accesses: int | None = None,
                   window: int | None = None) -> Trace:
    """Trace of pull-style PageRank (Algorithm 1, lines 4-15)."""
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("in_oa", 8, n + 1)
    na_r = space.add("in_na", 4, len(graph.in_na))
    scores_r = space.add("scores", 4, n)
    contrib_r = space.add("outgoing_contrib", 4, n, irregular_hint=True)

    tb = TraceBuilder(space, name=f"pr.{graph.name}", kernel="pr",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    verts = np.arange(n, dtype=np.int64)
    counts = np.diff(graph.in_oa).astype(np.int64)
    edge_idx = np.arange(len(graph.in_na), dtype=np.int64)
    neigh = graph.in_na.astype(np.int64)

    pc_cload = tb.pc("pr.contrib.load_scores")
    pc_cstore = tb.pc("pr.contrib.store_contrib")
    pc_oa = tb.pc("pr.gather.load_oa")
    pc_na = tb.pc("pr.gather.load_na")
    pc_gather = tb.pc("pr.gather.load_contrib")
    pc_sload = tb.pc("pr.gather.load_score")
    pc_sstore = tb.pc("pr.gather.store_score")

    for _ in range(iterations):
        # Lines 4-6: outgoing_contrib[u] = scores[u] / d+(u) — two
        # interleaved sequential streams.
        tb.append_stream(
            np.zeros(n, dtype=np.int64),
            header=[SegmentField(pc_cload, scores_r.addr(verts), gap=1),
                    SegmentField(pc_cstore, contrib_r.addr(verts),
                                 write=True, gap=2)],
            edge=[], footer=[])
        if tb.full:
            break
        # Lines 7-15: gather over incoming neighbours.
        tb.append_stream(
            counts,
            header=[SegmentField(pc_oa, oa_r.addr(verts + 1), gap=1)],
            edge=[SegmentField(pc_na, na_r.addr(edge_idx), gap=1,
                               unroll=UNROLL),
                  SegmentField(pc_gather, contrib_r.addr(neigh), gap=2,
                               dep_rel=-1, unroll=UNROLL)],
            footer=[SegmentField(pc_sload, scores_r.addr(verts), gap=2),
                    SegmentField(pc_sstore, scores_r.addr(verts),
                                 write=True, gap=3)])
        if tb.full:
            break
    return tb.build()


# ---------------------------------------------------------------------------
# BFS: direction-optimizing (push + pull), as kernels/bfs.py.
# ---------------------------------------------------------------------------

ALPHA, BETA = 15, 18


def trace_bfs(graph: CSRGraph, source: int = 0,
              max_accesses: int | None = None,
              window: int | None = None) -> Trace:
    """Trace of direction-optimizing BFS; also computes the parent array
    (returned via ``trace_bfs.last_parent`` for cross-validation)."""
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("out_oa", 8, n + 1)
    na_r = space.add("out_na", 4, len(graph.out_na))
    ioa_r = space.add("in_oa", 8, n + 1)
    ina_r = space.add("in_na", 4, len(graph.in_na))
    parent_r = space.add("parent", 4, n, irregular_hint=True)
    queue_r = space.add("frontier_queue", 4, max(n, 1))
    # Per-vertex BFS depth used for the bottom-up frontier-membership
    # test (depth[u] == level-1), as level-synchronous implementations
    # do.  GAP uses a 1-bit-per-vertex bitmap instead; at our scaled
    # graph sizes a bitmap would *fit the caches* (|V|/8 bytes vs the
    # scaled LLC) and break the footprint ratio the paper's runs have,
    # where the bitmap itself exceeds the LLC.  The 4 B depth array
    # scales exactly like the other per-vertex property arrays.
    bitmap_r = space.add("depth", 4, max(n, 1), irregular_hint=True)

    tb = TraceBuilder(space, name=f"bfs.{graph.name}", kernel="bfs",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_q = tb.pc("bfs.push.load_queue")
    pc_oa = tb.pc("bfs.push.load_oa")
    pc_na = tb.pc("bfs.push.load_na")
    pc_pload = tb.pc("bfs.push.load_parent")
    pc_pstore = tb.pc("bfs.push.store_parent")
    pc_qstore = tb.pc("bfs.push.store_queue")
    pc_bset = tb.pc("bfs.pull.store_bitmap")
    pc_scan = tb.pc("bfs.pull.load_parent_seq")
    pc_ioa = tb.pc("bfs.pull.load_in_oa")
    pc_ina = tb.pc("bfs.pull.load_in_na")
    pc_bget = tb.pc("bfs.pull.load_bitmap")
    pc_pullw = tb.pc("bfs.pull.store_parent")

    parent = np.full(n, -1, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source], dtype=np.int64)
    out_deg = np.diff(graph.out_oa).astype(np.int64)
    edges_to_check = int(out_deg.sum())

    while len(frontier) and not tb.full:
        scout = int(out_deg[frontier].sum())
        if scout > edges_to_check // ALPHA and len(frontier) > 1:
            frontier = _trace_bfs_pull_phase(
                tb, graph, parent, frontier, n,
                (ioa_r, ina_r, parent_r, bitmap_r),
                (pc_bset, pc_scan, pc_ioa, pc_ina, pc_bget, pc_pullw))
        else:
            frontier = _trace_bfs_push_step(
                tb, graph, parent, frontier,
                (oa_r, na_r, parent_r, queue_r),
                (pc_q, pc_oa, pc_na, pc_pload, pc_pstore, pc_qstore))
        edges_to_check -= scout

    trace_bfs.last_parent = parent
    return tb.build()


def _trace_bfs_push_step(tb, graph, parent, frontier, regions, pcs):
    oa_r, na_r, parent_r, queue_r = regions
    pc_q, pc_oa, pc_na, pc_pload, pc_pstore, pc_qstore = pcs
    oa, na = graph.out_oa, graph.out_na
    counts = (oa[frontier + 1] - oa[frontier]).astype(np.int64)
    eidx = _edge_indices(oa, frontier)
    dsts = na[eidx].astype(np.int64)

    fresh = parent[dsts] == -1
    # First writer wins within the step (CAS semantics).
    first = np.zeros(len(dsts), dtype=bool)
    if len(dsts):
        uniq, first_idx = np.unique(dsts, return_index=True)
        first[first_idx] = True
    store_mask = fresh & first

    qpos = np.arange(len(frontier), dtype=np.int64) % queue_r.num_elems
    tb.append_stream(
        counts,
        header=[SegmentField(pc_q, queue_r.addr(qpos), gap=1),
                SegmentField(pc_oa, oa_r.addr(frontier), gap=1)],
        edge=[SegmentField(pc_na, na_r.addr(eidx), gap=1, unroll=UNROLL),
              SegmentField(pc_pload, parent_r.addr(dsts), gap=2,
                           dep_rel=-1, unroll=UNROLL),
              SegmentField(pc_pstore, parent_r.addr(dsts), write=True,
                           gap=1, dep_rel=-1, mask=store_mask,
                           unroll=UNROLL)],
        footer=[])

    won = dsts[store_mask]
    srcs = np.repeat(frontier, counts)[store_mask]
    parent[won] = srcs
    if len(won):
        qpos = np.arange(len(won), dtype=np.int64) % queue_r.num_elems
        tb.emit(pc_qstore, queue_r.addr(qpos), write=True, gap=1)
    return won


def _trace_bfs_pull_phase(tb, graph, parent, frontier, n, regions, pcs):
    ioa_r, ina_r, parent_r, bitmap_r = regions
    pc_bset, pc_scan, pc_ioa, pc_ina, pc_bget, pc_pullw = pcs
    oa, na = graph.in_oa, graph.in_na
    in_frontier = np.zeros(n, dtype=bool)
    in_frontier[frontier] = True
    # Record the frontier's depth values (irregular stores).
    tb.emit(pc_bset, bitmap_r.addr(np.sort(frontier)), write=True,
            gap=1)

    while not tb.full:
        unvisited = parent == -1
        uv = np.flatnonzero(unvisited)
        # The bottom-up scan reads parent[] for every vertex sequentially;
        # unvisited ones then walk their in-edges until the first frontier
        # neighbour (early exit).
        deg = np.diff(oa).astype(np.int64)
        scanned = np.zeros(n, dtype=np.int64)
        found_parent = np.full(n, -1, dtype=np.int64)
        if len(uv):
            eidx = _edge_indices(oa, uv)
            neigh = na[eidx].astype(np.int64)
            hit = in_frontier[neigh]
            ucounts = deg[uv]
            starts = np.zeros(len(uv), dtype=np.int64)
            np.cumsum(ucounts[:-1], out=starts[1:])
            within = np.arange(len(eidx), dtype=np.int64) - \
                np.repeat(starts, ucounts)
            cand = np.where(hit, within, _BIG)
            nonempty = ucounts > 0
            firsthit = np.full(len(uv), _BIG, dtype=np.int64)
            if nonempty.any():
                red = np.minimum.reduceat(cand, starts[nonempty])
                firsthit[nonempty] = red
            got = firsthit < _BIG
            scanned[uv] = np.where(got, firsthit + 1, ucounts)
            # Record which frontier neighbour was found.
            if got.any():
                hit_edge = starts[got] + firsthit[got]
                found_parent[uv[got]] = neigh[hit_edge]

        # Emit the scan: sequential parent loads for all vertices, edge
        # scans only for unvisited ones.
        verts = np.arange(n, dtype=np.int64)
        counts = scanned
        scan_eidx = _edge_indices_partial(oa, verts, counts)
        scan_neigh = na[scan_eidx].astype(np.int64)
        new_mask = found_parent >= 0
        tb.append_stream(
            counts,
            header=[SegmentField(pc_scan, parent_r.addr(verts), gap=1),
                    SegmentField(pc_ioa, ioa_r.addr(verts), gap=1,
                                 mask=unvisited)],
            edge=[SegmentField(pc_ina, ina_r.addr(scan_eidx), gap=1,
                               unroll=UNROLL),
                  SegmentField(pc_bget,
                               bitmap_r.addr(scan_neigh), gap=1,
                               dep_rel=-1, unroll=UNROLL)],
            footer=[SegmentField(pc_pullw, parent_r.addr(verts),
                                 write=True, gap=1, mask=new_mask)])

        newly = np.flatnonzero(new_mask)
        parent[newly] = found_parent[newly]
        if len(newly) == 0:
            return newly
        if len(newly) < n // BETA:
            return newly
        in_frontier[:] = False
        in_frontier[newly] = True
        tb.emit(pc_bset, bitmap_r.addr(newly), write=True, gap=1)
    return np.empty(0, dtype=np.int64)


def _edge_indices_partial(oa: np.ndarray, verts: np.ndarray,
                          counts: np.ndarray) -> np.ndarray:
    """First ``counts[i]`` NA indices of each vertex (early-exit scans)."""
    starts = oa[verts].astype(np.int64)
    return np.repeat(starts, counts) + _ragged_arange(counts)


# ---------------------------------------------------------------------------
# Connected Components: Shiloach–Vishkin.
# ---------------------------------------------------------------------------

def trace_cc(graph: CSRGraph, max_accesses: int | None = None,
             max_rounds: int = 64, window: int | None = None) -> Trace:
    """Trace of Shiloach–Vishkin CC (hook + pointer-jump rounds)."""
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("out_oa", 8, n + 1)
    na_r = space.add("out_na", 4, len(graph.out_na))
    comp_r = space.add("comp", 4, n, irregular_hint=True)

    tb = TraceBuilder(space, name=f"cc.{graph.name}", kernel="cc",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_oa = tb.pc("cc.hook.load_oa")
    pc_na = tb.pc("cc.hook.load_na")
    pc_cu = tb.pc("cc.hook.load_comp_u")
    pc_cv = tb.pc("cc.hook.load_comp_v")
    pc_hook = tb.pc("cc.hook.store_comp")
    pc_j1 = tb.pc("cc.jump.load_comp")
    pc_j2 = tb.pc("cc.jump.load_comp_comp")
    pc_jw = tb.pc("cc.jump.store_comp")

    comp = np.arange(n, dtype=np.int64)
    verts = np.arange(n, dtype=np.int64)
    counts = np.diff(graph.out_oa).astype(np.int64)
    eidx = np.arange(len(graph.out_na), dtype=np.int64)
    dsts = graph.out_na.astype(np.int64)
    srcs = np.repeat(verts, counts)

    for _ in range(max_rounds):
        if tb.full:
            break
        cs, cd = comp[srcs], comp[dsts]
        lo, hi = np.minimum(cs, cd), np.maximum(cs, cd)
        # The hooking rule of cc.py (deterministic in the edge order).
        win = np.zeros(len(eidx), dtype=bool)
        win[hooking_edges(lo, hi, n)] = True

        tb.append_stream(
            counts,
            header=[SegmentField(pc_oa, oa_r.addr(verts + 1), gap=1),
                    SegmentField(pc_cu, comp_r.addr(verts), gap=1)],
            edge=[SegmentField(pc_na, na_r.addr(eidx), gap=1,
                               unroll=UNROLL),
                  SegmentField(pc_cv, comp_r.addr(dsts), gap=2,
                               dep_rel=-1, unroll=UNROLL),
                  SegmentField(pc_hook, comp_r.addr(hi), write=True,
                               gap=1, dep_rel=-1, mask=win,
                               unroll=UNROLL)],
            footer=[])
        if not win.any():
            break
        comp[hi[win]] = lo[win]

        # Pointer jumping until flat.
        while not tb.full:
            nxt = comp[comp]
            changed = nxt != comp
            tb.append_stream(
                np.zeros(n, dtype=np.int64),
                header=[SegmentField(pc_j1, comp_r.addr(verts), gap=1),
                        SegmentField(pc_j2, comp_r.addr(comp), gap=1,
                                     dep_rel=-1),
                        SegmentField(pc_jw, comp_r.addr(verts),
                                     write=True, gap=1, mask=changed)],
                edge=[], footer=[])
            if not changed.any():
                break
            comp = nxt

    trace_cc.last_comp = comp
    return tb.build()


# ---------------------------------------------------------------------------
# Triangle Counting: rank-oriented adjacency intersections.
# ---------------------------------------------------------------------------

def trace_tc(graph: CSRGraph, max_accesses: int | None = None,
             scan_cap: int = 16, window: int | None = None) -> Trace:
    """Trace of TC's intersection loop.

    For each oriented edge (u, v) the kernel loads v from NA, indexes
    OA[v] (the irregular access — v comes from graph data) and then scans
    a prefix of v's adjacency (capped at ``scan_cap``, standing in for the
    merge loop whose cost is bounded by the smaller list).
    """
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("out_oa", 8, n + 1, irregular_hint=True)
    na_r = space.add("out_na", 4, len(graph.out_na), irregular_hint=True)

    tb = TraceBuilder(space, name=f"tc.{graph.name}", kernel="tc",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_oau = tb.pc("tc.load_oa_u")
    pc_na = tb.pc("tc.load_na_edge")
    pc_oav = tb.pc("tc.load_oa_v")
    pc_scan = tb.pc("tc.load_na_scan")

    deg = np.diff(graph.out_oa).astype(np.int64)
    verts = np.arange(n, dtype=np.int64)
    # Rank orientation: keep edges toward higher (degree, id).
    rank = np.zeros(n, dtype=np.int64)
    rank[np.lexsort((verts, deg))] = np.arange(n)
    srcs = np.repeat(verts, deg)
    dsts = graph.out_na.astype(np.int64)
    keep = rank[srcs] < rank[dsts]
    eidx = np.flatnonzero(keep)
    srcs, dsts = srcs[keep], dsts[keep]

    # Per-u header stream: load OA[u] for each vertex (sequential).
    tb.append_stream(
        np.zeros(n, dtype=np.int64),
        header=[SegmentField(pc_oau, oa_r.addr(verts), gap=1)],
        edge=[], footer=[])

    scan_len = np.minimum(deg[dsts], scan_cap)
    scan_idx = _edge_indices_partial(graph.out_oa, dsts, scan_len)
    tb.append_stream(
        scan_len,
        header=[SegmentField(pc_na, na_r.addr(eidx), gap=1),
                SegmentField(pc_oav, oa_r.addr(dsts), gap=2, dep_rel=-1)],
        edge=[SegmentField(pc_scan, na_r.addr(scan_idx), gap=1,
                           dep_rel=None, unroll=UNROLL)],
        footer=[])
    return tb.build()


# ---------------------------------------------------------------------------
# Betweenness Centrality: Brandes forward/backward sweeps.
# ---------------------------------------------------------------------------

def trace_bc(graph: CSRGraph, num_sources: int = 2, seed: int = 0,
             max_accesses: int | None = None,
             window: int | None = None) -> Trace:
    """Trace of Brandes BC from a sample of sources (GAP-style)."""
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("out_oa", 8, n + 1)
    na_r = space.add("out_na", 4, len(graph.out_na))
    ioa_r = space.add("in_oa", 8, n + 1)
    ina_r = space.add("in_na", 4, len(graph.in_na))
    depth_r = space.add("depth", 4, n, irregular_hint=True)
    sigma_r = space.add("sigma", 4, n, irregular_hint=True)
    delta_r = space.add("delta", 8, n, irregular_hint=True)
    queue_r = space.add("frontier_queue", 4, max(n, 1))

    tb = TraceBuilder(space, name=f"bc.{graph.name}", kernel="bc",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_q = tb.pc("bc.fwd.load_queue")
    pc_oa = tb.pc("bc.fwd.load_oa")
    pc_na = tb.pc("bc.fwd.load_na")
    pc_dload = tb.pc("bc.fwd.load_depth")
    pc_dstore = tb.pc("bc.fwd.store_depth")
    pc_sload = tb.pc("bc.fwd.load_sigma")
    pc_sstore = tb.pc("bc.fwd.store_sigma")
    pc_bq = tb.pc("bc.bwd.load_queue")
    pc_bioa = tb.pc("bc.bwd.load_in_oa")
    pc_bina = tb.pc("bc.bwd.load_in_na")
    pc_bdep = tb.pc("bc.bwd.load_depth")
    pc_bsig = tb.pc("bc.bwd.load_sigma")
    pc_bdel_v = tb.pc("bc.bwd.load_delta_v")
    pc_bdel = tb.pc("bc.bwd.store_delta")

    rng = np.random.default_rng(seed)
    deg = np.diff(graph.out_oa).astype(np.int64)
    candidates = np.flatnonzero(deg > 0)
    if len(candidates) == 0:
        return tb.build()
    sources = rng.choice(candidates,
                         size=min(num_sources, len(candidates)),
                         replace=False)

    oa, na = graph.out_oa, graph.out_na
    ioa, ina = graph.in_oa, graph.in_na

    for s in sources:
        if tb.full:
            break
        depth = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)
        depth[int(s)] = 0
        sigma[int(s)] = 1.0
        levels = [np.array([int(s)], dtype=np.int64)]
        d = 0
        frontier = levels[0]
        while len(frontier) and not tb.full:
            counts = (oa[frontier + 1] - oa[frontier]).astype(np.int64)
            eidx = _edge_indices(oa, frontier)
            dsts = na[eidx].astype(np.int64)
            fresh = depth[dsts] == -1
            next_lvl = fresh | (depth[dsts] == d + 1)
            qpos = np.arange(len(frontier), dtype=np.int64) % n
            tb.append_stream(
                counts,
                header=[SegmentField(pc_q, queue_r.addr(qpos), gap=1),
                        SegmentField(pc_oa, oa_r.addr(frontier), gap=1)],
                edge=[SegmentField(pc_na, na_r.addr(eidx), gap=1,
                                   unroll=UNROLL),
                      SegmentField(pc_dload, depth_r.addr(dsts), gap=2,
                                   dep_rel=-1, unroll=UNROLL),
                      SegmentField(pc_dstore, depth_r.addr(dsts),
                                   write=True, gap=1, dep_rel=-1,
                                   mask=fresh, unroll=UNROLL),
                      SegmentField(pc_sload, sigma_r.addr(dsts), gap=1,
                                   dep_rel=-2, unroll=UNROLL),
                      SegmentField(pc_sstore, sigma_r.addr(dsts),
                                   write=True, gap=1, dep_rel=-1,
                                   mask=next_lvl, unroll=UNROLL)],
                footer=[])
            # Update algorithm state.
            np.add.at(sigma, dsts[next_lvl],
                      sigma[np.repeat(frontier, counts)[next_lvl]])
            depth[dsts[fresh]] = d + 1
            frontier = np.flatnonzero(depth == d + 1)
            if len(frontier):
                levels.append(frontier)
            d += 1

        # Backward accumulation (pull over in-edges, deepest level first).
        delta = np.zeros(n, dtype=np.float64)
        for frontier in reversed(levels[1:]):
            if tb.full:
                break
            counts = (ioa[frontier + 1] - ioa[frontier]).astype(np.int64)
            eidx = _edge_indices(ioa, frontier)
            preds = ina[eidx].astype(np.int64)
            vrep = np.repeat(frontier, counts)
            is_pred = depth[preds] == depth[vrep] - 1
            qpos = np.arange(len(frontier), dtype=np.int64) % n
            tb.append_stream(
                counts,
                header=[SegmentField(pc_bq, queue_r.addr(qpos), gap=1),
                        SegmentField(pc_bdel_v, delta_r.addr(frontier),
                                     gap=1),
                        SegmentField(pc_bioa, ioa_r.addr(frontier),
                                     gap=1)],
                edge=[SegmentField(pc_bina, ina_r.addr(eidx), gap=1,
                                   unroll=UNROLL),
                      SegmentField(pc_bdep, depth_r.addr(preds), gap=2,
                                   dep_rel=-1, unroll=UNROLL),
                      SegmentField(pc_bsig, sigma_r.addr(preds), gap=1,
                                   dep_rel=-2, unroll=UNROLL),
                      SegmentField(pc_bdel, delta_r.addr(preds),
                                   write=True, gap=2, dep_rel=-1,
                                   mask=is_pred, unroll=UNROLL)],
                footer=[])
            coeff = np.where(sigma[frontier] > 0,
                             (1.0 + delta[frontier]) / np.where(
                                 sigma[frontier] > 0, sigma[frontier], 1),
                             0.0)
            np.add.at(delta, preds[is_pred],
                      sigma[preds[is_pred]] *
                      np.repeat(coeff, counts)[is_pred])
    return tb.build()


# ---------------------------------------------------------------------------
# SSSP: Δ-stepping.
# ---------------------------------------------------------------------------

def trace_sssp(graph: CSRGraph, source: int = 0,
               delta: int | None = None,
               max_accesses: int | None = None,
               window: int | None = None) -> Trace:
    """Trace of Δ-stepping SSSP (bucketed Bellman-Ford relaxations)."""
    if graph.out_weights is None:
        raise ValueError("SSSP tracing requires a weighted graph")
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("out_oa", 8, n + 1)
    na_r = space.add("out_na", 4, len(graph.out_na))
    w_r = space.add("weights", 4, len(graph.out_na))
    dist_r = space.add("dist", 4, n, irregular_hint=True)
    bucket_r = space.add("bucket_queue", 4, max(n, 1))

    tb = TraceBuilder(space, name=f"sssp.{graph.name}", kernel="sssp",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_bq = tb.pc("sssp.load_bucket")
    pc_du = tb.pc("sssp.load_dist_u")
    pc_oa = tb.pc("sssp.load_oa")
    pc_na = tb.pc("sssp.load_na")
    pc_w = tb.pc("sssp.load_weight")
    pc_dv = tb.pc("sssp.load_dist_v")
    pc_st = tb.pc("sssp.store_dist")
    pc_bst = tb.pc("sssp.store_bucket")

    from repro.kernels.sssp import INF
    oa, na = graph.out_oa, graph.out_na
    w = graph.out_weights.astype(np.int64)
    if delta is None:
        delta = max(1, int(w.mean())) if len(w) else 1

    dist = np.full(n, INF, dtype=np.int64)
    dist[source] = 0
    current = 0

    while not tb.full:
        # Find the lowest non-empty bucket.
        finite = dist < INF
        unsettled = finite & (dist >= current * delta)
        if not unsettled.any():
            break
        current = int(dist[unsettled].min()) // delta
        lo, hi = current * delta, (current + 1) * delta

        # Settle bucket `current` with repeated light passes.  A vertex is
        # (re)processed whenever its distance is below the value it was
        # last processed at, so within-bucket improvements propagate.
        processed_dist = np.full(n, INF, dtype=np.int64)
        touched = np.zeros(n, dtype=bool)
        while not tb.full:
            in_bucket = (dist >= lo) & (dist < hi) & \
                (dist < processed_dist)
            f = np.flatnonzero(in_bucket)
            if len(f) == 0:
                break
            processed_dist[f] = dist[f]
            touched[f] = True
            if not _trace_sssp_relax(tb, graph, dist, f, w, delta,
                                     light=True, regions=(oa_r, na_r, w_r,
                                                          dist_r, bucket_r),
                                     pcs=(pc_bq, pc_du, pc_oa, pc_na, pc_w,
                                          pc_dv, pc_st, pc_bst)):
                break
        # One heavy pass over everything processed in this bucket.
        f = np.flatnonzero(touched)
        if len(f):
            _trace_sssp_relax(tb, graph, dist, f, w, delta, light=False,
                              regions=(oa_r, na_r, w_r, dist_r, bucket_r),
                              pcs=(pc_bq, pc_du, pc_oa, pc_na, pc_w,
                                   pc_dv, pc_st, pc_bst))
        current += 1

    trace_sssp.last_dist = dist
    return tb.build()


def _trace_sssp_relax(tb, graph, dist, frontier, w, delta, light,
                      regions, pcs) -> bool:
    """Relax the light or heavy out-edges of ``frontier``.

    Returns True when any distance improved.
    """
    oa_r, na_r, w_r, dist_r, bucket_r = regions
    pc_bq, pc_du, pc_oa, pc_na, pc_w, pc_dv, pc_st, pc_bst = pcs
    oa, na = graph.out_oa, graph.out_na
    counts = (oa[frontier + 1] - oa[frontier]).astype(np.int64)
    eidx = _edge_indices(oa, frontier)
    dsts = na[eidx].astype(np.int64)
    we = w[eidx]
    sel = (we < delta) if light else (we >= delta)
    cand = np.repeat(dist[frontier], counts) + we
    improved = sel & (cand < dist[dsts])
    qpos = np.arange(len(frontier), dtype=np.int64) % bucket_r.num_elems

    tb.append_stream(
        counts,
        header=[SegmentField(pc_bq, bucket_r.addr(qpos), gap=1),
                SegmentField(pc_du, dist_r.addr(frontier), gap=1),
                SegmentField(pc_oa, oa_r.addr(frontier), gap=1)],
        edge=[SegmentField(pc_na, na_r.addr(eidx), gap=1, unroll=UNROLL),
              SegmentField(pc_w, w_r.addr(eidx), gap=1, unroll=UNROLL),
              SegmentField(pc_dv, dist_r.addr(dsts), gap=2, dep_rel=-2,
                           unroll=UNROLL),
              SegmentField(pc_st, dist_r.addr(dsts), write=True, gap=1,
                           dep_rel=-1, mask=improved, unroll=UNROLL)],
        footer=[])
    if improved.any():
        # Min-reduce concurrent relaxations of the same destination.
        np.minimum.at(dist, dsts[improved], cand[improved])
        nq = np.flatnonzero(improved)
        tb.emit(pc_bst,
                bucket_r.addr(np.arange(len(nq)) % bucket_r.num_elems),
                write=True, gap=1)
        return True
    return False


# ---------------------------------------------------------------------------
# Random walks: node2vec-style sampling (post-paper family, docs/WORKLOADS.md).
# ---------------------------------------------------------------------------

def trace_rw(graph: CSRGraph, num_walks: int = 64,
             walk_length: int = 16, seed: int = 0,
             restart: float = 0.15,
             max_accesses: int | None = None,
             window: int | None = None) -> Trace:
    """Trace of seeded random walks (mirrors ``kernels.random_walks``).

    Per step and walker: a sequential walk-state load, an irregular
    OA load at the walker's current vertex, a dependent NA load of the
    sampled neighbour, and an irregular visit-counter store — a pure
    pointer-chase with almost no spatial reuse, the adversarial case
    for stride prefetchers and the friendly case for LP/SDC.
    """
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("out_oa", 8, n + 1, irregular_hint=True)
    na_r = space.add("out_na", 4, max(len(graph.out_na), 1),
                     irregular_hint=True)
    visit_r = space.add("visits", 4, max(n, 1), irregular_hint=True)
    walk_r = space.add("walk_state", 4, max(num_walks, 1))

    tb = TraceBuilder(space, name=f"rw.{graph.name}", kernel="rw",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_walk = tb.pc("rw.load_walk_state")
    pc_oa = tb.pc("rw.load_oa")
    pc_na = tb.pc("rw.load_na_sample")
    pc_visit = tb.pc("rw.store_visit")

    if n == 0 or num_walks <= 0:
        return tb.build()
    rng = np.random.default_rng(seed)
    deg = np.diff(graph.out_oa).astype(np.int64)
    candidates = np.flatnonzero(deg > 0)
    if len(candidates) == 0:
        return tb.build()
    starts = candidates[rng.integers(0, len(candidates),
                                     size=num_walks)]
    cur = starts.copy()
    walk_ids = np.arange(num_walks, dtype=np.int64)
    tb.emit(pc_visit, visit_r.addr(cur), write=True, gap=1)

    for _ in range(walk_length):
        if tb.full:
            break
        teleport = rng.random(num_walks) < restart
        pick = rng.random(num_walks)
        d = deg[cur]
        teleport |= d == 0
        offs = np.minimum((pick * np.maximum(d, 1)).astype(np.int64),
                          np.maximum(d - 1, 0))
        eidx = graph.out_oa[cur].astype(np.int64) + offs
        nxt = np.where(teleport, starts,
                       graph.out_na[eidx].astype(np.int64))
        counts = np.where(teleport, 0, 1).astype(np.int64)
        tb.append_stream(
            counts,
            header=[SegmentField(pc_walk, walk_r.addr(walk_ids), gap=1),
                    SegmentField(pc_oa, oa_r.addr(cur), gap=1)],
            edge=[SegmentField(pc_na, na_r.addr(eidx[~teleport]),
                               gap=2, dep_rel=-1)],
            footer=[SegmentField(pc_visit, visit_r.addr(nxt),
                                 write=True, gap=1)])
        cur = nxt
    return tb.build()


# ---------------------------------------------------------------------------
# Gather-scatter: GNN feature aggregation (post-paper family).
# ---------------------------------------------------------------------------

def trace_gs(graph: CSRGraph, feature_dim: int = 16, rounds: int = 2,
             max_accesses: int | None = None,
             window: int | None = None) -> Trace:
    """Trace of mean feature aggregation (``kernels.gather_scatter``).

    Shaped like PageRank's pull — OA walk, NA loads, data-dependent
    gathers — but the irregular element is a whole ``4 * feature_dim``
    byte feature row instead of a 4 B scalar, so each gather spans
    multiple cache lines (the large-irregular-element case the paper's
    Table II does not cover).
    """
    n = graph.num_vertices
    space = AddressSpace()
    oa_r = space.add("in_oa", 8, n + 1)
    na_r = space.add("in_na", 4, max(len(graph.in_na), 1))
    feat_r = space.add("feat_in", 4 * feature_dim, max(n, 1),
                       irregular_hint=True)
    out_r = space.add("feat_out", 4 * feature_dim, max(n, 1))

    tb = TraceBuilder(space, name=f"gs.{graph.name}", kernel="gs",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_oa = tb.pc("gs.load_oa")
    pc_na = tb.pc("gs.load_na")
    pc_gather = tb.pc("gs.load_feat")
    pc_self = tb.pc("gs.load_feat_self")
    pc_store = tb.pc("gs.store_feat")

    verts = np.arange(n, dtype=np.int64)
    counts = np.diff(graph.in_oa).astype(np.int64)
    edge_idx = np.arange(len(graph.in_na), dtype=np.int64)
    neigh = graph.in_na.astype(np.int64)

    for _ in range(rounds):
        tb.append_stream(
            counts,
            header=[SegmentField(pc_oa, oa_r.addr(verts + 1), gap=1)],
            edge=[SegmentField(pc_na, na_r.addr(edge_idx), gap=1,
                               unroll=UNROLL),
                  SegmentField(pc_gather, feat_r.addr(neigh), gap=2,
                               dep_rel=-1, unroll=UNROLL)],
            footer=[SegmentField(pc_self, feat_r.addr(verts), gap=2),
                    SegmentField(pc_store, out_r.addr(verts),
                                 write=True, gap=3)])
        if tb.full:
            break
    return tb.build()


# ---------------------------------------------------------------------------
# Dynamic-graph updates interleaved with queries (post-paper family).
# ---------------------------------------------------------------------------

def trace_dyn(graph: CSRGraph, batches: int = 4, batch_size: int = 256,
              seed: int = 0, max_accesses: int | None = None,
              window: int | None = None) -> Trace:
    """Trace of update batches + queries (``kernels.dynamic_updates``).

    Each batch's update phase *mutates structure* — irregular degree
    stores, NA tombstone writes, sequential insert-log appends —
    which no static GAP kernel ever does; the following query phase is
    a BFS reachability probe (even batches) or a PageRank-style
    scatter (odd batches) over the live overlay, with a sequential
    insert-log rescan per step.  RNG draws replicate the reference
    kernel's order exactly, so the trace is a pure function of
    ``(graph, batches, batch_size, seed)``.
    """
    n = graph.num_vertices
    e = graph.num_edges
    space = AddressSpace()
    oa_r = space.add("out_oa", 8, n + 1, irregular_hint=True)
    na_r = space.add("out_na", 4, max(e, 1), irregular_hint=True)
    deg_r = space.add("degree", 4, max(n, 1), irregular_hint=True)
    log_r = space.add("insert_log", 8,
                      max(batches * batch_size, 1))
    seen_r = space.add("seen", 4, max(n, 1), irregular_hint=True)
    mass_r = space.add("mass", 4, max(n, 1), irregular_hint=True)

    tb = TraceBuilder(space, name=f"dyn.{graph.name}", kernel="dyn",
                      graph=graph.name, limit=max_accesses,
                      window=window)
    pc_doa = tb.pc("dyn.del.load_oa")
    pc_dna = tb.pc("dyn.del.store_na_tombstone")
    pc_ddeg = tb.pc("dyn.del.store_degree")
    pc_ioa = tb.pc("dyn.ins.load_oa")
    pc_ilog = tb.pc("dyn.ins.store_log")
    pc_ideg = tb.pc("dyn.ins.store_degree")
    pc_qoa = tb.pc("dyn.bfs.load_oa")
    pc_qna = tb.pc("dyn.bfs.load_na")
    pc_qseen = tb.pc("dyn.bfs.load_seen")
    pc_qset = tb.pc("dyn.bfs.store_seen")
    pc_qlog = tb.pc("dyn.query.load_log")
    pc_poa = tb.pc("dyn.pr.load_oa")
    pc_pna = tb.pc("dyn.pr.load_na")
    pc_pmass = tb.pc("dyn.pr.load_mass")
    pc_pst = tb.pc("dyn.pr.store_mass")

    if n == 0:
        return tb.build()
    rng = np.random.default_rng(seed)
    alive = np.ones(e, dtype=bool)
    src_of = np.repeat(np.arange(n, dtype=np.int64),
                       np.diff(graph.out_oa))
    log_len = 0

    for b in range(batches):
        if tb.full:
            break
        # Update phase: deletions then insertions (kernel's RNG order).
        ndel = min(batch_size // 2, e)
        if ndel:
            del_idx = rng.integers(0, e, size=ndel)
            alive[del_idx] = False
            du = src_of[del_idx]
            tb.append_stream(
                np.zeros(ndel, dtype=np.int64),
                header=[SegmentField(pc_doa, oa_r.addr(du), gap=1),
                        SegmentField(pc_dna, na_r.addr(del_idx),
                                     write=True, gap=1),
                        SegmentField(pc_ddeg, deg_r.addr(du),
                                     write=True, gap=2)],
                edge=[], footer=[])
        new = rng.integers(0, n, size=(batch_size - ndel, 2))
        new = new[new[:, 0] != new[:, 1]]
        if len(new):
            slots = log_len + np.arange(len(new), dtype=np.int64)
            log_len += len(new)
            tb.append_stream(
                np.zeros(len(new), dtype=np.int64),
                header=[SegmentField(pc_ioa, oa_r.addr(new[:, 0]),
                                     gap=1),
                        SegmentField(pc_ilog, log_r.addr(slots),
                                     write=True, gap=1),
                        SegmentField(pc_ideg, deg_r.addr(new[:, 0]),
                                     write=True, gap=2)],
                edge=[], footer=[])
        if tb.full:
            break
        # Query phase: BFS probe (even) / PR scatter (odd).
        if b % 2 == 0:
            _trace_dyn_bfs(tb, graph, alive, int(rng.integers(0, n)),
                           log_len, (oa_r, na_r, seen_r, log_r),
                           (pc_qoa, pc_qna, pc_qseen, pc_qset, pc_qlog))
        else:
            _trace_dyn_pr(tb, graph, alive, log_len,
                          (oa_r, na_r, mass_r, log_r),
                          (pc_poa, pc_pna, pc_pmass, pc_pst, pc_qlog))
    return tb.build()


def _trace_dyn_bfs(tb, graph, alive, source, log_len, regions, pcs):
    """BFS reachability probe over the live overlay (push only)."""
    oa_r, na_r, seen_r, log_r = regions
    pc_oa, pc_na, pc_seen, pc_set, pc_log = pcs
    n = graph.num_vertices
    oa, na = graph.out_oa, graph.out_na
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    while len(frontier) and not tb.full:
        counts = (oa[frontier + 1] - oa[frontier]).astype(np.int64)
        eidx = _edge_indices(oa, frontier)
        dsts = na[eidx].astype(np.int64)
        fresh = alive[eidx] & ~seen[dsts]
        first = np.zeros(len(dsts), dtype=bool)
        if len(dsts):
            _, first_idx = np.unique(dsts, return_index=True)
            first[first_idx] = True
        store = fresh & first
        tb.append_stream(
            counts,
            header=[SegmentField(pc_oa, oa_r.addr(frontier), gap=1)],
            edge=[SegmentField(pc_na, na_r.addr(eidx), gap=1,
                               unroll=UNROLL),
                  SegmentField(pc_seen, seen_r.addr(dsts), gap=2,
                               dep_rel=-1, unroll=UNROLL),
                  SegmentField(pc_set, seen_r.addr(dsts), write=True,
                               gap=1, dep_rel=-1, mask=store,
                               unroll=UNROLL)],
            footer=[])
        if log_len:
            tb.emit(pc_log,
                    log_r.addr(np.arange(log_len, dtype=np.int64)),
                    gap=1)
        nxt = np.unique(dsts[store])
        seen[nxt] = True
        frontier = nxt


def _trace_dyn_pr(tb, graph, alive, log_len, regions, pcs):
    """One PageRank-style scatter pass over the live overlay."""
    oa_r, na_r, mass_r, log_r = regions
    pc_oa, pc_na, pc_mass, pc_st, pc_log = pcs
    n = graph.num_vertices
    verts = np.arange(n, dtype=np.int64)
    counts = np.diff(graph.out_oa).astype(np.int64)
    eidx = np.arange(graph.num_edges, dtype=np.int64)
    dsts = graph.out_na.astype(np.int64)
    tb.append_stream(
        counts,
        header=[SegmentField(pc_oa, oa_r.addr(verts + 1), gap=1)],
        edge=[SegmentField(pc_na, na_r.addr(eidx), gap=1,
                           unroll=UNROLL),
              SegmentField(pc_mass, mass_r.addr(dsts), gap=2,
                           dep_rel=-1, unroll=UNROLL),
              SegmentField(pc_st, mass_r.addr(dsts), write=True, gap=1,
                           dep_rel=-1, mask=alive, unroll=UNROLL)],
        footer=[])
    if log_len:
        tb.emit(pc_log, log_r.addr(np.arange(log_len, dtype=np.int64)),
                gap=1)


TRACERS = {
    "pr": trace_pagerank,
    "bfs": trace_bfs,
    "cc": trace_cc,
    "tc": trace_tc,
    "bc": trace_bc,
    "sssp": trace_sssp,
    "rw": trace_rw,
    "gs": trace_gs,
    "dyn": trace_dyn,
}


def generate_trace(kernel: str, graph: CSRGraph,
                   max_accesses: int | None = None,
                   window: int | None = None, **kwargs) -> Trace:
    """Dispatch to the instrumented kernel by short name.

    ``kernel`` is one of :data:`TRACERS` — the six GAP kernels
    (``bfs``/``pr``/``cc``/``bc``/``tc``/``sssp``) plus the
    post-paper families (``rw``/``gs``/``dyn``, docs/WORKLOADS.md);
    ``graph`` is the CSR input the algorithm actually runs over, so
    the trace reflects that graph's degree distribution and neighbour
    ordering.

    ``max_accesses`` caps the run.  It is the :class:`TraceBuilder`'s
    ``limit``: a loop nest's stream is kept only up to the shortest
    vertex prefix that fills it, and the real algorithm
    (frontiers/rounds/buckets) stops at the first round boundary after
    the builder is full.  The trace is then the run's first
    ``max_accesses`` records, exactly the unbounded trace's leading
    ones.  ``window`` keeps only the last ``window`` of them — equal
    to cutting that trace with ``Trace.slice(n - window, n)`` — and
    the builder assembles no record before the window.  This is how a
    workload's mid-stream window is traced (``max_accesses`` =
    ``WINDOW_OVERGEN_FACTOR`` × ``window``, docs/WORKLOADS.md).
    ``None`` traces the run to completion (can be very large) or keeps
    all of it.

    Remaining ``kwargs`` pass through to the specific tracer:
    ``iterations`` (pr), ``source`` (bfs/sssp), ``num_sources``/
    ``seed`` (bc), ``delta`` (sssp), ``max_rounds`` (cc), ``scan_cap``
    (tc), ``num_walks``/``walk_length``/``seed``/``restart`` (rw),
    ``feature_dim``/``rounds`` (gs), ``batches``/``batch_size``/
    ``seed`` (dyn).  The result is deterministic in
    ``(kernel, graph, arguments)`` — there is no hidden RNG — which is
    what lets the trace cache key on the spec alone (docs/TRACES.md).

    Generation is pure: the returned in-memory :class:`Trace` is not
    cached or written anywhere.  For cached, memory-mapped workload
    traces go through
    :func:`repro.experiments.workloads.workload_trace`.
    """
    try:
        fn = TRACERS[kernel]
    except KeyError:
        raise ValueError(f"unknown kernel {kernel!r}; "
                         f"choose from {sorted(TRACERS)}") from None
    return fn(graph, max_accesses=max_accesses, window=window, **kwargs)
