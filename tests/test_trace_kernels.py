"""Tests for the instrumented (trace-emitting) kernels.

Two families of checks: (1) the tracer computes the same algorithmic
result as the reference kernel, and (2) the emitted stream is
structurally faithful — addresses land in the right regions, dependency
links point at the producing NA load, and the per-region access counts
match what the algorithm must touch.
"""

import numpy as np
import pytest

from repro.graphs.generators import (grid_road_graph, kronecker_graph,
                                     uniform_random_graph)
from repro.kernels import bfs as ref_bfs
from repro.kernels import connected_components as ref_cc
from repro.kernels import sssp as ref_sssp
from repro.kernels.common import pick_source
from repro.trace.kernels import (TRACERS, generate_trace, trace_bc,
                                 trace_bfs, trace_cc, trace_pagerank,
                                 trace_sssp, trace_tc)


@pytest.fixture(scope="module")
def kron():
    return kronecker_graph(9, 6, seed=21)


@pytest.fixture(scope="module")
def road():
    return grid_road_graph(12, seed=22)


@pytest.fixture(scope="module")
def full_trace(kron, road):
    """Memoised unbounded trace per tracer."""
    traces = {}

    def get(kernel):
        if kernel not in traces:
            graph = road if kernel == "sssp" else kron
            traces[kernel] = generate_trace(kernel, graph)
        return traces[kernel]
    return get


#: (tracer, window length L, boundary case) for the tail-window test.
#: On this module's graphs, a ``mid-run`` window starts inside an
#: unrolled edge run (its first record is in a lane past 0), a
#: ``masked`` one starts right after a masked-out record (found by
#: instrumenting the builder; rw has no masked or unrolled site), and
#: a ``short`` run ends before its ``3 L`` budget.
TAIL_WINDOWS = [
    ("bc", 50, "mid-run"), ("bc", 1000, "masked"), ("bc", 25000, "short"),
    ("bfs", 15, "mid-run"), ("bfs", 379, "masked"),
    ("bfs", 1549, "short"),
    ("cc", 7, "mid-run"), ("cc", 1201, "masked"), ("cc", 20000, "short"),
    ("dyn", 834, "mid-run"), ("dyn", 998, "masked"),
    ("dyn", 10760, "short"),
    ("gs", 97, "mid-run"), ("gs", 20000, "short"),
    ("pr", 1000, "mid-run"), ("pr", 20000, "short"),
    ("rw", 50, "-"), ("rw", 3001, "short"),
    ("sssp", 97, "mid-run"), ("sssp", 301, "masked"),
    ("sssp", 3001, "short"),
    ("tc", 301, "mid-run"), ("tc", 20000, "short"),
]


def region_counts(trace):
    space = trace.address_space
    rids = space.classify_addresses(trace.accesses["addr"].astype(np.int64))
    names = list(space.regions)
    return {names[i]: int((rids == i).sum()) for i in range(len(names))}


class TestCommon:
    @pytest.mark.parametrize("kernel", sorted(TRACERS))
    def test_all_tracers_produce_valid_traces(self, kernel, kron, road):
        graph = road if kernel == "sssp" else kron
        trace = generate_trace(kernel, graph, max_accesses=30_000)
        trace.validate()
        assert len(trace) > 100
        assert trace.kernel == kernel

    @pytest.mark.parametrize("kernel", sorted(TRACERS))
    def test_all_addresses_mapped(self, kernel, kron, road):
        graph = road if kernel == "sssp" else kron
        trace = generate_trace(kernel, graph, max_accesses=20_000)
        rids = trace.address_space.classify_addresses(
            trace.accesses["addr"].astype(np.int64))
        assert (rids >= 0).all(), f"{kernel}: unmapped addresses"

    @pytest.mark.parametrize("kernel", sorted(TRACERS))
    def test_max_accesses_respected(self, kernel, kron, road):
        graph = road if kernel == "sssp" else kron
        trace = generate_trace(kernel, graph, max_accesses=5_000)
        assert len(trace) <= 5_000

    @pytest.mark.parametrize("max_accesses", [1, 100, 5_000, 20_000])
    @pytest.mark.parametrize("kernel", sorted(TRACERS))
    def test_window_is_the_full_traces_prefix(self, kernel, max_accesses,
                                              kron, road, full_trace):
        """The bounded builder stops building at the window, and what
        it does build is the unbounded trace's leading records."""
        graph = road if kernel == "sssp" else kron
        window = generate_trace(kernel, graph, max_accesses=max_accesses)
        want = full_trace(kernel).slice(0, max_accesses)
        assert window.accesses.tobytes() == want.accesses.tobytes()

    def test_tail_windows_cover_every_tracer(self):
        assert {kernel for kernel, _, _ in TAIL_WINDOWS} == set(TRACERS)

    @pytest.mark.parametrize("kernel,length,case", TAIL_WINDOWS,
                             ids=lambda v: str(v))
    def test_window_is_the_runs_tail(self, kernel, length, case, kron,
                                     road):
        """``window=L`` of a ``3 L`` run is that run's trace cut with
        ``Trace.slice``, though the builder assembles only the window."""
        graph = road if kernel == "sssp" else kron
        run = generate_trace(kernel, graph, max_accesses=3 * length)
        n = len(run)
        want = run.slice(max(0, n - length), n)
        window = generate_trace(kernel, graph, max_accesses=3 * length,
                                window=length)
        assert window.accesses.tobytes() == want.accesses.tobytes()
        if case == "short":
            assert n < 3 * length
        elif case == "mid-run":
            # PCs are 36 bytes apart per site and 4 per unroll lane.
            pc = int(window.accesses["pc"][0])
            assert (pc - 0x40_0000) % 36 // 4 > 0

    def test_unknown_kernel_raises(self, kron):
        with pytest.raises(ValueError, match="unknown kernel"):
            generate_trace("nope", kron)


class TestPageRankTrace:
    def test_region_access_counts(self, kron):
        """One full PR iteration touches every data structure a known
        number of times (Algorithm 1)."""
        n = kron.num_vertices
        m = len(kron.in_na)
        trace = trace_pagerank(kron, iterations=1)
        counts = region_counts(trace)
        assert counts["in_na"] == m                 # one NA load per edge
        assert counts["outgoing_contrib"] == n + m  # n stores + m gathers
        assert counts["scores"] == 3 * n            # contrib + load + store
        assert counts["in_oa"] == n

    def test_gather_depends_on_na_load(self, kron):
        trace = trace_pagerank(kron, iterations=1)
        acc = trace.accesses
        space = trace.address_space
        na, contrib = space["in_na"], space["outgoing_contrib"]
        gather = np.flatnonzero(
            (acc["addr"] >= np.uint64(contrib.base))
            & (acc["addr"] < np.uint64(contrib.end)) & (acc["write"] == 0))
        deps = acc["dep"][gather]
        assert (deps >= 0).all()
        dep_addrs = acc["addr"][deps]
        assert ((dep_addrs >= np.uint64(na.base))
                & (dep_addrs < np.uint64(na.end))).all()

    def test_gather_addresses_follow_graph(self, kron):
        """The contrib gather stream must equal contrib.addr(NA)."""
        trace = trace_pagerank(kron, iterations=1)
        acc = trace.accesses
        space = trace.address_space
        contrib = space["outgoing_contrib"]
        loads = acc[(acc["addr"] >= np.uint64(contrib.base))
                    & (acc["addr"] < np.uint64(contrib.end))
                    & (acc["write"] == 0)]
        expected = contrib.addr(kron.in_na.astype(np.int64))
        assert np.array_equal(loads["addr"].astype(np.int64), expected)

    def test_writes_only_to_property_arrays(self, kron):
        trace = trace_pagerank(kron, iterations=1)
        acc = trace.accesses
        space = trace.address_space
        stores = acc[acc["write"] == 1]
        for region_name in ("in_oa", "in_na"):
            r = space[region_name]
            inside = ((stores["addr"] >= np.uint64(r.base))
                      & (stores["addr"] < np.uint64(r.end)))
            assert not inside.any()

    def test_iterations_scale_length(self, kron):
        one = trace_pagerank(kron, iterations=1)
        two = trace_pagerank(kron, iterations=2)
        assert len(two) == 2 * len(one)


class TestBFSTrace:
    def test_reaches_same_vertices_as_reference(self, kron):
        src = pick_source(kron, seed=5)
        trace_bfs(kron, source=src)
        ref = ref_bfs(kron, src)
        assert ((trace_bfs.last_parent >= 0) == (ref >= 0)).all()

    def test_parent_claims_once_per_vertex(self, kron):
        src = pick_source(kron, seed=5)
        trace = trace_bfs(kron, source=src)
        acc = trace.accesses
        parent = trace.address_space["parent"]
        claims = acc[(acc["write"] == 1)
                     & (acc["addr"] >= np.uint64(parent.base))
                     & (acc["addr"] < np.uint64(parent.end))]
        # Each vertex's parent is stored at most twice (push CAS + the
        # pull phase writes once per vertex).
        addrs, counts = np.unique(claims["addr"], return_counts=True)
        assert counts.max() <= 2

    def test_dense_graph_uses_pull_phase(self):
        g = kronecker_graph(8, 16, seed=23)
        src = pick_source(g, seed=0)
        trace = trace_bfs(g, source=src)
        bitmap = trace.address_space["depth"]
        acc = trace.accesses
        pulls = ((acc["addr"] >= np.uint64(bitmap.base))
                 & (acc["addr"] < np.uint64(bitmap.end)))
        assert pulls.any(), "expected bottom-up phase on a dense graph"

    def test_path_graph_stays_push(self):
        """Singleton frontiers never trigger the bottom-up heuristic."""
        from repro.graphs.csr import from_edges
        path = from_edges(np.array([[i, i + 1] for i in range(199)]),
                          num_vertices=200, symmetrize=True)
        trace = trace_bfs(path, source=0)
        bitmap = trace.address_space["depth"]
        acc = trace.accesses
        pulls = ((acc["addr"] >= np.uint64(bitmap.base))
                 & (acc["addr"] < np.uint64(bitmap.end)))
        assert not pulls.any()


class TestCCTrace:
    def test_components_match_reference(self, kron):
        trace_cc(kron)
        assert np.array_equal(trace_cc.last_comp, ref_cc(kron))

    def test_hook_stores_present(self, kron):
        trace = trace_cc(kron)
        acc = trace.accesses
        comp = trace.address_space["comp"]
        stores = acc[(acc["write"] == 1)
                     & (acc["addr"] >= np.uint64(comp.base))
                     & (acc["addr"] < np.uint64(comp.end))]
        assert len(stores) > 0

    def test_full_edge_scan_per_round(self, kron):
        trace = trace_cc(kron, max_rounds=1)
        counts = region_counts(trace)
        assert counts["out_na"] == len(kron.out_na)


class TestSSSPTrace:
    def test_distances_match_reference(self, road):
        trace_sssp(road, source=0)
        ref = ref_sssp(road, 0)
        assert np.array_equal(trace_sssp.last_dist, ref)

    def test_distances_match_on_powerlaw(self):
        g = kronecker_graph(8, 6, seed=24, weighted=True)
        src = pick_source(g, seed=1)
        trace_sssp(g, source=src)
        ref = ref_sssp(g, src)
        assert np.array_equal(trace_sssp.last_dist, ref)

    def test_unweighted_raises(self, kron):
        with pytest.raises(ValueError, match="weighted"):
            trace_sssp(kron, source=0)

    def test_weight_loads_accompany_na_loads(self, road):
        trace = trace_sssp(road, source=0)
        counts = region_counts(trace)
        assert counts["weights"] == counts["out_na"]


class TestTCTrace:
    def test_oa_indexed_by_graph_data(self, kron):
        """TC's OA[v] loads are the irregular stream: their addresses are
        determined by NA contents."""
        trace = trace_tc(kron)
        counts = region_counts(trace)
        assert counts["out_oa"] > kron.num_vertices  # per-edge OA loads

    def test_scan_cap_bounds_length(self, kron):
        short = trace_tc(kron, scan_cap=2)
        long = trace_tc(kron, scan_cap=16)
        assert len(short) < len(long)


class TestBCTrace:
    def test_produces_forward_and_backward_phases(self, kron):
        trace = trace_bc(kron, num_sources=1, seed=3)
        pcs = set(trace.accesses["pc"].tolist())
        assert len(pcs) > 8   # both sweeps' sites present

    def test_sigma_and_delta_touched(self, kron):
        trace = trace_bc(kron, num_sources=1, seed=3)
        counts = region_counts(trace)
        assert counts["sigma"] > 0
        assert counts["delta"] > 0

    def test_more_sources_longer_trace(self, kron):
        one = trace_bc(kron, num_sources=1, seed=3)
        two = trace_bc(kron, num_sources=2, seed=3)
        assert len(two) > len(one)
