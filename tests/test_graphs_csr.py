"""Unit + property tests for the CSR/CSC graph substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import CSRGraph, from_edges

EDGES = np.array([[0, 1], [0, 2], [1, 2], [2, 0], [3, 1]])


class TestFromEdges:
    def test_basic_counts(self):
        g = from_edges(EDGES)
        assert g.num_vertices == 4
        assert g.num_edges == 5

    def test_out_neighbors_sorted(self):
        g = from_edges(EDGES)
        assert list(g.out_neighbors(0)) == [1, 2]
        assert list(g.out_neighbors(3)) == [1]

    def test_in_neighbors(self):
        g = from_edges(EDGES)
        assert list(g.in_neighbors(1)) == [0, 3]
        assert list(g.in_neighbors(0)) == [2]

    def test_degrees(self):
        g = from_edges(EDGES)
        assert g.out_degree(0) == 2
        assert g.in_degree(2) == 2
        assert list(g.out_degrees()) == [2, 1, 1, 1]
        assert list(g.in_degrees()) == [1, 2, 2, 0]

    def test_self_loops_removed(self):
        g = from_edges(np.array([[0, 0], [0, 1], [1, 1]]), num_vertices=2)
        assert g.num_edges == 1

    def test_duplicates_removed(self):
        g = from_edges(np.array([[0, 1], [0, 1], [0, 1]]), num_vertices=2)
        assert g.num_edges == 1

    def test_dedup_disabled_keeps_duplicates(self):
        g = from_edges(np.array([[0, 1], [0, 1]]), num_vertices=2,
                       dedup=False)
        assert g.num_edges == 2

    def test_symmetrize_adds_reverse_edges(self):
        g = from_edges(np.array([[0, 1]]), num_vertices=2, symmetrize=True)
        assert g.num_edges == 2
        assert g.symmetric
        assert list(g.out_neighbors(1)) == [0]

    def test_symmetric_shares_csc_arrays(self):
        g = from_edges(EDGES, symmetrize=True)
        assert g.out_oa is g.in_oa
        assert g.out_na is g.in_na

    def test_weights_follow_edges(self):
        g = from_edges(np.array([[0, 1], [1, 0]]), num_vertices=2,
                       weights=np.array([7, 9]))
        assert g.out_edge_weights(0)[0] == 7
        assert g.out_edge_weights(1)[0] == 9

    def test_missing_weights_raises(self):
        g = from_edges(EDGES)
        with pytest.raises(ValueError):
            g.out_edge_weights(0)

    def test_empty_graph(self):
        g = from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            from_edges(np.array([1, 2, 3]))

    def test_id_past_num_vertices_raises(self):
        edges = np.array([[0, 1], [1, 9], [2, 3]])
        with pytest.raises(ValueError, match=r"vertex id 9 is outside "
                                             r"\[0, 5\) for num_vertices=5"):
            from_edges(edges, num_vertices=5)

    @pytest.mark.parametrize("num_vertices", (None, 4))
    def test_negative_id_raises(self, num_vertices):
        edges = np.array([[0, 1], [-2, 3]])
        with pytest.raises(ValueError, match="vertex id -2 is outside"):
            from_edges(edges, num_vertices=num_vertices)

    def test_weighted_duplicates_keep_the_first_weight(self):
        g = from_edges(np.array([[1, 0], [0, 1], [1, 0], [0, 1]]),
                       weights=np.array([5, 6, 7, 8]))
        assert list(g.out_weights) == [6, 5]
        assert list(g.in_weights) == [5, 6]

    def test_no_dedup_keeps_input_order_of_repeats(self):
        g = from_edges(np.array([[0, 1], [1, 1], [0, 1], [1, 0]]),
                       weights=np.array([5, 6, 7, 8]), dedup=False)
        assert list(g.out_na) == [1, 1, 0, 1]
        assert list(g.out_weights) == [5, 7, 8, 6]
        assert list(g.in_na) == [1, 0, 0, 1]
        assert list(g.in_weights) == [8, 5, 7, 6]


class TestTranspose:
    def test_transpose_swaps_directions(self):
        g = from_edges(EDGES)
        t = g.transpose()
        for v in range(g.num_vertices):
            assert list(t.out_neighbors(v)) == list(g.in_neighbors(v))

    def test_double_transpose_identity(self):
        g = from_edges(EDGES)
        tt = g.transpose().transpose()
        assert np.array_equal(tt.out_na, g.out_na)
        assert np.array_equal(tt.out_oa, g.out_oa)


class TestValidation:
    def test_validate_accepts_wellformed(self, small_kron):
        small_kron.validate()

    def test_validate_rejects_bad_oa(self):
        g = from_edges(EDGES)
        bad = CSRGraph(out_oa=g.out_oa.copy(), out_na=g.out_na,
                       in_oa=g.in_oa, in_na=g.in_na)
        bad.out_oa[1] = 99
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_rejects_out_of_range_vertex(self):
        g = from_edges(EDGES)
        bad_na = g.out_na.copy()
        bad_na[0] = 100
        bad = CSRGraph(out_oa=g.out_oa, out_na=bad_na,
                       in_oa=g.in_oa, in_na=g.in_na)
        with pytest.raises(ValueError):
            bad.validate()


class TestScipyInterop:
    def test_to_scipy_roundtrip(self):
        g = from_edges(EDGES)
        m = g.to_scipy()
        assert m.shape == (4, 4)
        assert m.nnz == 5
        coo = m.tocoo()
        pairs = set(zip(coo.row.tolist(), coo.col.tolist()))
        assert pairs == {(0, 1), (0, 2), (1, 2), (2, 0), (3, 1)}


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=120))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)


class TestProperties:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, case):
        n, edges = case
        g = from_edges(edges, num_vertices=n)
        g.validate()
        # Every stored edge was in the input, and in-degree sum equals
        # out-degree sum equals the arc count.
        assert g.out_degrees().sum() == g.num_edges
        assert g.in_degrees().sum() == g.num_edges

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_symmetrize_makes_adjacency_symmetric(self, case):
        n, edges = case
        g = from_edges(edges, num_vertices=n, symmetrize=True)
        g.validate()
        m = g.to_scipy()
        assert (m != m.T).nnz == 0

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_csc_is_transpose_of_csr(self, case):
        n, edges = case
        g = from_edges(edges, num_vertices=n)
        for v in range(n):
            for u in g.in_neighbors(v):
                assert v in g.out_neighbors(int(u))
