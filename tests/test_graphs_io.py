"""Tests for graph file I/O (GAP edge lists)."""

import numpy as np
import pytest

from repro.graphs.csr import from_edges
from repro.graphs.generators import grid_road_graph, kronecker_graph
from repro.graphs.io import load_edgelist, save_edgelist


@pytest.fixture
def small(tmp_path):
    return kronecker_graph(7, 4, seed=41), tmp_path


class TestEdgeList:
    def test_el_roundtrip(self, small):
        g, tmp = small
        path = save_edgelist(g, tmp / "g.el")
        loaded = load_edgelist(path, num_vertices=g.num_vertices)
        assert loaded.num_edges == g.num_edges
        assert np.array_equal(loaded.out_oa, g.out_oa)
        assert np.array_equal(loaded.out_na, g.out_na)

    def test_wel_roundtrip(self, tmp_path):
        g = grid_road_graph(6, seed=42)
        path = save_edgelist(g, tmp_path / "g.wel")
        loaded = load_edgelist(path, num_vertices=g.num_vertices)
        assert loaded.out_weights is not None
        assert np.array_equal(loaded.out_oa, g.out_oa)
        assert np.array_equal(loaded.out_weights, g.out_weights)

    def test_wel_requires_weights(self, small):
        g, tmp = small
        with pytest.raises(ValueError, match="weighted"):
            save_edgelist(g, tmp / "g.wel")

    def test_comments_and_format(self, tmp_path):
        p = tmp_path / "hand.el"
        p.write_text("# a comment\n0 1\n1 2\n2 0\n")
        g = load_edgelist(p)
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_symmetrize_on_load(self, tmp_path):
        p = tmp_path / "dir.el"
        p.write_text("0 1\n")
        g = load_edgelist(p, symmetrize=True)
        assert g.num_edges == 2

    def test_wrong_columns_rejected(self, tmp_path):
        p = tmp_path / "bad.wel"
        p.write_text("0 1\n")
        with pytest.raises(ValueError, match="columns"):
            load_edgelist(p)

    def test_name_from_stem(self, tmp_path):
        p = tmp_path / "mygraph.el"
        p.write_text("0 1\n")
        assert load_edgelist(p).name == "mygraph"
