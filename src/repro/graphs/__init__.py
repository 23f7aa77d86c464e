"""Graph substrate: CSR/CSC adjacency structures, generators, input suite.

The paper represents graphs in the CSR/CSC format (§II-A): an *Offset
Array* (OA) indexing the start of each vertex's adjacency list within a
*Neighbors Array* (NA).  :class:`~repro.graphs.csr.CSRGraph` holds both
directions (out-edges as CSR, in-edges as CSC) because the GAP kernels
switch between push (CSR) and pull (CSC) traversal.
"""

from repro.graphs.csr import CSRGraph, from_edges
from repro.graphs.generators import (
    grid_road_graph,
    kronecker_graph,
    power_law_graph,
    uniform_random_graph,
)
from repro.graphs.io import load_edgelist, save_edgelist
from repro.graphs.reorder import ORDERINGS, apply_order
from repro.graphs.suite import GRAPH_SUITE, GraphSpec, load_graph

__all__ = [
    "CSRGraph",
    "from_edges",
    "kronecker_graph",
    "uniform_random_graph",
    "grid_road_graph",
    "power_law_graph",
    "GRAPH_SUITE",
    "GraphSpec",
    "load_graph",
    "load_edgelist",
    "save_edgelist",
    "apply_order",
    "ORDERINGS",
]
