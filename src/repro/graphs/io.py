"""Graph file I/O: GAP-compatible edge-list formats plus binary caches.

Formats (``.gz`` composes with every text format)::

    suffix        columns        loader behaviour
    ------------  -------------  ----------------------------------
    .el[.gz]      src dst        GAP plain edge list
    .wel[.gz]     src dst w      GAP weighted edge list
    .txt[.gz]     src dst        SNAP dump (# comments ignored)
    .npz          CSR arrays     this package's compressed container
    .graph        CSR arrays     ingest store (v1, mappable)

``load_edgelist`` streams the file in bounded chunks through
:func:`repro.graphs.ingest.iter_edge_chunks`, so the raw rows never
materialize all at once, and rejects rows whose column count does not
match the format — a three-column row in a ``.el`` file is an error,
not two silently-kept columns.  ``load_binary`` dispatches on content:
an ``.npz`` container loads eagerly, a v1 graph-store file can load
zero-copy (``mapped=True``).

>>> import numpy as np, tempfile, os
>>> from repro.graphs.csr import from_edges
>>> g = from_edges(np.array([[0, 1], [1, 2], [2, 0]]))
>>> d = tempfile.mkdtemp()
>>> p = save_edgelist(g, os.path.join(d, "tri.el"))
>>> g2 = load_edgelist(p)
>>> bool(np.array_equal(g.out_na, g2.out_na))
True
>>> g2.num_vertices
3
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graphs.csr import CSRGraph, from_edges


def load_edgelist(path, symmetrize: bool = False,
                  num_vertices: int | None = None) -> CSRGraph:
    """Load a ``.el``/``.wel``/``.txt`` edge list (optionally ``.gz``).

    The format comes from the file name (see the module table); rows
    with the wrong column count raise ``ValueError``.  Parsing is
    chunked — peak memory is O(vertices + chunk), not O(file).

    >>> import tempfile, os
    >>> p = os.path.join(tempfile.mkdtemp(), "pair.el")
    >>> _ = open(p, "w").write("# a comment\\n0 1\\n1 0\\n")
    >>> load_edgelist(p).num_edges
    2
    """
    from repro.graphs import ingest
    path = Path(path)
    fmt, _gz = ingest.edge_list_format(path)
    weighted = fmt == "wel"
    srcs, dsts, ws = [], [], []
    for src, dst, w in ingest.iter_edge_chunks(path):
        srcs.append(src)
        dsts.append(dst)
        if weighted:
            ws.append(w)
    if srcs:
        edges = np.column_stack([np.concatenate(srcs),
                                 np.concatenate(dsts)])
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    weights = (np.concatenate(ws).astype(np.int32)
               if weighted and ws else
               (np.empty(0, dtype=np.int32) if weighted else None))
    return from_edges(edges, num_vertices=num_vertices, weights=weights,
                      symmetrize=symmetrize,
                      name=ingest.graph_name_from_path(path))


def save_edgelist(graph: CSRGraph, path) -> Path:
    """Write the out-edges as ``.el`` / ``.wel`` (by extension)."""
    path = Path(path)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(graph.out_oa))
    dst = graph.out_na.astype(np.int64)
    if path.suffix == ".wel":
        if graph.out_weights is None:
            raise ValueError(".wel requires a weighted graph")
        cols = np.column_stack([src, dst,
                                graph.out_weights.astype(np.int64)])
        np.savetxt(path, cols, fmt="%d")
    else:
        np.savetxt(path, np.column_stack([src, dst]), fmt="%d")
    return path


def save_binary(graph: CSRGraph, path) -> Path:
    """Save the CSR/CSC arrays as a compressed ``.npz`` container."""
    path = Path(path)
    payload = {
        "out_oa": graph.out_oa, "out_na": graph.out_na,
        "in_oa": graph.in_oa, "in_na": graph.in_na,
        "symmetric": np.array([graph.symmetric]),
        "name": np.array([graph.name]),
    }
    if graph.out_weights is not None:
        payload["out_weights"] = graph.out_weights
    if graph.in_weights is not None:
        payload["in_weights"] = graph.in_weights
    np.savez_compressed(path, **payload)
    return path


def load_binary(path, mapped: bool = False) -> CSRGraph:
    """Reload a graph saved by :func:`save_binary` or ``ingest``.

    Dispatches on file content: a v1 graph-store file (magic
    ``REPROGRF``) opens through :func:`repro.graphs.ingest.open_graph`
    — pass ``mapped=True`` for zero-copy read-only ``np.memmap``
    views — while an ``.npz`` container loads eagerly (``mapped`` is
    ignored; npz is compressed and cannot be mapped).
    """
    from repro import store
    from repro.graphs import ingest
    path = Path(path)
    if store.sniff(ingest.GRAPH, path):
        return ingest.open_graph(path, mapped=mapped)
    with np.load(path, allow_pickle=False) as z:
        graph = CSRGraph(
            out_oa=z["out_oa"], out_na=z["out_na"],
            in_oa=z["in_oa"], in_na=z["in_na"],
            out_weights=z["out_weights"] if "out_weights" in z else None,
            in_weights=z["in_weights"] if "in_weights" in z else None,
            symmetric=bool(z["symmetric"][0]),
            name=str(z["name"][0]))
    graph.validate()
    return graph
