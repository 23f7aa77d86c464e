"""Graph file I/O: GAP-compatible edge-list formats.

Formats (``.gz`` composes with every text format)::

    suffix        columns        loader behaviour
    ------------  -------------  ----------------------------------
    .el[.gz]      src dst        GAP plain edge list
    .wel[.gz]     src dst w      GAP weighted edge list
    .txt[.gz]     src dst        SNAP dump (# comments ignored)

``load_edgelist`` streams the file in bounded chunks through
:func:`repro.graphs.ingest.iter_edge_chunks`, so the raw rows never
materialize all at once, and rejects rows whose column count does not
match the format — a three-column row in a ``.el`` file is an error,
not two silently-kept columns.  The one binary graph format is the
``REPROGRF`` store that :func:`repro.graphs.ingest.ingest_graph` writes
and :func:`repro.graphs.ingest.open_graph` opens (zero-copy with
``mapped=True``).

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
