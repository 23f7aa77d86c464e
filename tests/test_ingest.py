"""Tests for the streaming graph-ingestion path (repro.graphs.ingest).

The load-bearing contract: an out-of-core ingest is byte-identical to
an in-memory ``from_edges`` build over the same rows, the store file is
checksummed with quarantine + a single rebuild on damage, and a mapped
graph is indistinguishable from an in-memory one to everything
downstream (traces, stats, results cache).
"""

from __future__ import annotations

import gzip
import tracemalloc
import warnings

import numpy as np
import pytest

from repro import faults
from repro.graphs import ingest
from repro.graphs.csr import from_edges
from repro.graphs.io import load_edgelist

pytestmark = pytest.mark.usefixtures("graph_cache")


@pytest.fixture
def graph_cache(tmp_path, monkeypatch):
    """Point the on-disk caches at a throwaway directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    ingest.reset_counters()
    ingest._store_write_seq.clear()
    yield tmp_path
    faults.deactivate()


def write_el(path, edges, weights=None, header=False, gz=False):
    opener = (lambda p: gzip.open(p, "wt")) if gz else \
        (lambda p: open(p, "w"))
    with opener(path) as fh:
        if header:
            fh.write("# comment line\n\n")
        for i, (a, b) in enumerate(edges):
            if weights is None:
                fh.write(f"{a} {b}\n")
            else:
                fh.write(f"{a} {b} {weights[i]}\n")
    return path


def messy_edges(m=3000, n=200, seed=5):
    """Edge list with self-loops, duplicates and a vertex-id gap."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    edges[::97, 1] = edges[::97, 0]     # self-loops
    edges[1] = edges[2]                 # exact duplicate
    edges[0] = (0, n + 13)              # id gap + pure sink
    return edges


def assert_graphs_equal(got, want, weighted=False):
    fields = ["out_oa", "out_na", "in_oa", "in_na"]
    if weighted:
        fields += ["out_weights", "in_weights"]
    for f in fields:
        a, b = np.asarray(getattr(got, f)), np.asarray(getattr(want, f))
        assert a.tobytes() == b.tobytes(), f"{f} differs"


class TestParsing:
    def test_empty_and_comment_only_files(self, tmp_path):
        for body in ("", "# only\n\n# comments\n"):
            p = tmp_path / "e.el"
            p.write_text(body)
            g = load_edgelist(p)
            assert (g.num_vertices, g.num_edges) == (0, 0)
            rep = ingest.ingest_graph(p, name="empty", force=True)
            assert (rep.num_vertices, rep.num_edges) == (0, 0)
            assert ingest.load_ingested("empty").num_edges == 0

    def test_extra_columns_rejected(self, tmp_path):
        p = tmp_path / "bad.el"
        p.write_text("0 1\n1 2 9\n")
        with pytest.raises(ValueError, match="expected 2 columns"):
            load_edgelist(p)
        p2 = tmp_path / "bad.wel"
        p2.write_text("0 1 5\n1 2\n")
        with pytest.raises(ValueError, match="expected 3 columns"):
            ingest.ingest_graph(p2)

    def test_negative_ids_rejected(self, tmp_path):
        p = write_el(tmp_path / "neg.el", [(0, 1), (-1, 2)])
        with pytest.raises(ValueError, match="negative"):
            load_edgelist(p)

    def test_gzip_roundtrip(self, tmp_path):
        edges = messy_edges()
        plain = write_el(tmp_path / "g.el", edges)
        zipped = write_el(tmp_path / "g.el.gz", edges, header=True,
                          gz=True)
        a, b = load_edgelist(plain), load_edgelist(zipped)
        assert_graphs_equal(a, b)
        assert b.name == "g"

    def test_truncated_gzip_raises(self, tmp_path):
        p = write_el(tmp_path / "t.el.gz", messy_edges(), gz=True)
        data = p.read_bytes()
        p.write_bytes(data[:len(data) // 2])
        with pytest.raises((OSError, EOFError)):
            load_edgelist(p)

    def test_comment_only_chunk_is_skipped_silently(self, tmp_path):
        p = tmp_path / "c.el"
        p.write_text("0 1\n1 2\n# a\n\n  # b\n2 3  # inline\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chunks = list(ingest.iter_edge_chunks(p, chunk_edges=2))
        src = np.concatenate([c[0] for c in chunks])
        dst = np.concatenate([c[1] for c in chunks])
        assert list(zip(src.tolist(), dst.tolist())) == \
            [(0, 1), (1, 2), (2, 3)]

    def test_chunking_is_invisible(self, tmp_path):
        edges = messy_edges()
        p = write_el(tmp_path / "c.el", edges)
        chunks = list(ingest.iter_edge_chunks(p, chunk_edges=64))
        assert len(chunks) > 1
        src = np.concatenate([c[0] for c in chunks])
        dst = np.concatenate([c[1] for c in chunks])
        assert (np.column_stack([src, dst]) == edges).all()


class TestBuildEquivalence:
    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_unweighted_matches_from_edges(self, tmp_path, symmetrize):
        edges = messy_edges()
        p = write_el(tmp_path / "m.el", edges)
        ingest.ingest_graph(p, name="m", symmetrize=symmetrize,
                            chunk_edges=128)
        got = ingest.load_ingested("m")
        want = from_edges(edges, symmetrize=symmetrize)
        assert_graphs_equal(got, want)
        assert bool(got.symmetric) == symmetrize

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_weighted_matches_from_edges(self, tmp_path, symmetrize):
        edges = messy_edges()
        w = (np.arange(len(edges)) % 251 + 1).astype(np.int64)
        p = write_el(tmp_path / "w.wel", edges, weights=w)
        ingest.ingest_graph(p, name="w", symmetrize=symmetrize,
                            chunk_edges=128)
        got = ingest.load_ingested("w")
        want = from_edges(edges, weights=w, symmetrize=symmetrize)
        assert_graphs_equal(got, want, weighted=True)

    def test_num_vertices_hint(self, tmp_path):
        p = write_el(tmp_path / "h.el", [(0, 1), (1, 2)])
        ingest.ingest_graph(p, name="h", num_vertices=100)
        got = ingest.load_ingested("h")
        assert got.num_vertices == 100
        assert_graphs_equal(got, from_edges(
            np.array([[0, 1], [1, 2]]), num_vertices=100))

    def test_id_past_num_vertices_raises(self, tmp_path):
        p = write_el(tmp_path / "r.el", [(0, 1), (1, 9), (2, 3)])
        with pytest.raises(ValueError, match=r"vertex id 9 is outside "
                                             r"\[0, 5\) for num_vertices=5"):
            ingest.ingest_graph(p, name="r", num_vertices=5)
        assert not ingest.has_ingested("r")

    def test_cli_exits_1_on_an_id_past_num_vertices(self, tmp_path,
                                                    capsys):
        from repro.cli import main
        p = write_el(tmp_path / "r.el", [(0, 1), (1, 9), (2, 3)])
        assert main(["ingest", str(p), "--num-vertices", "5"]) == 1
        assert "ingest failed: vertex id 9 is outside [0, 5)" in \
            capsys.readouterr().err

    def test_mapped_and_in_memory_views_agree(self, tmp_path):
        p = write_el(tmp_path / "v.el", messy_edges())
        ingest.ingest_graph(p, name="v")
        mapped = ingest.load_ingested("v", mapped=True)
        copied = ingest.load_ingested("v", mapped=False)
        assert isinstance(mapped.out_na, np.memmap)
        assert not isinstance(copied.out_na, np.memmap)
        assert_graphs_equal(mapped, copied)

    def test_reingest_is_a_noop_unless_forced(self, tmp_path):
        p = write_el(tmp_path / "n.el", messy_edges())
        first = ingest.ingest_graph(p, name="n")
        assert first.raw_edges >= 0
        mtime = ingest.store_path("n").stat().st_mtime_ns
        again = ingest.ingest_graph(p, name="n")
        assert again.raw_edges == -1          # already existed
        assert ingest.store_path("n").stat().st_mtime_ns == mtime
        forced = ingest.ingest_graph(p, name="n", force=True)
        assert forced.raw_edges >= 0
        assert ingest.has_ingested("n")
        assert "n" in ingest.list_ingested()


class TestOneBuilder:
    """The out-of-core build at every range shape: ``chunk_edges`` 1
    makes ranges narrower than one vertex's degree, 128 makes many
    ranges and the default makes one."""

    @pytest.mark.parametrize("chunk_edges",
                             [1, 128, ingest.DEFAULT_CHUNK_EDGES])
    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_from_edges_at_every_chunk_size(
            self, tmp_path, chunk_edges, symmetrize, weighted):
        edges = messy_edges(m=1000, n=60)
        w = (np.arange(len(edges)) % 251 + 1) if weighted else None
        p = write_el(tmp_path / ("c.wel" if weighted else "c.el"), edges,
                     weights=w)
        ingest.ingest_graph(p, name="c", symmetrize=symmetrize,
                            chunk_edges=chunk_edges)
        want = from_edges(edges, weights=w, symmetrize=symmetrize)
        assert_graphs_equal(ingest.load_ingested("c"), want,
                            weighted=weighted)

    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_text_is_read_once(self, tmp_path, monkeypatch, symmetrize):
        opened = []
        real = ingest._open_text

        def counting(*args):
            opened.append(args)
            return real(*args)

        monkeypatch.setattr(ingest, "_open_text", counting)
        p = write_el(tmp_path / "o.el", messy_edges())
        ingest.ingest_graph(p, name="o", symmetrize=symmetrize,
                            chunk_edges=128)
        assert len(opened) == 1

    def test_scratch_files_are_deleted_once_read(self, tmp_path,
                                                 monkeypatch):
        # Every range sort finds only its own pass's key files and the
        # arrays built so far: the spilled rows, and a directed graph's
        # CSR keys, are gone from the disk by then.
        seen = set()
        real = ingest.csr_rows

        def listing(*args):
            scratch, = ingest.graphs_dir().glob(".d.build.*")
            seen.add(tuple(sorted(f.name for f in scratch.iterdir())))
            return real(*args)

        monkeypatch.setattr(ingest, "csr_rows", listing)
        edges = messy_edges()
        p = write_el(tmp_path / "d.wel", edges,
                     weights=np.arange(len(edges)) % 7 + 1)
        ingest.ingest_graph(p, name="d", chunk_edges=128)
        assert seen == {
            ("out.keys", "out.na", "out.w", "out.wkeys"),
            ("in.keys", "in.na", "in.w", "in.wkeys", "out.na", "out.w")}

    @pytest.mark.parametrize("chunk_edges", [0, -1])
    def test_chunk_edges_below_one_is_refused(self, tmp_path, capsys,
                                              chunk_edges):
        from repro.cli import main
        p = write_el(tmp_path / "z.el", messy_edges())
        with pytest.raises(ValueError, match="chunk_edges must be >= 1"):
            ingest.ingest_graph(p, name="z", chunk_edges=chunk_edges)
        assert main(["ingest", str(p), "--chunk-edges",
                     str(chunk_edges)]) == 1
        assert "ingest failed: chunk_edges must be >= 1" in \
            capsys.readouterr().err
        assert not ingest.has_ingested("z")

    def test_peak_memory_is_flat_in_the_edge_count(self, tmp_path):
        # An untraced first ingest keeps one-time imports out of the
        # peaks.  In-RAM builds grow ~3.9x here; the stream ~1.0x.
        ingest.ingest_graph(write_el(tmp_path / "warm.el", [(0, 1)]),
                            name="warm", chunk_edges=4096)
        rng = np.random.default_rng(3)
        peaks = []
        for m in (25_000, 100_000):
            p = write_el(tmp_path / f"f{m}.el",
                         rng.integers(0, 2000, size=(m, 2)))
            tracemalloc.start()
            try:
                ingest.ingest_graph(p, name=f"f{m}", symmetrize=True,
                                    chunk_edges=4096)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0], peaks


class TestWeightRange:
    ROWS = [(0, 1, 7), (1, 2, 3_000_000_000), (2, 0, 5)]

    def test_ingest_refuses_a_weight_past_int32(self, tmp_path):
        p = write_el(tmp_path / "big.wel", [r[:2] for r in self.ROWS],
                     weights=[r[2] for r in self.ROWS])
        with pytest.raises(ValueError, match="edge weight 3000000000"):
            ingest.ingest_graph(p, name="big")
        assert not ingest.has_ingested("big")

    def test_cli_exits_1_on_a_weight_past_int32(self, tmp_path, capsys):
        from repro.cli import main
        p = write_el(tmp_path / "neg.wel", [(0, 1), (1, 2)],
                     weights=[4, -2_147_483_649])
        assert main(["ingest", str(p)]) == 1
        assert "ingest failed: edge weight -2147483649" in \
            capsys.readouterr().err

    def test_from_edges_refuses_a_weight_past_int32(self):
        edges = np.array([r[:2] for r in self.ROWS])
        weights = np.array([r[2] for r in self.ROWS])
        with pytest.raises(ValueError, match="edge weight 3000000000"):
            from_edges(edges, weights=weights)

    def test_int32_extremes_are_kept(self, tmp_path):
        edges = np.array([[0, 1], [1, 2]])
        weights = np.array([2_147_483_647, -2_147_483_648])
        p = write_el(tmp_path / "x.wel", edges, weights=weights)
        ingest.ingest_graph(p, name="x")
        got = ingest.load_ingested("x")
        assert got.out_weights.tolist() == weights.tolist()
        assert_graphs_equal(got, from_edges(edges, weights=weights),
                            weighted=True)


class TestStoreIntegrity:
    def _ingest(self, tmp_path, name="s", **kw):
        p = write_el(tmp_path / f"{name}.el", messy_edges())
        ingest.ingest_graph(p, name=name, **kw)
        return ingest.store_path(name)

    def test_header_fields(self, tmp_path):
        path = self._ingest(tmp_path)
        head = ingest.read_header(path)
        ref = from_edges(messy_edges())
        assert head["num_vertices"] == ref.num_vertices
        assert head["num_edges"] == ref.num_edges
        assert head["flags"] == 0     # directed, unweighted

    @pytest.mark.parametrize("damage", ["corrupt", "truncate"])
    def test_damage_quarantines_and_rebuilds_once(self, tmp_path,
                                                  damage):
        path = self._ingest(tmp_path)
        data = bytearray(path.read_bytes())
        if damage == "corrupt":
            mid = len(data) // 2
            data[mid:mid + 8] = b"\xde\xad\xbe\xef" * 2
        else:
            data = data[:-(len(data) // 3)]
        path.write_bytes(bytes(data))
        before = ingest.counters_snapshot()
        got = ingest.load_ingested("s")
        after = ingest.counters_snapshot()
        assert after["corrupt"] - before["corrupt"] == 1
        assert after["rebuilt"] - before["rebuilt"] == 1
        assert_graphs_equal(got, from_edges(messy_edges()))
        from repro.experiments.workloads import trace_quarantine_dir
        assert any(trace_quarantine_dir().glob("*.graph.bad"))

    def test_vanished_source_raises_after_quarantine(self, tmp_path):
        path = self._ingest(tmp_path)
        (tmp_path / "s.el").unlink()
        data = bytearray(path.read_bytes())
        data[-8:] = b"\xff" * 8       # scribble the payload tail
        path.write_bytes(bytes(data))
        with pytest.raises(ingest.GraphStoreError,
                           match="no readable source"):
            ingest.load_ingested("s")
        assert not path.exists()          # still quarantined

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(ingest.GraphStoreError,
                           match="repro ingest"):
            ingest.load_ingested("nope")

    def test_armed_fault_damages_then_recovers(self, tmp_path):
        faults.activate(faults.FaultPlan.parse("seed=7,corrupt:1.0"))
        path = self._ingest(tmp_path, name="f")
        faults.deactivate()
        before = ingest.counters_snapshot()
        got = ingest.load_ingested("f")
        after = ingest.counters_snapshot()
        assert after["rebuilt"] - before["rebuilt"] == 1
        assert_graphs_equal(got, from_edges(messy_edges()))
        assert ingest.read_header(path)  # rebuilt store is clean


class TestWorkloadIntegration:
    FAMILIES = ("rw", "gs", "dyn")

    @pytest.fixture
    def ingested(self, tmp_path):
        edges = messy_edges(m=4000, n=300, seed=9)
        p = write_el(tmp_path / "ig.el", edges)
        ingest.ingest_graph(p, name="ig", symmetrize=True)
        return ingest.load_ingested("ig"), from_edges(
            edges, symmetrize=True, name="ig")

    def test_mapped_graph_runs_identically(self, ingested):
        from repro.experiments.runner import default_config, run_variant
        from repro.trace.kernels import generate_trace
        mapped, ref = ingested
        for fam in self.FAMILIES:
            t_map = generate_trace(fam, mapped, max_accesses=8000)
            t_mem = generate_trace(fam, ref, max_accesses=8000)
            assert t_map.accesses.tobytes() == t_mem.accesses.tobytes()
            s1 = run_variant(t_map, "sdc_lp", default_config())
            s2 = run_variant(t_mem, "sdc_lp", default_config())
            assert (s1.cycles, s1.instructions, s1.ipc) == \
                (s2.cycles, s2.instructions, s2.ipc)

    def test_families_clean_under_validation(self, ingested,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        from repro.experiments.runner import default_config, run_variant
        from repro.trace.kernels import generate_trace
        mapped, _ = ingested
        for fam in self.FAMILIES:
            t = generate_trace(fam, mapped, max_accesses=6000)
            stats = run_variant(t, "sdc_lp", default_config())
            assert stats.cycles > 0

    def test_family_cells_roundtrip_results_cache(self, tmp_path):
        from repro.experiments import results_cache as rc
        from repro.experiments.parallel import Job, run_grid
        from repro.experiments.runner import default_config
        cache = rc.ResultsCache(tmp_path / "results")
        cfg = default_config()
        grid = [Job(f"{fam}.urand", "sdc_lp", cfg, tier="tiny",
                    length=6000) for fam in self.FAMILIES]
        cold = run_grid(grid, cache=cache)
        assert cache.stores == len(self.FAMILIES)
        warm = run_grid(grid, cache=cache)
        assert cache.stores == len(self.FAMILIES)  # zero new sims
        for c, w in zip(cold, warm):
            assert c.as_dict() == w.as_dict()

    def test_synthetic_weights_enable_sssp(self, ingested):
        from repro.trace.kernels import generate_trace
        mapped, ref = ingested
        wm = ingest.with_synthetic_weights(mapped)
        wr = ingest.with_synthetic_weights(ref)
        assert wm.out_weights.tobytes() == wr.out_weights.tobytes()
        t1 = generate_trace("sssp", wm, max_accesses=6000)
        t2 = generate_trace("sssp", wr, max_accesses=6000)
        assert t1.accesses.tobytes() == t2.accesses.tobytes()

    def test_suite_resolves_ingested_names(self, tmp_path):
        from repro.graphs.suite import load_graph
        p = write_el(tmp_path / "mine.el", messy_edges())
        ingest.ingest_graph(p, name="mine")
        g = load_graph("mine", tier="tiny")
        assert g.num_edges == from_edges(messy_edges()).num_edges
        with pytest.raises(ValueError, match="mine"):
            load_graph("not-there", tier="tiny")
