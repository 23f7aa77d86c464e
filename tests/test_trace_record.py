"""Tests for trace records, the builder and the stream assembler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.layout import AddressSpace
from repro.trace.record import (ACCESS_DTYPE, SegmentField, Trace,
                                TraceBuilder, assemble_vertex_edge_stream)


@pytest.fixture
def space():
    s = AddressSpace()
    s.add("arr", 4, 1000)
    return s


class TestTraceBuilder:
    def test_emit_scalar_and_vector(self, space):
        tb = TraceBuilder(space)
        pc = tb.pc("site")
        tb.emit(pc, space["arr"].addr(0))
        tb.emit(pc, space["arr"].addr(np.arange(5)))
        trace = tb.build()
        assert len(trace) == 6
        assert (trace.accesses["pc"] == pc).all()

    def test_pc_ids_stable_and_distinct(self, space):
        tb = TraceBuilder(space)
        a = tb.pc("a")
        b = tb.pc("b")
        assert a != b
        assert tb.pc("a") == a

    def test_dep_rel_links_within_run(self, space):
        tb = TraceBuilder(space)
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(4)), dep_rel=-1)
        deps = tb.build().accesses["dep"]
        assert list(deps) == [-1, 0, 1, 2]

    def test_dep_rebased_across_chunks(self, space):
        tb = TraceBuilder(space)
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(3)))
        tb.emit(tb.pc("y"), space["arr"].addr(np.arange(2)), dep_rel=-1)
        deps = tb.build().accesses["dep"]
        assert list(deps) == [-1, -1, -1, -1, 3]

    def test_write_flag_and_gap(self, space):
        tb = TraceBuilder(space)
        tb.emit(tb.pc("w"), space["arr"].addr(0), write=True, gap=7)
        acc = tb.build().accesses
        assert acc["write"][0] == 1
        assert acc["gap"][0] == 7

    def test_wrong_dtype_chunk_rejected(self, space):
        tb = TraceBuilder(space)
        with pytest.raises(TypeError):
            tb.append_chunk(np.zeros(3, dtype=np.int64))

    def test_limit_bounds_emit_and_append_stream(self, space):
        tb = TraceBuilder(space, limit=5)
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(3)))
        assert not tb.full
        tb.emit(tb.pc("y"), space["arr"].addr(np.arange(4)))
        assert len(tb) == 5 and tb.full
        tb.append_stream(np.array([2]),
                         [SegmentField(1, np.array([0]))],
                         [SegmentField(2, np.array([0, 4]))], [])
        assert len(tb) == 5

    def test_build_cuts_the_last_vertex_to_limit(self, space):
        tb = TraceBuilder(space, name="t", limit=2)
        tb.append_stream(np.array([3]), [],
                         [SegmentField(2, space["arr"].addr(np.arange(3)),
                                       dep_rel=-1)], [])
        assert len(tb) == 3             # whole vertex built
        trace = tb.build()
        assert len(trace) == 2 and trace.name == "t"
        assert trace.accesses["dep"].tolist() == [-1, 0]

    def test_empty_build(self, space):
        trace = TraceBuilder(space).build()
        assert len(trace) == 0
        assert trace.num_instructions == 0


class TestTrace:
    def test_num_instructions(self, space):
        tb = TraceBuilder(space)
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(10)), gap=3)
        assert tb.build().num_instructions == 10 * 4

    def test_validate_rejects_forward_dep(self, space):
        acc = np.zeros(2, dtype=ACCESS_DTYPE)
        acc["dep"] = [1, -1]
        with pytest.raises(ValueError):
            Trace(acc, space).validate()

    def test_slice_clamps_deps(self, space):
        tb = TraceBuilder(space)
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(10)), dep_rel=-2)
        sub = tb.build().slice(3, 8)
        assert len(sub) == 5
        deps = sub.accesses["dep"]
        # Record 3 depended on 1 (outside) -> -1; record 5 on 3 -> 0.
        assert deps[0] == -1
        assert deps[2] == 0
        sub.validate()

    def test_block_addrs(self, space):
        tb = TraceBuilder(space)
        tb.emit(tb.pc("x"), np.array([0, 63, 64, 128], dtype=np.uint64))
        assert list(tb.build().block_addrs()) == [0, 0, 1, 2]

    def test_save_load_roundtrip(self, space, tmp_path):
        tb = TraceBuilder(space, name="t", kernel="pr", graph="kron")
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(20)), gap=2,
                dep_rel=-1)
        trace = tb.build()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert np.array_equal(loaded.accesses, trace.accesses)
        assert loaded.kernel == "pr"
        assert loaded.graph == "kron"
        assert list(loaded.address_space.regions) == ["arr"]
        assert loaded.address_space["arr"].base == space["arr"].base


class TestAssembler:
    def _fields(self, n, m, pc=1):
        h = SegmentField(pc, np.arange(n) * 100)
        e = SegmentField(pc + 1, np.arange(m) * 10)
        f = SegmentField(pc + 2, np.arange(n) * 1000, write=True)
        return h, e, f

    def test_interleaving_order(self):
        counts = np.array([2, 0, 1])
        h, e, f = self._fields(3, 3)
        out = assemble_vertex_edge_stream(counts, [h], [e], [f])
        # Expected order: h0 e0 e1 f0 | h1 f1 | h2 e2 f2
        assert list(out["pc"]) == [1, 2, 2, 3, 1, 3, 1, 2, 3]
        assert list(out["addr"]) == [0, 0, 10, 0, 100, 1000, 200, 20, 2000]

    def test_dep_rel_resolves_to_stream_position(self):
        counts = np.array([2])
        h = SegmentField(1, np.array([5]))
        e1 = SegmentField(2, np.array([1, 2]))
        e2 = SegmentField(3, np.array([3, 4]), dep_rel=-1)
        out = assemble_vertex_edge_stream(counts, [h], [e1, e2], [])
        # Stream: h, e1(0), e2(0), e1(1), e2(1); e2 deps on preceding e1.
        assert list(out["dep"]) == [-1, -1, 1, -1, 3]

    def test_dep_rel_must_be_negative(self):
        with pytest.raises(ValueError, match="negative"):
            assemble_vertex_edge_stream(
                np.array([1]), [],
                [SegmentField(1, np.array([1]), dep_rel=0)], [])

    def test_mask_drops_records(self):
        counts = np.array([3])
        e = SegmentField(1, np.array([1, 2, 3]))
        s = SegmentField(2, np.array([9, 9, 9]), write=True, dep_rel=-1,
                         mask=np.array([True, False, True]))
        out = assemble_vertex_edge_stream(counts, [], [e, s], [])
        assert list(out["pc"]) == [1, 2, 1, 1, 2]
        # Deps of surviving stores still point at their own loads.
        assert out["dep"][1] == 0
        assert out["dep"][4] == 3

    def test_mask_on_header(self):
        counts = np.zeros(4, dtype=np.int64)
        h = SegmentField(1, np.arange(4),
                         mask=np.array([True, False, True, False]))
        out = assemble_vertex_edge_stream(counts, [h], [], [])
        assert list(out["addr"]) == [0, 2]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            assemble_vertex_edge_stream(
                np.array([1, 1]), [SegmentField(1, np.arange(3))], [], [])
        with pytest.raises(ValueError):
            assemble_vertex_edge_stream(
                np.array([1, 1]), [],
                [SegmentField(1, np.arange(3))], [])

    def test_limit_builds_the_shortest_vertex_prefix(self):
        counts = np.array([3, 0, 4, 2, 5, 1])
        m = int(counts.sum())
        fields = ([SegmentField(1, np.arange(6),
                                mask=np.array([1, 0, 1, 1, 0, 1], bool))],
                  [SegmentField(2, np.arange(m) + 100),
                   SegmentField(3, np.arange(m) + 200, write=True,
                                dep_rel=-1, mask=np.arange(m) % 3 != 0)],
                  [SegmentField(4, np.arange(6) + 300)])
        full = assemble_vertex_edge_stream(counts, *fields)
        # Stream length after each whole vertex (footer pc 4 ends one).
        ends = np.concatenate(([0], np.flatnonzero(full["pc"] == 4) + 1))
        for limit in range(len(full) + 2):
            out = assemble_vertex_edge_stream(counts, *fields, limit=limit)
            # At least ``limit`` kept records, and no vertex past the
            # one that reached it.
            i = min(int(np.searchsorted(ends, limit)), len(ends) - 1)
            assert len(out) == ends[i]
            assert out.tobytes() == full[:len(out)].tobytes()

    def test_empty_everything(self):
        out = assemble_vertex_edge_stream(np.zeros(0, dtype=np.int64),
                                          [], [], [])
        assert len(out) == 0

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20),
           st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_total_length_formula(self, counts, nh, ne, nf):
        counts = np.array(counts, dtype=np.int64)
        nv, m = len(counts), int(counts.sum())
        headers = [SegmentField(10 + i, np.arange(nv)) for i in range(nh)]
        edges = [SegmentField(20 + i, np.arange(m)) for i in range(ne)]
        footers = [SegmentField(30 + i, np.arange(nv)) for i in range(nf)]
        out = assemble_vertex_edge_stream(counts, headers, edges, footers)
        assert len(out) == nv * (nh + nf) + m * ne

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_edge_records_grouped_by_vertex(self, counts):
        counts = np.array(counts, dtype=np.int64)
        m = int(counts.sum())
        h = SegmentField(1, np.arange(len(counts)))
        e = SegmentField(2, np.repeat(np.arange(len(counts)), counts))
        out = assemble_vertex_edge_stream(counts, [h], [e], [])
        # Edge records carry their vertex id as address; between two
        # consecutive headers all edge addresses equal the first header's.
        current_vertex = None
        for rec in out:
            if rec["pc"] == 1:
                current_vertex = rec["addr"]
            else:
                assert rec["addr"] == current_vertex
