"""Tests for trace records, the builder and the stream assembler."""

from dataclasses import replace

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

    def test_stream_checked_when_appended(self, space):
        """A malformed stream raises at the call that hands it over,
        not later when the builder assembles it."""
        tb = TraceBuilder(space)
        with pytest.raises(ValueError, match="negative"):
            tb.emit(tb.pc("x"), space["arr"].addr(np.arange(3)),
                    dep_rel=0)
        with pytest.raises(ValueError, match="#edges"):
            tb.append_stream(np.array([2]), [],
                             [SegmentField(1, np.arange(3))], [])
        assert len(tb) == 0

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

    def test_limit_builds_the_shortest_vertex_prefix(self, space):
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
            tb = TraceBuilder(space, limit=limit)
            tb.append_stream(counts, *fields)
            # At least ``limit`` kept records, and no vertex past the
            # one that reached it; the trace is their first ``limit``.
            i = min(int(np.searchsorted(ends, limit)), len(ends) - 1)
            assert len(tb) == ends[i]
            assert tb.build().accesses.tobytes() == full[:limit].tobytes()

    def test_window_keeps_the_tail_of_the_limit(self, space):
        tb = TraceBuilder(space, name="t", limit=8, window=3)
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(6)), dep_rel=-2)
        tb.emit(tb.pc("y"), space["arr"].addr(np.arange(6)), dep_rel=-1)
        assert len(tb) == 8 and tb.full
        trace = tb.build()
        assert trace.name == "t"
        assert trace.accesses["addr"].tolist() == \
            space["arr"].addr(np.array([5, 0, 1])).tolist()
        # Record 6 linked to none; 7 to record 6, now 1.
        assert trace.accesses["dep"].tolist() == [-1, -1, 1]

    def test_window_mid_unrolled_run_continues_the_lanes(self, space):
        """A window that starts inside a vertex's unrolled edge run
        keeps that run's PC lanes and clears links before the window."""
        counts = np.array([2, 7, 3])
        head = SegmentField(1, np.arange(3) + 50)
        load = SegmentField(100, np.arange(12), unroll=4)
        use = SegmentField(200, np.arange(12) + 20, dep_rel=-1, unroll=4)
        full = TraceBuilder(space)
        full.append_stream(counts, [head], [load, use], [])
        want = full.build().slice(11, 19).accesses
        tb = TraceBuilder(space, limit=19, window=8)
        tb.append_stream(counts, [head], [load, use], [])
        got = tb.build().accesses
        assert got.tobytes() == want.tobytes()
        # Records 11-14: edge 4's use (lane 0), whose load (record 10)
        # is before the window, then edge 5's load and use (lane 1) and
        # edge 6's load (lane 2).
        assert got["pc"][:4].tolist() == [200, 104, 204, 108]
        assert got["dep"][:4].tolist() == [-1, -1, 1, -1]

    def test_masked_record_at_the_window_boundary(self, space):
        counts = np.array([4, 4])
        load = SegmentField(1, np.arange(8), unroll=2)
        store = SegmentField(2, np.arange(8) + 10, write=True, dep_rel=-1,
                             mask=np.array([1, 1, 0, 1, 0, 1, 1, 0], bool))
        full = TraceBuilder(space)
        full.append_stream(counts, [], [load, store], [])
        whole = full.build()
        assert len(whole) == 13
        for window in range(1, 14):
            tb = TraceBuilder(space, limit=13, window=window)
            tb.append_stream(counts, [], [load, store], [])
            want = whole.slice(13 - window, 13).accesses
            assert tb.build().accesses.tobytes() == want.tobytes()

    def test_run_shorter_than_its_budget_keeps_the_window(self, space):
        tb = TraceBuilder(space, limit=90, window=5)
        tb.emit(tb.pc("x"), space["arr"].addr(np.arange(7)), dep_rel=-1)
        assert not tb.full
        trace = tb.build()
        assert trace.accesses["addr"].tolist() == \
            space["arr"].addr(np.arange(2, 7)).tolist()
        assert trace.accesses["dep"].tolist() == [-1, 0, 1, 2, 3]
        short = TraceBuilder(space, limit=90, window=50)
        short.emit(short.pc("x"), space["arr"].addr(np.arange(7)),
                   dep_rel=-1)
        assert short.build().accesses["dep"].tolist() == \
            [-1, 0, 1, 2, 3, 4, 5]

    def test_builder_keeps_copies_of_what_it_is_handed(self, space):
        """A tracer may go on mutating the arrays it passed, as dyn's
        live-edge mask is updated after each query pass."""
        alive = np.ones(4, dtype=bool)
        addr = space["arr"].addr(np.arange(4))
        tb = TraceBuilder(space)
        tb.append_stream(np.array([4]), [],
                         [SegmentField(1, addr, mask=alive)], [])
        alive[1:3] = False
        addr[:] = 0
        assert tb.build().accesses["addr"].tolist() == \
            space["arr"].addr(np.arange(4)).tolist()

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


def _loop_model(pieces, limit, window):
    """The builder, one record at a time: ``pieces`` are
    ``(counts, header, edge, footer)`` streams (an ``emit`` is a
    one-header stream without edges).  Returns the kept record count
    and the trace's records."""
    recs = []                       # (pc, addr, write, gap, dep)
    for counts, header, edge, footer in pieces:
        at = {}                     # stream position -> record, or None
        pos = first_edge = 0
        for v, c in enumerate(counts):
            if limit is not None and len(recs) >= limit:
                break
            slots = [(fld, v) for fld in header] + [
                (fld, first_edge + j) for j in range(c) for fld in edge] \
                + [(fld, v) for fld in footer]
            for fld, i in slots:
                at[pos] = None
                if fld.mask is None or fld.mask[i]:
                    dep = -1
                    if fld.dep_rel is not None:
                        target = at.get(pos + fld.dep_rel)
                        dep = -1 if target is None else target
                    lane = (fld.first + i) % fld.unroll
                    at[pos] = len(recs)
                    recs.append((fld.pc + 4 * lane, int(fld.addr[i]),
                                 int(bool(fld.write)), fld.gap, dep))
                pos += 1
            first_edge += c
    stop = len(recs) if limit is None else min(len(recs), limit)
    start = 0 if window is None else max(0, stop - window)
    out = np.zeros(stop - start, dtype=ACCESS_DTYPE)
    for k, (pc, addr, write, gap, dep) in enumerate(recs[start:stop]):
        out[k] = (pc, addr, write, gap, dep - start if dep >= start else -1)
    return len(recs), out


@st.composite
def _field(draw, n, pc):
    mask = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=n,
                                              max_size=n)))
    return SegmentField(
        pc, draw(st.integers(0, 1 << 20)) + 8 * np.arange(n, dtype=np.int64),
        write=draw(st.booleans()), gap=draw(st.integers(0, 5)),
        dep_rel=draw(st.one_of(st.none(), st.integers(-5, -1))),
        mask=None if mask is None else np.array(mask, dtype=bool),
        unroll=draw(st.integers(1, 4)))


@st.composite
def _piece(draw):
    """An ``append_stream`` call or (one header, no edges) an ``emit``."""
    pc = 0x1000 * draw(st.integers(1, 50))
    if draw(st.booleans()):
        n = draw(st.integers(0, 8))
        fld = draw(_field(n, pc))
        fld.mask, fld.unroll = None, 1
        return "emit", fld
    counts = draw(st.lists(st.integers(0, 4), max_size=8))
    nv, ne = len(counts), sum(counts)
    sizes = (nv, ne, nv)
    groups = [[draw(_field(size, pc + 64 * (3 * g + k)))
               for k in range(draw(st.integers(0, 2)))]
              for g, size in enumerate(sizes)]
    return "stream", (np.array(counts, dtype=np.int64), *groups)


class TestBuilderProperty:
    @given(st.lists(_piece(), max_size=5),
           st.one_of(st.none(), st.integers(0, 60)),
           st.one_of(st.none(), st.integers(0, 60)))
    @settings(max_examples=300, deadline=None)
    def test_build_matches_the_record_loop(self, pieces, limit, window):
        """Any mix of streams and emits under any ``limit`` and
        ``window`` builds the loop model's records, and the builder
        never reads an array after the call that handed it over."""
        space = AddressSpace()
        tb = TraceBuilder(space, limit=limit, window=window)
        model = []
        for kind, piece in pieces:
            if kind == "emit":
                fld = piece
                model.append((np.zeros(len(fld.addr), dtype=np.int64),
                              [fld], [], []))
                addr = fld.addr.astype(np.uint64)
                tb.emit(fld.pc, addr, fld.write, fld.gap, fld.dep_rel)
                addr[:] = 7                     # the caller moves on
                continue
            counts, header, edge, footer = piece
            model.append(piece)
            handed = [[replace(f, addr=f.addr.copy(),
                               mask=None if f.mask is None
                               else f.mask.copy()) for f in group]
                      for group in (header, edge, footer)]
            handed_counts = counts.copy()
            tb.append_stream(handed_counts, *handed)
            handed_counts[:] = 0
            for group in handed:
                for f in group:
                    f.addr[:] = 7
                    if f.mask is not None:
                        f.mask[:] = ~f.mask
        kept, want = _loop_model(model, limit, window)
        assert len(tb) == kept
        assert tb.full == (limit is not None and kept >= limit)
        assert tb.build().accesses.tobytes() == want.tobytes()
