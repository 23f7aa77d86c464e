"""Batch (structure-of-arrays) backend: bit-identity and plumbing.

The contract under test: every run the batch kernel accepts — every
single-core variant under every LLC replacement policy the DSE samples
— must produce a ``SystemStats`` payload (counters, float cycles,
per-access levels, telemetry timeline) bit-identical to the reference
Python loop, and leaves a spent system whose structures raise on any
read; everything it cannot accept falls back to the reference loop and
is counted by reason; a code the kernel does not implement is a loud
error.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, store
from repro import telemetry as tele
from repro.config import scaled_config
from repro.core.batch import (BACKENDS, KernelError, backend,
                              fallback_counts, kernel_available,
                              load_kernel, reset_fallback_counts,
                              resolve_backend, try_run_batch,
                              unsupported_reason)
from repro.core.expert import expert_regions_for
from repro.core.multicore import MULTICORE_FALLBACK, MultiCoreSystem
from repro.core.system import (SPENT, SPENT_MESSAGE, VARIANTS,
                               SingleCoreSystem)
from repro.experiments import results_cache as rc
from repro.experiments.parallel import (Job, RunPolicy, _engine_fields,
                                        _job_spec, run_grid)
from repro.experiments.runner import default_config
from repro.experiments.workloads import workload_trace
from repro.telemetry import events as tele_events
from repro.trace.layout import AddressSpace
from repro.trace.record import ACCESS_DTYPE, Trace
from repro.validate.differential import (FIG7_VARIANTS, LLC_POLICIES,
                                         diff_ref_vs_batch)

needs_kernel = pytest.mark.skipif(not kernel_available(),
                                  reason="no C compiler for the batch "
                                         "kernel on this host")


def build_trace(ops, deps=False):
    """ops: list of (block_index, irregular, write, pc_choice, gap)."""
    space = AddressSpace()
    space.add("seq", 8, 1 << 14)
    rnd = space.add("rnd", 8, 1 << 14, irregular_hint=True)
    seq = space["seq"]
    acc = np.zeros(len(ops), dtype=ACCESS_DTYPE)
    for i, (blk, irr, write, pc, gap) in enumerate(ops):
        region = rnd if irr else seq
        acc["addr"][i] = region.addr(blk)
        acc["write"][i] = write
        acc["pc"][i] = 0x400000 + 4 * pc
        acc["gap"][i] = gap
        acc["dep"][i] = (i % 7) - 1 if deps and i % 3 == 0 else -1
    return Trace(acc, space)


ops_strategy = st.lists(
    st.tuples(st.integers(0, 2000), st.booleans(), st.booleans(),
              st.integers(0, 12), st.integers(0, 5)),
    min_size=1, max_size=300)


def build_policy_trace(n, seed):
    """A footprint well past the LLC of :func:`policy_config`, one block
    per element: a write-heavy sequential stream, random irregular
    blocks and a small hot set, each from its own PCs.  A seventh PC
    touches the stream first, so the stream's own PCs start on L1 hits
    and stay regular under the CLP too."""
    space = AddressSpace()
    seq = space.add("seq", 64, 1 << 14)
    rnd = space.add("rnd", 64, 1 << 14, irregular_hint=True)
    rng = np.random.default_rng(seed)
    acc = np.zeros(n, dtype=ACCESS_DTYPE)
    kind = rng.random(n)
    kind[0] = 0.0
    stream = (np.cumsum(kind < 0.4) - 1) % (1 << 14)
    acc["addr"] = np.where(
        kind < 0.4, seq.addr(stream),
        np.where(kind < 0.8, rnd.addr(rng.integers(0, 1 << 13, size=n)),
                 rnd.addr(rng.integers(0, 64, size=n))))
    acc["pc"] = 0x400000 + 4 * np.where(
        kind < 0.4, rng.integers(0, 2, size=n),
        np.where(kind < 0.8, 2 + rng.integers(0, 3, size=n), 5))
    acc["pc"][0] = 0x400000 + 4 * 6
    acc["write"] = rng.random(n) < np.where(kind < 0.4, 0.5, 0.2)
    acc["gap"] = rng.integers(0, 4, size=n)
    acc["dep"] = np.where(np.arange(n) % 5 == 0, np.arange(n) - 3, -1)
    acc["dep"][:3] = -1
    return Trace(acc, space)


def policy_config(policy="lru", ways=2):
    """scaled_config(64) with a 128-set LLC (so DRRIP has both SRRIP
    and BRRIP leader sets) of ``ways`` ways under ``policy``."""
    cfg = scaled_config(64)
    return dataclasses.replace(cfg, llc=dataclasses.replace(
        cfg.llc.resized(128 * ways * 64, ways=ways), replacement=policy))


def payload(stats):
    return dataclasses.replace(stats, levels=None).to_payload()


@pytest.fixture(scope="module")
def cfg():
    return scaled_config(64)


@pytest.fixture(scope="module")
def policy_trace():
    return build_policy_trace(3000, 21)


#: The DSE's predictors under every LLC policy, and the paper's design
#: and the baseline under each non-LRU one.
POLICY_CASES = (
    [(v, p) for v in ("sdc_clp", "sdc_lp_tagless") for p in LLC_POLICIES]
    + [(v, p) for v in ("sdc_lp", "baseline") for p in LLC_POLICIES[1:]])

#: The cases above whose variant has an SDC to flush.
SDC_POLICY_CASES = [(v, p) for v, p in POLICY_CASES if v != "baseline"]


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(13)
    ops = [(int(rng.integers(0, 2000)), bool(rng.random() < 0.5),
            bool(rng.random() < 0.25), int(rng.integers(0, 12)),
            int(rng.integers(0, 4)))
           for _ in range(3000)]
    return build_trace(ops, deps=True)


class TestResolveBackend:
    def test_default_is_batch(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "batch"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        assert resolve_backend(None) == "batch"

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        assert resolve_backend("ref") == "ref"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("vectorized")
        assert set(BACKENDS) == {"ref", "batch"}


@needs_kernel
class TestBitIdentity:
    @pytest.mark.parametrize("variant", FIG7_VARIANTS)
    def test_fig7_variants_full_payload(self, trace, cfg, variant):
        # diff_ref_vs_batch raises DifferentialMismatch on any field.
        ref, batch = diff_ref_vs_batch(trace, cfg, variant)
        assert batch.l1d.accesses > 0

    @pytest.mark.parametrize("variant", ("victim", "lp_bypass", "expert"))
    def test_extra_variants(self, trace, cfg, variant):
        diff_ref_vs_batch(trace, cfg, variant)

    def test_warmup_window(self, trace, cfg):
        diff_ref_vs_batch(trace, cfg, "sdc_lp", warmup=1000)

    def test_run_seam_returns_batch_result(self, trace, cfg):
        ref = SingleCoreSystem(cfg, "baseline").run(trace, backend="ref")
        batch = SingleCoreSystem(cfg, "baseline").run(trace,
                                                      backend="batch")
        assert ref.to_payload() == batch.to_payload()

    def test_flush_sdc_every(self, trace, cfg):
        a = SingleCoreSystem(cfg, "sdc_lp").run(trace, backend="ref",
                                                flush_sdc_every=700)
        b = SingleCoreSystem(cfg, "sdc_lp").run(trace, backend="batch",
                                                flush_sdc_every=700)
        assert a.to_payload() == b.to_payload()

    def test_divmod_geometry_supported(self, trace, cfg):
        """Non-power-of-two set counts (a 6-set L1D, a 12-set L2C and a
        12-set SDCDir) take the kernel's div/mod branches and match the
        reference loop."""
        def with_sets(c, sets):
            return c.resized(sets * c.ways * c.block_size)

        odd = dataclasses.replace(
            cfg, l1d=with_sets(cfg.l1d, 6), l2c=with_sets(cfg.l2c, 12),
            sdcdir=dataclasses.replace(cfg.sdcdir, entries_per_core=96))
        for variant in ("baseline", "sdc_lp"):
            sysb = SingleCoreSystem(odd, variant)
            assert (sysb.hierarchy.l1d.num_sets,
                    sysb.hierarchy.l2c.num_sets) == (6, 12)
            if variant == "sdc_lp":
                assert sysb.sdcdir.num_sets == 12
            want = SingleCoreSystem(odd, variant).run(trace, backend="ref")
            got = try_run_batch(sysb, trace)
            assert got is not None
            assert want.to_payload() == got.to_payload()


@needs_kernel
class TestPropertyEquivalence:
    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_traces_baseline(self, ops):
        trace = build_trace(ops)
        cfg = scaled_config(64)
        a = SingleCoreSystem(cfg, "baseline",
                             telemetry_every=64).run(trace, backend="ref")
        b = SingleCoreSystem(cfg, "baseline",
                             telemetry_every=64).run(trace,
                                                     backend="batch")
        assert a.to_payload() == b.to_payload()

    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_traces_sdc_lp(self, ops):
        trace = build_trace(ops, deps=True)
        cfg = scaled_config(64)
        a = SingleCoreSystem(cfg, "sdc_lp",
                             telemetry_every=64).run(trace, backend="ref")
        b = SingleCoreSystem(cfg, "sdc_lp",
                             telemetry_every=64).run(trace,
                                                     backend="batch")
        assert a.to_payload() == b.to_payload()


@needs_kernel
class TestPolicyBitIdentity:
    """Every single-core variant under every LLC policy."""

    @pytest.mark.parametrize("policy", LLC_POLICIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_every_policy(self, policy_trace, variant,
                                        policy):
        # Four ways: distill keeps two for its word-organized part.
        ref, batch = diff_ref_vs_batch(policy_trace,
                                       policy_config(policy, ways=4),
                                       variant, telemetry_every=512)
        assert payload(ref) == payload(batch)

    @pytest.mark.parametrize("variant,policy", POLICY_CASES)
    def test_llc_sees_evictions(self, policy_trace, variant, policy):
        """The cases below exercise victim choice, not just inserts."""
        stats = SingleCoreSystem(policy_config(policy), variant).run(
            policy_trace, backend="batch")
        assert stats.llc.evictions > 0

    @pytest.mark.parametrize("variant,policy", POLICY_CASES)
    def test_warmup_window(self, policy_trace, variant, policy):
        ref, batch = diff_ref_vs_batch(policy_trace, policy_config(policy),
                                       variant, telemetry_every=256,
                                       warmup=1100)
        assert payload(ref) == payload(batch)
        assert ref.timeline is not None

    @pytest.mark.parametrize("variant,policy", SDC_POLICY_CASES)
    def test_flush_sdc_every(self, policy_trace, variant, policy):
        cfg = policy_config(policy)
        a = SingleCoreSystem(cfg, variant, telemetry_every=300).run(
            policy_trace, backend="ref", flush_sdc_every=700)
        b = SingleCoreSystem(cfg, variant, telemetry_every=300).run(
            policy_trace, backend="batch", flush_sdc_every=700)
        assert a.to_payload() == b.to_payload()


@needs_kernel
class TestDroppedState:
    """A kernel run returns the stats and keeps no Python state: the
    system is spent afterwards, and each of its structures says so."""

    def test_second_run_on_a_spent_system_raises(self, trace, cfg):
        system = SingleCoreSystem(cfg, "sdc_lp")
        system.run(trace, backend="batch")
        with pytest.raises(RuntimeError, match="spent"):
            system.run(trace, backend="ref")
        with pytest.raises(RuntimeError, match="spent"):
            try_run_batch(system, trace)

    def test_every_structure_of_a_spent_system_raises(self, trace, cfg):
        seen = set()
        for variant in ("sdc_lp", "sdc_clp", "victim"):
            system = SingleCoreSystem(cfg, variant)
            present = [name for name in SingleCoreSystem.STRUCTURES
                       if getattr(system, name) is not None]
            system.run(trace, backend="batch")
            for name in present:
                attr = "l1d" if name == "hierarchy" else "stats"
                with pytest.raises(RuntimeError) as err:
                    getattr(getattr(system, name), attr)
                assert str(err.value) == SPENT_MESSAGE
                assert 'backend="ref"' in str(err.value)
            seen.update(present)
        assert seen == set(SingleCoreSystem.STRUCTURES)

    def test_reference_run_stays_inspectable_and_runnable(self, trace,
                                                          cfg):
        system = SingleCoreSystem(cfg, "sdc_lp")
        first = system.run(trace, backend="ref")
        assert all(getattr(system, name) is not SPENT
                   for name in SingleCoreSystem.STRUCTURES)
        assert system.hierarchy.l1d.stats is first.l1d
        assert system.sdc.occupancy > 0
        assert first.tlb.accesses == len(trace)
        # Warm now, so the default engine runs it on the reference loop,
        # which continues from the first run's state.
        second = system.run(trace)
        assert second.tlb is first.tlb
        assert second.tlb.accesses == 2 * len(trace)


@needs_kernel
class TestPolicyPropertyEquivalence:
    @given(ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_traces_sdc_clp(self, ops):
        trace = build_trace(ops, deps=True)
        cfg = scaled_config(64)
        a = SingleCoreSystem(cfg, "sdc_clp",
                             telemetry_every=64).run(trace, backend="ref")
        b = SingleCoreSystem(cfg, "sdc_clp",
                             telemetry_every=64).run(trace,
                                                     backend="batch")
        assert a.to_payload() == b.to_payload()

    @pytest.mark.parametrize("policy", ("drrip", "ship"))
    @given(ops=ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_random_traces_rrip_llc(self, policy, ops):
        trace = build_trace(ops, deps=True)
        cfg = policy_config(policy)
        for variant in ("baseline", "sdc_lp"):
            a = SingleCoreSystem(cfg, variant, telemetry_every=64).run(
                trace, backend="ref")
            b = SingleCoreSystem(cfg, variant, telemetry_every=64).run(
                trace, backend="batch")
            assert a.to_payload() == b.to_payload()


class TestKernelErrors:
    """kernel.c refuses every code it does not implement; try_run_batch
    raises instead of rerunning the cell on the reference loop."""

    @needs_kernel
    @pytest.mark.parametrize("slot,code,err", [
        (1, 7, 3), (1, -1, 3),          # path
        (2, 6, 4), (2, -2, 4),          # LLC kind
        (3, 4, 5), (3, -1, 5),          # predictor
    ])
    def test_out_of_range_code_returns_error(self, slot, code, err):
        icfg = (ctypes.c_int64 * backend.ICFG_LEN)()
        icfg[slot] = code
        # Null buffers: the codes are checked before any is touched.
        bufs = (ctypes.c_void_p * backend.NBUF)()
        assert load_kernel().repro_batch_run(icfg, bufs) == err

    @needs_kernel
    @pytest.mark.parametrize("path,pred", [
        (backend.PATH_SDC, backend.PRED_NONE),
        (backend.PATH_PLAIN, backend.PRED_LP),
        (backend.PATH_BYPASS, backend.PRED_CLP),
    ])
    def test_path_without_its_predictor_returns_error(self, path, pred):
        icfg = (ctypes.c_int64 * backend.ICFG_LEN)()
        icfg[1], icfg[3] = path, pred
        bufs = (ctypes.c_void_p * backend.NBUF)()
        assert load_kernel().repro_batch_run(icfg, bufs) == 5

    @needs_kernel
    @pytest.mark.parametrize("ways", [1 << 20, 1 << 22])
    def test_unallocatable_state_returns_error(self, ways):
        # Valid codes and an L1 of 2^40 sets: its tags need 2^63 bytes
        # at 2^20 ways and more than a size_t can count at 2^22.  Null
        # buffers: the kernel fails the run before touching any.
        icfg = (ctypes.c_int64 * backend.ICFG_LEN)()
        icfg[16], icfg[17] = 1 << 40, ways
        bufs = (ctypes.c_void_p * backend.NBUF)()
        assert load_kernel().repro_batch_run(icfg, bufs) == 1
        assert backend.KERNEL_ERRORS[1] == "state allocation failed"

    @needs_kernel
    def test_unknown_path_raises_not_falls_back(self, trace, cfg,
                                                monkeypatch):
        monkeypatch.setitem(backend._PATHS, "baseline", 9)
        system = SingleCoreSystem(cfg, "baseline")
        with pytest.raises(KernelError, match=r"error 3 \(unknown path"):
            system.run(trace, backend="batch")
        # Nothing was written back: the system is still fresh.
        assert system.hierarchy.l1d.stats.accesses == 0

    @needs_kernel
    def test_unknown_llc_kind_raises(self, trace, cfg, monkeypatch):
        monkeypatch.setattr(backend, "_llc_kind", lambda llc: 11)
        with pytest.raises(KernelError, match="unknown LLC kind"):
            try_run_batch(SingleCoreSystem(cfg, "baseline"), trace)

    @needs_kernel
    def test_unknown_predictor_raises(self, trace, cfg, monkeypatch):
        monkeypatch.setattr(backend, "_predictor", lambda system: 8)
        with pytest.raises(KernelError, match="unknown predictor code"):
            try_run_batch(SingleCoreSystem(cfg, "sdc_lp"), trace)

    def test_allowlist_stays_a_second_guard(self, trace, cfg,
                                            monkeypatch):
        system = SingleCoreSystem(cfg, "baseline")
        monkeypatch.setattr(backend, "_KERNEL_VARIANTS", frozenset())
        reason = unsupported_reason(system, trace)
        assert reason is not None
        assert "not implemented" in reason or reason == "kernel unavailable"


class TestKernelState:
    """kernel.c allocates each run's state itself and frees all of it."""

    @needs_kernel
    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_repeated_cells_do_not_grow_the_process(self):
        # The default config's L2 runs SPP, so an sdc_lp cell holds
        # about 2 MB of state: 300 cells that kept theirs would grow
        # the process by about 600 MB.
        cfg = default_config()
        trace = workload_trace("pr.kron", tier="tiny", length=2000)
        page = os.sysconf("SC_PAGE_SIZE")

        def process_bytes():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[0]) * page

        def cells(count):
            for _ in range(count):
                SingleCoreSystem(cfg, "sdc_lp").run(trace, backend="batch")

        cells(10)
        before = process_bytes()
        cells(300)
        assert process_bytes() - before < 64 << 20

    @needs_kernel
    def test_state_written_before_read_is_not_stale(self):
        """The SPP pattern rows and tracker slots start unzeroed: a cell
        run after an SPP-heavy one, twice, matches the reference loop
        both times, whatever the freed memory held."""
        cfg = default_config()

        def trace(wl):
            return workload_trace(wl, tier="tiny", length=4000)

        SingleCoreSystem(cfg, "baseline").run(trace("bfs.urand"),
                                              backend="batch")
        other = trace("cc.friendster")
        runs = [payload(SingleCoreSystem(cfg, "baseline").run(
            other, backend="batch")) for _ in range(2)]
        ref = payload(SingleCoreSystem(cfg, "baseline").run(
            other, backend="ref"))
        assert runs[0] == runs[1] == ref


class TestPayload:
    """``SystemStats.to_payload`` builds each counter dict from its
    fields: the same payload, bytes and checksum ``dataclasses.asdict``
    gave, for every variant on both backends."""

    @staticmethod
    def asdict_payload(stats):
        def opt(counters):
            return dataclasses.asdict(counters) if counters else None

        return {"variant": stats.variant,
                "instructions": stats.instructions,
                "cycles": stats.cycles,
                "l1d": dataclasses.asdict(stats.l1d),
                "l2c": dataclasses.asdict(stats.l2c),
                "llc": dataclasses.asdict(stats.llc),
                "sdc": opt(stats.sdc), "dram": dataclasses.asdict(stats.dram),
                "lp": opt(stats.lp), "tlb": opt(stats.tlb),
                "timeline": (stats.timeline.to_payload()
                             if stats.timeline is not None else None)}

    @pytest.mark.parametrize("engine", BACKENDS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_payload_matches_asdict(self, trace, cfg, variant, engine):
        regions = expert_regions_for(trace, cfg) \
            if variant == "expert" else None
        stats = SingleCoreSystem(cfg, variant, expert_regions=regions,
                                 telemetry_every=500).run(
            trace, backend=engine)
        got, want = stats.to_payload(), self.asdict_payload(stats)
        assert got == want
        assert [list(d) for d in got.values() if isinstance(d, dict)] \
            == [list(d) for d in want.values() if isinstance(d, dict)]
        assert store.encode_meta(got) == store.encode_meta(want)
        assert rc.payload_checksum(got) == rc.payload_checksum(want)


class TestTraceRecords:
    """The kernel reads the trace's records in place."""

    #: ACCESS_DTYPE with a wider ``gap`` field.
    WIDE_GAP = np.dtype([(n, np.uint32 if n == "gap" else ACCESS_DTYPE[n])
                         for n in ACCESS_DTYPE.names])

    def setup_method(self):
        reset_fallback_counts()

    def teardown_method(self):
        reset_fallback_counts()

    def test_changed_field_type_is_loud(self):
        with pytest.raises(TypeError, match="'gap'"):
            backend._record_layout(self.WIDE_GAP)

    @needs_kernel
    def test_strided_records_match_reference(self, trace, cfg):
        acc = trace.accesses.copy()
        acc["dep"] = -1
        view = Trace(acc[::2], trace.address_space)
        assert not view.accesses.flags.c_contiguous
        a = SingleCoreSystem(cfg, "sdc_lp").run(view, backend="ref")
        b = SingleCoreSystem(cfg, "sdc_lp").run(view, backend="batch")
        assert payload(a) == payload(b)
        assert fallback_counts() == {}

    def test_other_record_dtype_refused(self, trace, cfg):
        acc = np.zeros(len(trace), dtype=self.WIDE_GAP)
        for name in ACCESS_DTYPE.names:
            acc[name] = trace.accesses[name]
        other = Trace(acc, trace.address_space)
        system = SingleCoreSystem(cfg, "baseline")
        assert unsupported_reason(system, other) == \
            "trace records not ACCESS_DTYPE"

    @needs_kernel
    def test_dependency_past_the_end_refused_and_memoised(self, trace,
                                                           cfg):
        acc = trace.accesses.copy()
        acc["dep"][-1] = len(acc)
        bad = Trace(acc, trace.address_space)
        assert try_run_batch(SingleCoreSystem(cfg, "baseline"), bad) \
            is None
        assert fallback_counts() == {"forward dependency index": 1}
        assert bad._aux_cache["max_dep"] == len(acc)
        # The scalar is read from the memo on every later check.
        bad._aux_cache["max_dep"] = -1
        assert unsupported_reason(SingleCoreSystem(cfg, "baseline"),
                                  bad) is None


class TestFallbackCounts:
    def setup_method(self):
        reset_fallback_counts()

    def teardown_method(self):
        reset_fallback_counts()

    def test_refusal_counted_by_reason(self, trace, cfg):
        system = SingleCoreSystem(cfg, "baseline", check_every=1000)
        reason = unsupported_reason(system, trace)
        system.run(trace, backend="batch")
        SingleCoreSystem(cfg, "baseline", check_every=1000).run(
            trace, backend="batch")
        assert fallback_counts() == {reason: 2}

    def test_ref_backend_is_not_a_refusal(self, trace, cfg):
        SingleCoreSystem(cfg, "baseline").run(trace, backend="ref")
        assert fallback_counts() == {}

    @needs_kernel
    def test_kernel_runs_are_not_counted(self, trace, cfg):
        SingleCoreSystem(cfg, "sdc_clp").run(trace, backend="batch")
        assert fallback_counts() == {}

    def test_multicore_batch_request_counted(self, trace, cfg):
        mc = MultiCoreSystem(dataclasses.replace(cfg, num_cores=2),
                             "baseline")
        mc.run([trace, trace], backend="batch")
        assert fallback_counts() == {MULTICORE_FALLBACK: 1}

    def test_engine_fields(self):
        assert _engine_fields({"backend": "ref"}, {}) == {"engine": "ref"}
        assert _engine_fields({"backend": "batch"}, {}) == \
            {"engine": "batch"}
        backend.record_fallback("why not")
        assert _engine_fields({"backend": "batch"}, {}) == \
            {"engine": "ref", "fallback": "why not"}
        assert _engine_fields({"backend": "batch"}, {"why not": 1}) == \
            {"engine": "batch"}


class TestFallback:
    def test_check_every_falls_back(self, trace, cfg):
        system = SingleCoreSystem(cfg, "baseline", check_every=500)
        assert unsupported_reason(system, trace) is not None

    def test_warm_system_falls_back(self, trace, cfg):
        system = SingleCoreSystem(cfg, "baseline")
        system.run(trace, backend="ref")
        assert unsupported_reason(system, trace) is not None

    def test_kill_switch_env(self, trace, cfg, monkeypatch):
        from repro.core.batch import build
        monkeypatch.setattr(build, "_cached_kernel", None)
        monkeypatch.setattr(build, "_load_attempted", False)
        monkeypatch.setenv("REPRO_NO_BATCH_KERNEL", "1")
        system = SingleCoreSystem(cfg, "baseline")
        # The seam silently lands on the reference loop.
        stats = system.run(trace, backend="batch")
        assert stats.l1d.accesses == len(trace)


class TestCacheKeying:
    def test_batch_and_ref_keys_never_alias(self):
        job = Job("pr.urand", "baseline", default_config(), tier="tiny",
                  length=5000)
        _, key_ref = _job_spec(job, backend="ref")
        _, key_batch = _job_spec(job, backend="batch")
        assert key_ref != key_batch

    def test_ref_key_is_unchanged_by_the_new_extra(self):
        """Reference keys stay extra-free, so pre-existing caches
        survive this PR."""
        job = Job("pr.urand", "baseline", default_config(), tier="tiny",
                  length=5000)
        _, key_ref = _job_spec(job, backend="ref")
        assert key_ref == rc.result_key(
            rc.workload_fingerprint("pr.urand", "tiny", 5000), "baseline",
            job.config.digest(), "")

    def test_code_fingerprint_covers_kernel_c(self):
        from repro.experiments.results_cache import (_FINGERPRINT_SOURCES,
                                                     _REPRO_ROOT)
        covered = []
        for entry in _FINGERPRINT_SOURCES:
            p = _REPRO_ROOT / entry
            if p.is_dir():
                covered.extend(p.rglob("*.c"))
        assert any(f.name == "kernel.c" for f in covered)


@needs_kernel
class TestGridEquivalence:
    """Fault-armed quick-fig7-shaped grid under REPRO_BACKEND=batch must
    produce byte-identical payloads to the fault-free reference grid."""

    WLS = ("pr.urand", "cc.urand")
    VARIANTS = ("baseline", "sdc_lp", "topt")
    FAST = RunPolicy(retries=2, backoff=0.01, backoff_max=0.05)

    def _grid(self):
        cfg = default_config()
        return [Job(wl, v, cfg, tier="tiny", length=8000)
                for wl in self.WLS for v in self.VARIANTS]

    def teardown_method(self):
        faults.deactivate()

    def test_fault_armed_batch_grid_matches_reference(self, tmp_path):
        ref = run_grid(self._grid(),
                       cache=rc.ResultsCache(tmp_path / "ref"),
                       manifest_dir=tmp_path / "runs", backend="ref")
        faults.activate(faults.FaultPlan.parse("seed=7,exc:0.3:2"))
        try:
            batch = run_grid(self._grid(),
                             cache=rc.ResultsCache(tmp_path / "batch"),
                             manifest_dir=tmp_path / "runs",
                             policy=self.FAST, backend="batch")
        finally:
            faults.deactivate()
        for a, b in zip(ref, batch):
            assert json.dumps(a.to_payload(), sort_keys=True) == \
                json.dumps(b.to_payload(), sort_keys=True)

    def test_env_backend_threads_into_grid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "batch")
        grid = self._grid()[:2]
        res = run_grid(grid, cache=rc.ResultsCache(tmp_path / "env"),
                       manifest_dir=tmp_path / "runs")
        monkeypatch.setenv("REPRO_BACKEND", "ref")
        ref = run_grid(grid, cache=rc.ResultsCache(tmp_path / "ref2"),
                       manifest_dir=tmp_path / "runs")
        for a, b in zip(res, ref):
            assert a.to_payload() == b.to_payload()


@needs_kernel
class TestDefaultEngine:
    """With no backend named anywhere, a fig7 grid runs every cell in
    the kernel: no refusal is counted and every cell's event says so."""

    def test_fig7_grid_runs_on_the_kernel(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        reset_fallback_counts()
        tdir = tmp_path / "tele"
        cfg = default_config()
        grid = [Job(wl, v, cfg, tier="tiny", length=3000)
                for wl in ("pr.urand", "bfs.urand") for v in FIG7_VARIANTS]
        run_grid(grid, cache=rc.ResultsCache(tmp_path / "cache"),
                 manifest_dir=tmp_path / "runs",
                 telemetry=tele.TelemetryConfig(directory=tdir, window=0))
        assert fallback_counts() == {}
        records = tele_events.read_events(tele_events.events_path(
            tdir, tele_events.latest_run_id(tdir)))
        engines = [r["engine"] for r in records
                   if r["event"] == "cell_exec_finished"]
        assert engines == ["batch"] * len(grid)
