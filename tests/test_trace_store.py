"""Tests for the v8 memory-mapped trace store (repro.trace.store) and
its integration with the workload trace cache: round trips, corruption
and truncation quarantine, concurrent multi-process mapping, and
mapped-vs-in-memory simulation equivalence.  Format damage is covered
for every artifact kind by tests/test_store.py."""

import hashlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import faults
from repro.experiments import workloads
from repro.experiments.workloads import (TRACE_FORMAT_VERSION,
                                         workload_trace)
from repro.trace import store
from repro.trace.layout import AddressSpace
from repro.trace.record import ACCESS_DTYPE, Trace

MICRO = dict(tier="tiny", length=8_000)


def _toy_trace(n: int = 64, name: str = "toy") -> Trace:
    space = AddressSpace()
    r = space.add("data", 4, n, irregular_hint=True)
    acc = np.zeros(n, dtype=ACCESS_DTYPE)
    acc["pc"] = 0x40_0000
    acc["addr"] = r.addr(np.arange(n))
    acc["write"][::3] = 1
    acc["gap"] = 2
    acc["dep"] = -1
    acc["dep"][1:] = np.arange(n - 1)
    return Trace(acc, space, name, "pr", "kron")


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store.reset_counters()
    return tmp_path


class TestStoreFormat:
    def test_round_trip(self, tmp_path):
        t = _toy_trace()
        path = tmp_path / "t.trace"
        store.write_trace(t, path)
        u = store.open_trace(path)
        assert np.array_equal(u.accesses, t.accesses)
        assert u.name == "toy" and u.kernel == "pr" and u.graph == "kron"
        regs = u.address_space.regions
        assert list(regs) == ["data"]
        assert regs["data"].base == t.address_space["data"].base
        assert regs["data"].irregular_hint

    def test_mapped_zero_copy_and_read_only(self, tmp_path):
        t = _toy_trace()
        path = tmp_path / "t.trace"
        store.write_trace(t, path)
        u = store.open_trace(path, mapped=True)
        assert isinstance(u.accesses, np.memmap)
        assert not u.accesses.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            u.accesses["pc"][0] = 1
        # The un-mapped variant is a private, writable copy.
        v = store.open_trace(path, mapped=False)
        assert not isinstance(v.accesses, np.memmap)
        assert np.array_equal(v.accesses, u.accesses)

    def test_header_reports_shape(self, tmp_path):
        t = _toy_trace(n=17)
        path = tmp_path / "t.trace"
        store.write_trace(t, path)
        head = store.read_header(path)
        assert head["num_records"] == 17
        assert store.is_store_file(path)
        assert not store.is_store_file(tmp_path / "absent")

    def test_store_version_matches_cache_key_version(self):
        # The on-disk format version and the trace-cache key version are
        # one contract; bumping one without the other silently serves
        # stale traces.
        assert store.STORE_VERSION == TRACE_FORMAT_VERSION


class TestWorkloadCacheIntegration:
    def test_corrupt_file_quarantined_and_regenerated_once(
            self, cache, monkeypatch):
        t = workload_trace("pr.urand", **MICRO)
        # Snapshot before damaging: in-place writes reuse the mapped
        # inode, so `t.accesses` must not be dereferenced afterwards
        # (production writes are atomic renames — old maps stay valid).
        want = np.array(t.accesses)
        path = workloads._trace_path(workloads.Workload("pr", "urand"),
                                     **MICRO)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF                     # damage the header
        path.write_bytes(bytes(data))

        calls = []
        real_generate = workloads._generate

        def counting_generate(*a, **kw):
            calls.append(a)
            return real_generate(*a, **kw)

        monkeypatch.setattr(workloads, "_generate", counting_generate)
        u = workload_trace("pr.urand", **MICRO)
        assert len(calls) == 1               # exactly one regeneration
        assert np.array_equal(u.accesses, want)
        bad = list(workloads.trace_quarantine_dir().glob("*.bad"))
        assert len(bad) == 1
        # The regenerated entry is clean: a further load is a pure
        # mapped open, no generation.
        v = workload_trace("pr.urand", **MICRO)
        assert len(calls) == 1
        assert isinstance(v.accesses, np.memmap)

    def test_truncated_file_quarantined_and_regenerated(self, cache,
                                                        monkeypatch):
        t = workload_trace("cc.urand", **MICRO)
        want = np.array(t.accesses)          # snapshot before truncating
        del t                                # drop the soon-stale map
        path = workloads._trace_path(workloads.Workload("cc", "urand"),
                                     **MICRO)
        path.write_bytes(path.read_bytes()[:store.HEADER_SIZE + 7])
        u = workload_trace("cc.urand", **MICRO)
        assert np.array_equal(u.accesses, want)
        assert len(list(workloads.trace_quarantine_dir()
                        .glob("*.bad"))) == 1
        assert store.counters_snapshot()["corrupt"] >= 1

    def test_no_cache_returns_in_memory_trace(self, cache):
        t = workload_trace("pr.urand", use_cache=False, **MICRO)
        assert not isinstance(t.accesses, np.memmap)
        assert list(cache.glob("*.trace")) == []


class TestFaultInjection:
    @pytest.fixture(autouse=True)
    def _clean_plan(self):
        faults.deactivate()
        yield
        faults.deactivate()

    @pytest.mark.parametrize("kind", ["corrupt", "truncate"])
    def test_damaged_write_recovers_once(self, cache, monkeypatch, kind):
        faults.activate(faults.FaultPlan.parse(f"seed=3,{kind}:1.0"))
        monkeypatch.setattr(workloads, "_store_write_seq", {})
        calls = []
        real_generate = workloads._generate

        def counting_generate(*a, **kw):
            calls.append(a)
            return real_generate(*a, **kw)

        monkeypatch.setattr(workloads, "_generate", counting_generate)
        t = workload_trace("pr.urand", **MICRO)
        # First write damaged -> quarantined -> one regeneration whose
        # write (seq 2 > max_attempt 1) lands clean.
        assert len(calls) == 2
        assert len(list(workloads.trace_quarantine_dir()
                        .glob("*.bad"))) == 1
        faults.deactivate()
        u = workload_trace("pr.urand", **MICRO)
        assert np.array_equal(u.accesses, t.accesses)
        assert isinstance(u.accesses, np.memmap)


def _hash_mapped(path_str: str) -> str:
    trace = store.open_trace(path_str)
    assert isinstance(trace.accesses, np.memmap)
    return hashlib.sha256(np.asarray(trace.accesses).tobytes()).hexdigest()


class TestConcurrency:
    def test_multiprocess_open_same_file(self, cache):
        workload_trace("pr.urand", **MICRO)
        path = workloads._trace_path(workloads.Workload("pr", "urand"),
                                     **MICRO)
        want = _hash_mapped(str(path))
        with ProcessPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(_hash_mapped, [str(path)] * 8))
        assert got == [want] * 8


class TestSimulationEquivalence:
    def test_mapped_equals_in_memory(self, cache):
        from repro.config import scaled_config
        from repro.experiments.runner import run_variant

        cfg = scaled_config(64)
        mapped = workload_trace("pr.urand", **MICRO)
        inmem = workload_trace("pr.urand", mapped=False, **MICRO)
        assert isinstance(mapped.accesses, np.memmap)
        assert not isinstance(inmem.accesses, np.memmap)
        for variant in ("baseline", "sdc_lp"):
            a = run_variant(mapped, variant, cfg).to_payload()
            b = run_variant(inmem, variant, cfg).to_payload()
            assert a == b

    def test_resolve_trace_rejects_stale_version(self, cache,
                                                 monkeypatch):
        from repro.experiments import parallel
        monkeypatch.setattr(parallel, "_worker_traces", {})
        loads = []
        monkeypatch.setattr(
            parallel, "workload_trace",
            lambda name, tier, length: loads.append(name) or object())
        ref = ("spec", "pr.urand", "tiny", 8000)
        parallel._resolve_trace(ref)
        parallel._resolve_trace(ref)
        assert loads == ["pr.urand"]         # second hit served from LRU
        # A format-version bump mid-process must invalidate the entry.
        monkeypatch.setattr(workloads, "TRACE_FORMAT_VERSION",
                            workloads.TRACE_FORMAT_VERSION + 1)
        parallel._resolve_trace(ref)
        assert loads == ["pr.urand", "pr.urand"]
