"""Tests for the parallel experiment engine and the result cache.

The engine's contract (parallel.py): ``run_grid(jobs=N)`` is
bit-identical to ``jobs=1`` for every N, cells dedup within a grid, and
a warm cache makes a figure rerun simulation-free.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle
import time
from pathlib import Path

import pytest

from repro.core.batch import resolve_backend
from repro.experiments import figures, parallel, supervisor
from repro.experiments import results_cache as rc
from repro.experiments.parallel import EXPERT_BEST, Job, run_grid
from repro.experiments.runner import default_config, run_variant
from repro.experiments.workloads import workload_trace

MICRO = dict(tier="tiny", length=6_000)
GRID_WORKLOADS = ("pr.urand", "cc.urand", "bfs.urand", "sssp.road")
GRID_VARIANTS = ("baseline", "sdc_lp", "lp_bypass")


@pytest.fixture
def cache(tmp_path):
    return rc.ResultsCache(tmp_path / "results")


def micro_grid(cfg):
    return [Job(wl, v, cfg, **MICRO)
            for wl in GRID_WORKLOADS for v in GRID_VARIANTS]


class TestResultKeys:
    def test_key_is_deterministic(self):
        cfg = default_config()
        k1 = rc.result_key("wl:pr.urand:tiny:6000:v1", "baseline",
                           cfg.digest())
        k2 = rc.result_key("wl:pr.urand:tiny:6000:v1", "baseline",
                           cfg.digest())
        assert k1 == k2
        assert len(k1) == 64

    def test_key_varies_with_each_component(self):
        cfg = default_config()
        base = rc.result_key("fp", "baseline", cfg.digest())
        assert rc.result_key("fp2", "baseline", cfg.digest()) != base
        assert rc.result_key("fp", "sdc_lp", cfg.digest()) != base
        other = dataclasses.replace(cfg, num_cores=2)
        assert rc.result_key("fp", "baseline", other.digest()) != base
        assert rc.result_key("fp", "baseline", cfg.digest(),
                             extra="regions:1") != base

    def test_trace_fingerprint_tracks_content(self):
        trace = workload_trace("pr.urand", **MICRO)
        assert rc.trace_fingerprint(trace) == rc.trace_fingerprint(trace)
        from repro.experiments.figures import Trace_without_deps
        nodep = Trace_without_deps(trace)
        assert rc.trace_fingerprint(nodep) != rc.trace_fingerprint(trace)


class TestConfigDigest:
    def test_equal_configs_share_digest(self):
        assert default_config().digest() == default_config().digest()

    def test_resized_cache_changes_digest(self):
        cfg = default_config()
        bigger = dataclasses.replace(
            cfg, llc=cfg.llc.resized(cfg.llc.size_bytes * 2))
        assert bigger.digest() != cfg.digest()

    def test_nested_field_changes_digest(self):
        cfg = default_config()
        tweaked = dataclasses.replace(
            cfg, lp=dataclasses.replace(cfg.lp, tau_glob=cfg.lp.tau_glob
                                        + 1))
        assert tweaked.digest() != cfg.digest()

    def test_memoised_digest_equals_a_fresh_computation(self):
        def fresh(c):
            blob = json.dumps(dataclasses.asdict(c), sort_keys=True,
                              separators=(",", ":"))
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

        cfg = default_config()
        cfg.digest()                    # memoised before any copy
        tweaked = dataclasses.replace(
            cfg, lp=dataclasses.replace(cfg.lp, tau_glob=cfg.lp.tau_glob
                                        + 1))
        copies = (cfg, tweaked, copy.deepcopy(cfg),
                  pickle.loads(pickle.dumps(cfg)),
                  pickle.loads(pickle.dumps(tweaked)))
        for c in copies:
            assert c.digest() == fresh(c)
        assert tweaked.digest() != cfg.digest()
        # The memo is not a field: equality and asdict ignore it.
        assert copies[2] == cfg
        assert "_digest" not in dataclasses.asdict(cfg)


class TestResultsCache:
    def test_miss_then_hit(self, cache):
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, {"x": 1.5})
        assert cache.get(key) == {"x": 1.5}
        assert cache.hits == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_quarantined_not_missed(self, cache):
        key = "cd" + "1" * 62
        cache.put(key, {"x": 1})
        path = Path(cache._file(key))
        path.write_text("{not json")
        assert cache.get(key) is None
        # Unreadable != absent: the corrupt counter takes it, and the
        # poisoned file is moved aside so it is never re-read.
        assert cache.misses == 0
        assert cache.corrupt == 1
        assert cache.quarantined == 1
        assert not path.exists()
        assert list(cache.quarantine_dir.glob("*.bad"))
        # The entry is recomputable: a fresh put makes it a hit again.
        cache.put(key, {"x": 1})
        assert cache.get(key) == {"x": 1}

    def test_clear(self, cache):
        for i in range(3):
            cache.put(f"{i:02d}" + "2" * 62, {"i": i})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_len_and_clear_account_stray_tmp_files(self, cache):
        cache.put("ab" + "4" * 62, {"x": 1})
        stray = cache.root / "ab" / ("cd" + "5" * 62 + ".json.tmp.999")
        stray.write_text("half-written")
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_stale_tmp_sweep(self, cache):
        import os
        cache.put("ab" + "6" * 62, {"x": 1})
        stray = cache.root / "ab" / ("ef" + "7" * 62 + ".json.tmp.1")
        stray.write_text("orphan")
        old = 10_000.0
        os.utime(stray, (old, old))
        fresh = rc.ResultsCache(cache.root)
        assert stray.exists()                  # reads sweep nothing
        fresh.put("ef" + "6" * 62, {"x": 2})   # the first put sweeps
        assert fresh.swept == 1
        assert not stray.exists()
        assert len(fresh) == 2                 # committed entries survive

    def test_young_tmp_files_survive_sweep(self, cache):
        stray = cache.root / "ab" / ("aa" + "8" * 62 + ".json.tmp.2")
        stray.parent.mkdir(parents=True, exist_ok=True)
        stray.write_text("live writer")
        fresh = rc.ResultsCache(cache.root)
        fresh.put("ab" + "9" * 62, {"x": 1})
        assert fresh.swept == 0
        assert stray.exists()

    def test_reading_a_filled_cache_walks_no_directory(
            self, cache, monkeypatch):
        import os
        keys = [f"{i:02x}" + "3" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, {"i": i})
        walked = []
        scandir = os.scandir
        monkeypatch.setattr(os, "scandir",
                            lambda p: walked.append(p) or scandir(p))
        fresh = rc.ResultsCache(cache.root)
        assert [fresh.get(key) for key in keys] == [{"i": i}
                                                    for i in range(3)]
        assert walked == []
        fresh.put("ff" + "3" * 62, {"i": 3})    # the one sweep
        swept = len(walked)
        fresh.put("fe" + "3" * 62, {"i": 4})
        assert swept > 0 and len(walked) == swept


class TestRunGrid:
    def test_serial_matches_direct_run(self, cache):
        cfg = default_config()
        trace = workload_trace("pr.urand", **MICRO)
        direct = run_variant(trace, "sdc_lp", cfg)
        [res] = run_grid([Job("pr.urand", "sdc_lp", cfg, **MICRO)],
                         cache=cache)
        assert res.as_dict() == direct.as_dict()

    def test_parallel_bit_identical_to_serial(self, tmp_path):
        cfg = default_config()
        serial = run_grid(micro_grid(cfg),
                          cache=rc.ResultsCache(tmp_path / "a"))
        parallel_res = run_grid(micro_grid(cfg), jobs=2,
                                cache=rc.ResultsCache(tmp_path / "b"))
        assert len(serial) == len(GRID_WORKLOADS) * len(GRID_VARIANTS)
        for s, p in zip(serial, parallel_res):
            assert s.as_dict() == p.as_dict()

    def test_duplicate_cells_dedup(self, cache):
        cfg = default_config()
        grid = [Job("pr.urand", "baseline", cfg, **MICRO)] * 3
        events = []
        res = run_grid(grid, cache=cache, progress=events.append)
        assert len(res) == 3
        assert res[0].as_dict() == res[1].as_dict() == res[2].as_dict()
        assert sorted(e.source for e in events) == ["dedup", "dedup",
                                                    "run"]
        assert [e.done for e in events] == [1, 2, 3]
        assert cache.stores == 1

    def test_cache_hit_skips_simulation(self, cache, monkeypatch):
        cfg = default_config()
        grid = [Job("pr.urand", "baseline", cfg, **MICRO)]
        first = run_grid(grid, cache=cache)
        assert cache.stores == 1
        monkeypatch.setattr(parallel, "_execute", _boom)
        events = []
        second = run_grid(grid, cache=cache, progress=events.append)
        assert second[0].as_dict() == first[0].as_dict()
        assert [e.source for e in events] == ["cache"]

    def test_no_cache_bypasses_store_and_load(self, cache):
        cfg = default_config()
        grid = [Job("pr.urand", "baseline", cfg, **MICRO)]
        run_grid(grid, use_cache=False, cache=cache)
        assert cache.stores == 0 and len(cache) == 0
        # A poisoned cache entry must be ignored when use_cache=False.
        run_grid(grid, cache=cache)
        _, key = parallel._job_spec(grid[0], backend=resolve_backend(None))
        assert cache.get(key) is not None       # the key run_grid used
        cache.put(key, {"poison": True})
        fresh = run_grid(grid, use_cache=False, cache=cache)
        assert "poison" not in fresh[0].as_dict()

    def test_expert_best_pseudo_variant(self, cache):
        cfg = default_config()
        [base, best] = run_grid(
            [Job("pr.urand", "baseline", cfg, **MICRO),
             Job("pr.urand", EXPERT_BEST, cfg, **MICRO)], cache=cache)
        # At micro scale the best region set is usually empty, so the
        # expert run degenerates to baseline — the point here is that
        # the pseudo-variant executes and caches under its own key.
        assert best.cycles > 0
        assert cache.stores == 2

    def test_multicore_job(self, cache):
        cfg = dataclasses.replace(default_config(), num_cores=2)
        [res] = run_grid([Job(("pr.urand", "cc.urand"), "baseline", cfg,
                              **MICRO)], cache=cache)
        assert len(res.per_core) == 2
        assert res.llc_accesses > 0
        # Warm rerun reconstructs the same MultiCoreResult from cache.
        [again] = run_grid([Job(("pr.urand", "cc.urand"), "baseline",
                                cfg, **MICRO)], cache=cache)
        assert [s.as_dict() for s in again.per_core] == \
            [s.as_dict() for s in res.per_core]


def _boom(spec):
    raise AssertionError("simulation ran despite a warm cache")


class TestPipelinedScheduler:
    """Lease first, settle second: a worker's result frees it, and the
    step leases it its next cell before it settles that result."""

    def test_both_workers_leased_when_first_result_settles(
            self, tmp_path, monkeypatch):
        cfg = default_config()
        grid = [Job(wl, v, cfg, **MICRO) for wl in GRID_WORKLOADS[:2]
                for v in GRID_VARIANTS[:2]]
        # Cells are granted in grid order.  Both workers start before a
        # result, and the second grant runs longer, so the first result
        # arrives alone: two results read in one batch free both
        # workers before either settles.
        second = parallel._job_spec(grid[1],
                                    backend=resolve_backend(None))[1]
        execute = parallel._execute_cell

        def slow(spec, key, attempt=1):
            time.sleep(0.6 if key == second else 0.2)
            return execute(spec, key, attempt)

        monkeypatch.setattr(parallel, "_execute_cell", slow)
        settle = parallel._GridRun._on_done
        seen = []

        def spy(self, wid, key, token, payload):
            seen.append(sum(c.state == supervisor.LEASED
                            for k, c in self.queue.cells.items()
                            if k != key))
            settle(self, wid, key, token, payload)

        monkeypatch.setattr(parallel._GridRun, "_on_done", spy)
        res = run_grid(grid, jobs=2, cache=rc.ResultsCache(tmp_path / "c"),
                       manifest_dir=tmp_path / "runs")
        assert all(r is not None for r in res)
        assert len(seen) == len(grid)
        # The reporting worker already runs the third cell, and the
        # other one still runs the second.
        assert seen[0] == 2

    def test_cell_seconds_end_when_its_result_arrives(
            self, tmp_path, monkeypatch):
        """The grant that follows a result (slowed here by 0.2 s) runs
        before that result is settled; the cell's ``seconds`` ends at
        the result's arrival, so it leaves the grant out."""
        leased = parallel._GridRun._on_leased
        grants = []                     # (label, clock) per grant

        def slow_grant(self, cell):
            grants.append((cell.label, time.monotonic()))
            if len(grants) == 3:        # the first grant after a result
                time.sleep(0.2)
            leased(self, cell)

        monkeypatch.setattr(parallel._GridRun, "_on_leased", slow_grant)
        reports = []
        grid = [Job(wl, "baseline", default_config(), **MICRO)
                for wl in GRID_WORKLOADS[:3]]
        run_grid(grid, jobs=2, cache=rc.ResultsCache(tmp_path / "c"),
                 manifest_dir=tmp_path / "runs", progress=reports.append)
        first = reports[0]
        assert len(grants) == 3 and first.source == "run"
        granted = dict(grants)[first.label]
        assert granted + first.seconds <= grants[2][1]

    def test_worker_exits_when_its_task_pipe_closes(self):
        sup = supervisor.Supervisor(supervisor.LeaseQueue())
        sup._start_workers(2)
        try:
            deadline = time.monotonic() + 30.0
            while not all(w.ready for w in sup._workers.values()):
                assert time.monotonic() < deadline, "workers never ready"
                sup.step(0.05)
            # w1 is the one whose pipe w2 inherited at its fork.
            w1 = sup._workers["w1"]
            w1.task_w.close()
            w1.proc.join(timeout=2.0)
            assert w1.proc.exitcode == 0
        finally:
            sup._shutdown_workers()


#: Per-figure parameters that keep the warm-rerun grids small.
WARM_PARAMS = {
    "fig7": dict(variants=("sdc_lp",)),
    "fig14": dict(mixes=1, cores=2, variants=("sdc_lp",)),
    "tau": dict(taus=(0, 8), regular_len=2000),
}


class TestWarmFigureRerun:
    @pytest.mark.parametrize("name", [name for name, fig
                                      in figures.FIGURES.items() if fig.grid])
    def test_warm_rerun_runs_zero_simulations(self, name, cache,
                                              monkeypatch):
        wls = ["pr.urand", "cc.urand"]
        kw = dict(MICRO, **WARM_PARAMS.get(name, {}))
        # Point the engine's default cache at this test's tmp cache.
        monkeypatch.setattr(rc, "ResultsCache", lambda: cache)
        first = figures.run_figure(name, wls, **kw)
        grid, _ = figures.plan_figure(name, wls, **kw)
        assert cache.stores == len({
            parallel._job_spec(job, backend=resolve_backend())[1]
            for job in grid})
        # Warm rerun: every cell must come from the cache — any call
        # into the simulation path fails the test.
        monkeypatch.setattr(parallel, "_execute", _boom)
        warm = figures.run_figure(name, wls, **kw)
        assert warm == first
        render = figures.FIGURES[name].render
        assert render(warm) == render(first)

    def test_fig2_parallel_matches_serial(self, tmp_path):
        wls = ["pr.urand", "cc.urand"]
        serial = figures.run_figure("fig2", wls, use_cache=False, **MICRO)
        par = figures.run_figure("fig2", wls, jobs=2, use_cache=False,
                                 **MICRO)
        assert serial == par


class TestWorkerTraceLRU:
    def test_trace_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_traces", {})
        monkeypatch.setattr(parallel, "workload_trace",
                            lambda name, tier, length: object())
        cap = parallel._WORKER_TRACE_CAP
        for i in range(3 * cap):
            parallel._resolve_trace(("spec", f"wl{i}", "tiny", 1000))
        assert len(parallel._worker_traces) == cap
        # Most recently used specs are the ones retained, and every key
        # carries the trace format version (a mid-sweep bump must never
        # serve a stale mapped trace).
        from repro.experiments.workloads import TRACE_FORMAT_VERSION
        kept = {name for name, _, _, ver in parallel._worker_traces
                if ver == TRACE_FORMAT_VERSION}
        assert kept == {f"wl{i}" for i in range(2 * cap, 3 * cap)}

    def test_lru_refresh_on_reuse(self, monkeypatch):
        monkeypatch.setattr(parallel, "_worker_traces", {})
        loads = []
        monkeypatch.setattr(parallel, "workload_trace",
                            lambda name, tier, length:
                            loads.append(name) or object())
        cap = parallel._WORKER_TRACE_CAP
        for i in range(cap):
            parallel._resolve_trace(("spec", f"wl{i}", "tiny", 1000))
        # Touch wl0, then add one more spec: wl1 (now oldest) evicts.
        parallel._resolve_trace(("spec", "wl0", "tiny", 1000))
        parallel._resolve_trace(("spec", "new", "tiny", 1000))
        assert loads.count("wl0") == 1
        kept = {name for name, _, _, _ in parallel._worker_traces}
        assert "wl0" in kept and "wl1" not in kept
