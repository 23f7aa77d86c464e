"""Failure-path tests for the resilient experiment engine.

Every failure mode the engine recovers from — transient exceptions,
worker crashes, hung workers, corrupt cache entries, ^C — is injected
deterministically through :mod:`repro.faults` and checked against the
engine's contract: recovered runs are bit-identical to clean runs, and
completed work is never lost or repeated (docs/RESILIENCE.md).
"""

from __future__ import annotations

import json
import threading
import time
from multiprocessing import connection
from pathlib import Path

import pytest

from repro import faults
from repro.core.batch import resolve_backend
from repro.experiments import parallel, supervisor
from repro.experiments import results_cache as rc
from repro.experiments.manifest import RunManifest
from repro.experiments.parallel import (GridError, GridInterrupted, Job,
                                        RunPolicy, _job_spec, run_grid)
from repro.experiments.runner import default_config

MICRO = dict(tier="tiny", length=6_000)
WLS = ("pr.urand", "cc.urand")
VARIANTS = ("baseline", "sdc_lp")

#: Fast-failure policy for tests: short backoff, no multi-second waits.
FAST = dict(backoff=0.01, backoff_max=0.05)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    faults.deactivate()


@pytest.fixture
def grid():
    cfg = default_config()
    return [Job(wl, v, cfg, **MICRO) for wl in WLS for v in VARIANTS]


@pytest.fixture
def clean(grid, tmp_path):
    """Fault-free serial reference results for the micro grid."""
    return run_grid(grid, cache=rc.ResultsCache(tmp_path / "ref"),
                    manifest_dir=tmp_path / "runs")


def grid_keys(grid):
    # Keys must match what run_grid computes, which folds in the
    # ambient backend (REPRO_BACKEND) — seed searches over these keys
    # would otherwise target cells run_grid never executes.
    backend = resolve_backend(None)
    return [_job_spec(job, backend=backend)[1] for job in grid]


def find_seed(predicate, limit=500):
    """Smallest plan seed satisfying ``predicate(seed)``."""
    for seed in range(limit):
        if predicate(seed):
            return seed
    raise AssertionError("no satisfying fault seed found")


def assert_identical(results, reference):
    assert len(results) == len(reference)
    for got, want in zip(results, reference):
        assert got.as_dict() == want.as_dict()


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = faults.FaultPlan.parse(
            "seed=7, exc:0.25, crash:0.1:2, hang:0.05:1:120")
        assert plan.seed == 7
        assert [s.kind for s in plan.specs] == ["exc", "crash", "hang"]
        assert plan.spec("crash").max_attempt == 2
        assert plan.spec("hang").arg == 120.0
        assert plan.spec("slow") is None

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.FaultPlan.parse("explode:0.5")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            faults.FaultPlan.parse("exc:1.5")

    def test_decisions_are_deterministic(self):
        plan = faults.FaultPlan.parse("seed=3,exc:0.5")
        draws = [plan.fires("exc", f"site{i}") for i in range(64)]
        again = [plan.fires("exc", f"site{i}") for i in range(64)]
        assert draws == again
        assert any(draws) and not all(draws)      # rate actually bites

    def test_seed_changes_schedule(self):
        a = faults.FaultPlan.parse("seed=1,exc:0.5")
        b = faults.FaultPlan.parse("seed=2,exc:0.5")
        assert [a.fires("exc", f"s{i}") for i in range(64)] != \
            [b.fires("exc", f"s{i}") for i in range(64)]

    def test_transience_bound(self):
        plan = faults.FaultPlan.parse("exc:1.0:2")
        assert plan.fires("exc", "s", attempt=1)
        assert plan.fires("exc", "s", attempt=2)
        assert not plan.fires("exc", "s", attempt=3)

    def test_env_activation(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults.active_plan() is None
        monkeypatch.setenv("REPRO_FAULTS", "seed=9,exc:0.5")
        assert faults.active_plan().seed == 9
        faults.activate(faults.FaultPlan.parse("seed=1,crash:1.0"))
        assert faults.active_plan().seed == 1    # explicit plan wins

    def test_in_process_crash_raises_instead_of_exiting(self):
        faults.activate(faults.FaultPlan.parse("crash:1.0"))
        with pytest.raises(faults.FaultInjected, match="crash"):
            faults.inject_execution("some-site", attempt=1)


class TestTransientRetry:
    def test_retry_then_succeed_bit_identical(self, grid, clean,
                                              tmp_path):
        # Every cell fails its first attempt, succeeds on retry.
        faults.activate(faults.FaultPlan.parse("seed=1,exc:1.0"))
        cache = rc.ResultsCache(tmp_path / "c")
        res = run_grid(grid, cache=cache,
                       policy=RunPolicy(retries=2, **FAST),
                       manifest_dir=tmp_path / "runs", run_id="retry")
        assert_identical(res, clean)
        assert cache.stores == len(grid)
        m = RunManifest.load("retry", tmp_path / "runs")
        assert all(c["status"] == "done" and c["attempts"] == 2
                   for c in m.cells.values())

    def test_serial_parallel_equivalence_under_faults(self, grid, clean,
                                                      tmp_path):
        plan = faults.FaultPlan.parse("seed=5,exc:0.5:2")
        pol = RunPolicy(retries=3, **FAST)
        faults.activate(plan)
        serial = run_grid(grid, cache=rc.ResultsCache(tmp_path / "s"),
                          policy=pol, manifest_dir=tmp_path / "runs")
        par = run_grid(grid, jobs=2,
                       cache=rc.ResultsCache(tmp_path / "p"),
                       policy=pol, manifest_dir=tmp_path / "runs")
        assert_identical(serial, clean)
        assert_identical(par, clean)

    def test_retries_exhausted_raises_grid_error(self, grid, tmp_path):
        faults.activate(faults.FaultPlan.parse("seed=1,exc:1.0:99"))
        with pytest.raises(GridError) as ei:
            run_grid(grid, cache=rc.ResultsCache(tmp_path / "c"),
                     policy=RunPolicy(retries=1, **FAST),
                     manifest_dir=tmp_path / "runs")
        assert len(ei.value.failures) == len(grid)
        assert ei.value.run_id is not None

    def test_allow_partial_returns_none_for_failed_cells(self, grid,
                                                         tmp_path):
        keys = grid_keys(grid)

        def one_cell_always_fails(seed):
            # Exactly one cell fails all 3 attempts (retries=2); the
            # rest succeed at some attempt within the budget.
            plan = faults.FaultPlan.parse(f"seed={seed},exc:0.5:99")
            doomed = [k for k in keys
                      if all(plan.fires("exc", k, a) for a in (1, 2, 3))]
            return len(doomed) == 1

        seed = find_seed(one_cell_always_fails)
        faults.activate(faults.FaultPlan.parse(f"seed={seed},exc:0.5:99"))
        res = run_grid(grid, cache=rc.ResultsCache(tmp_path / "c"),
                       policy=RunPolicy(retries=2, allow_partial=True,
                                        **FAST),
                       manifest_dir=tmp_path / "runs")
        assert sum(r is None for r in res) == 1
        assert sum(r is not None for r in res) == len(grid) - 1

    def test_fail_fast_aborts_immediately(self, grid, tmp_path):
        faults.activate(faults.FaultPlan.parse("seed=1,exc:1.0:99"))
        executed = []
        real = parallel._execute

        def counting(spec):
            executed.append(spec["variant"])
            return real(spec)

        parallel._execute = counting
        try:
            with pytest.raises(GridError, match="fail-fast"):
                run_grid(grid, cache=rc.ResultsCache(tmp_path / "c"),
                         policy=RunPolicy(fail_fast=True, **FAST),
                         manifest_dir=tmp_path / "runs")
        finally:
            parallel._execute = real
        assert executed == []     # first cell aborted before simulating


class TestWorkerCrash:
    def test_crash_mid_grid_recovers_bit_identical(self, grid, clean,
                                                   tmp_path):
        keys = grid_keys(grid)
        plan_of = lambda s: faults.FaultPlan.parse(f"seed={s},crash:0.5")
        seed = find_seed(
            lambda s: sum(plan_of(s).fires("crash", k) for k in keys)
            in (1, 2))
        faults.activate(plan_of(seed))
        cache = rc.ResultsCache(tmp_path / "c")
        res = run_grid(grid, jobs=2, cache=cache,
                       policy=RunPolicy(retries=2, **FAST),
                       manifest_dir=tmp_path / "runs")
        assert_identical(res, clean)
        # Every completed payload was checkpointed to the cache.
        assert len(cache) == len(grid)

    def test_completed_payloads_survive_crash(self, grid, tmp_path):
        # All cells crash on every attempt -> the grid fails, but any
        # cell that completed before/with the crashes stays cached.
        faults.activate(faults.FaultPlan.parse("seed=2,crash:0.5:99"))
        cache = rc.ResultsCache(tmp_path / "c")
        try:
            run_grid(grid, jobs=2, cache=cache,
                     policy=RunPolicy(retries=1, **FAST),
                     manifest_dir=tmp_path / "runs", run_id="crashed")
        except GridError:
            pass
        m = RunManifest.load("crashed", tmp_path / "runs")
        done = m.settled_keys()
        assert all(cache.get(k) is not None for k in done)

    def test_crash_charges_only_the_crashed_cell(self, grid, clean,
                                                 tmp_path):
        # One worker dies under the first cell while its sibling runs
        # in the other worker: only the dead worker's lease is spent.
        keys = grid_keys(grid)
        plan_of = lambda s: faults.FaultPlan.parse(f"seed={s},crash:0.3")
        seed = find_seed(lambda s: [
            k for k in keys if plan_of(s).fires("crash", k)] == keys[:1])
        faults.activate(plan_of(seed))
        res = run_grid(grid, jobs=2,
                       cache=rc.ResultsCache(tmp_path / "a"),
                       policy=RunPolicy(retries=0, allow_partial=True,
                                        **FAST),
                       manifest_dir=tmp_path / "runs", run_id="once")
        assert [r is None for r in res] == [True, False, False, False]
        m = RunManifest.load("once", tmp_path / "runs")
        assert [k for k, c in m.cells.items()
                if c["status"] == "failed"] == keys[:1]

        res = run_grid(grid, jobs=2,
                       cache=rc.ResultsCache(tmp_path / "b"),
                       policy=RunPolicy(retries=2, **FAST),
                       manifest_dir=tmp_path / "runs", run_id="retried")
        assert_identical(res, clean)
        m = RunManifest.load("retried", tmp_path / "runs")
        assert {k: c["attempts"] for k, c in m.cells.items()} == \
            {k: 2 if k == keys[0] else 1 for k in keys}

    def test_every_first_attempt_crashing_recovers_in_two_attempts(
            self, grid, clean, tmp_path):
        # Every cell's first attempt kills its worker; each replacement
        # worker runs the retry, which survives.
        faults.activate(faults.FaultPlan.parse("seed=4,crash:1.0"))
        res = run_grid(grid, jobs=2,
                       cache=rc.ResultsCache(tmp_path / "c"),
                       policy=RunPolicy(retries=2, **FAST),
                       manifest_dir=tmp_path / "runs", run_id="crashy")
        assert_identical(res, clean)
        m = RunManifest.load("crashy", tmp_path / "runs")
        assert [c["attempts"] for c in m.cells.values()] == \
            [2] * len(grid)


class TestHungWorker:
    def test_timeout_recovers_without_stalling_siblings(self, grid,
                                                        clean, tmp_path):
        keys = grid_keys(grid)
        spec = "hang:0.5:1:30"
        seed = find_seed(lambda s: sum(
            faults.FaultPlan.parse(f"seed={s},{spec}").fires("hang", k)
            for k in keys) == 1)
        faults.activate(faults.FaultPlan.parse(f"seed={seed},{spec}"))
        import time
        t0 = time.monotonic()
        res = run_grid(grid, jobs=2,
                       cache=rc.ResultsCache(tmp_path / "c"),
                       policy=RunPolicy(timeout=2.0, retries=2, **FAST),
                       manifest_dir=tmp_path / "runs", run_id="hung")
        elapsed = time.monotonic() - t0
        assert_identical(res, clean)
        # The 30s hang never ran to completion: the worker was killed.
        assert elapsed < 25.0
        errors = [c["error"] for c in
                  RunManifest.load("hung", tmp_path / "runs")
                  .cells.values()]
        assert not any(errors)    # final state: everything clean

    def test_timeout_marks_cell_failed_when_out_of_retries(
            self, grid, tmp_path):
        keys = grid_keys(grid)
        spec = "hang:0.5:99:30"
        seed = find_seed(lambda s: sum(
            faults.FaultPlan.parse(f"seed={s},{spec}").fires("hang", k)
            for k in keys) == 1)
        faults.activate(faults.FaultPlan.parse(f"seed={seed},{spec}"))
        res = run_grid(grid, jobs=2,
                       cache=rc.ResultsCache(tmp_path / "c"),
                       policy=RunPolicy(timeout=1.0, retries=0,
                                        allow_partial=True, **FAST),
                       manifest_dir=tmp_path / "runs", run_id="perma")
        assert sum(r is None for r in res) == 1
        assert sum(r is not None for r in res) == len(grid) - 1
        m = RunManifest.load("perma", tmp_path / "runs")
        failed = [c for c in m.cells.values() if c["status"] == "failed"]
        assert len(failed) == 1 and "timeout" in failed[0]["error"]

    def test_worker_reaped_mid_send_does_not_stall_siblings(
            self, grid, clean, tmp_path, monkeypatch):
        """A hung worker whose heartbeat is stuck mid-send on its result
        channel is terminated; the other workers' results still arrive
        (a cross-process lock on a shared channel would stay held)."""
        hung_key = grid_keys(grid)[0]
        execute = parallel._execute_cell

        def stuck_then_execute(spec, key, attempt=1):
            if key == hung_key and attempt == 1:
                # From here on, every send this worker starts stalls
                # before its first byte: the heartbeat thread's next
                # one holds the channel until the worker is reaped.
                connection.Connection._send_bytes = \
                    lambda conn, buf: time.sleep(3600)
                time.sleep(3600)
            return execute(spec, key, attempt)

        monkeypatch.setattr(parallel, "_execute_cell", stuck_then_execute)
        # Beat every 0.15 s, well inside the 1 s cell timeout.
        monkeypatch.setattr(supervisor, "HEARTBEAT_FRACTION", 0.01)
        out = {}

        def sweep():
            out["res"] = run_grid(
                grid, jobs=2, cache=rc.ResultsCache(tmp_path / "c"),
                policy=RunPolicy(timeout=1.0, retries=2, **FAST),
                manifest_dir=tmp_path / "runs", run_id="midsend")

        t = threading.Thread(target=sweep, daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive(), "grid stalled after a reaped worker"
        assert_identical(out["res"], clean)


class TestCacheCorruption:
    def test_injected_corruption_quarantined_then_recomputed(
            self, grid, clean, tmp_path):
        # Corrupt the first write of every entry; the warm rerun must
        # quarantine each, recompute, and still match the reference.
        faults.activate(faults.FaultPlan.parse("seed=3,corrupt:1.0"))
        cache = rc.ResultsCache(tmp_path / "c")
        first = run_grid(grid, cache=cache,
                         manifest_dir=tmp_path / "runs")
        assert_identical(first, clean)   # results never pass via cache
        faults.deactivate()
        warm = run_grid(grid, cache=cache, manifest_dir=tmp_path / "runs")
        assert_identical(warm, clean)
        assert cache.corrupt == len(grid)
        assert cache.quarantined == len(grid)
        assert len(list(cache.quarantine_dir.glob("*.bad"))) == len(grid)
        # Third run: the recomputed entries are clean cache hits now.
        third = run_grid(grid, cache=cache,
                         manifest_dir=tmp_path / "runs")
        assert_identical(third, clean)
        assert cache.hits == len(grid)

    def test_truncation_fault_detected(self, grid, tmp_path):
        faults.activate(faults.FaultPlan.parse("seed=3,truncate:1.0"))
        cache = rc.ResultsCache(tmp_path / "c")
        run_grid(grid[:1], cache=cache, manifest_dir=tmp_path / "runs")
        faults.deactivate()
        key = grid_keys(grid)[0]
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_legacy_unenveloped_entry_quarantined(self, tmp_path):
        cache = rc.ResultsCache(tmp_path / "c")
        key = "ab" + "0" * 62
        path = Path(cache._file(key))
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"cycles": 1.0}))   # pre-envelope
        assert cache.get(key) is None
        assert cache.corrupt == 1 and cache.quarantined == 1


class TestInterruptAndResume:
    def test_sigint_writes_partial_manifest_and_resumes(
            self, grid, clean, tmp_path):
        real = parallel._execute
        ran = {"n": 0}

        def interrupt_after_one(spec):
            ran["n"] += 1
            if ran["n"] == 2:
                raise KeyboardInterrupt
            return real(spec)

        parallel._execute = interrupt_after_one
        cache = rc.ResultsCache(tmp_path / "c")
        try:
            with pytest.raises(GridInterrupted) as ei:
                run_grid(grid, cache=cache,
                         manifest_dir=tmp_path / "runs", run_id="intr")
        finally:
            parallel._execute = real
        assert ei.value.run_id == "intr"
        m = RunManifest.load("intr", tmp_path / "runs")
        assert m.data["status"] == "interrupted"
        assert m.counts() == {"done": 1, "pending": len(grid) - 1}

        # Resume: only the 3 unfinished cells simulate; the completed
        # one is a cache hit (zero redundant work).
        executed = []

        def counting(spec):
            executed.append(spec["variant"])
            return real(spec)

        parallel._execute = counting
        try:
            res = run_grid(grid, cache=cache,
                           manifest_dir=tmp_path / "runs", run_id="intr")
        finally:
            parallel._execute = real
        assert_identical(res, clean)
        assert len(executed) == len(grid) - 1
        assert cache.hits == 1
        m = RunManifest.load("intr", tmp_path / "runs")
        assert m.data["status"] == "complete"
        assert m.data["resumes"] == 1

    def test_grid_interrupted_not_swallowed_by_except_exception(self):
        with pytest.raises(KeyboardInterrupt):
            try:
                raise GridInterrupted("rid", "summary")
            except Exception:      # figure-layer handlers must not eat it
                pytest.fail("GridInterrupted caught as Exception")


class TestZeroOverheadWhenOff:
    def test_no_plan_means_no_injection_calls(self, grid, tmp_path,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.deactivate()

        def forbidden(*a, **k):
            raise AssertionError("fault decision taken with no plan")

        monkeypatch.setattr(faults.FaultPlan, "fires", forbidden)
        res = run_grid(grid[:1], cache=rc.ResultsCache(tmp_path / "c"),
                       manifest_dir=tmp_path / "runs")
        assert res[0].cycles > 0
