"""End-to-end tests of the simulation service (repro/service/).

Real orchestrator + real worker processes + real HTTP over loopback,
driven through the typed urllib client.  The centerpiece mirrors the
acceptance criterion of the service: a sweep submitted through the
API — with ``worker_vanish``, ``lease_loss`` and ``orchestrator_crash``
faults firing, the orchestrator dying and restarting mid-job —
completes byte-identically to the fault-free CLI ``run_grid`` run,
with no cell executed beyond its bounded retry budget (asserted from
the telemetry event log).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from repro import faults
from repro.core.system import VARIANTS
from repro.experiments import parallel
from repro.experiments import results_cache as rc
from repro.experiments.manifest import RunManifest
from repro.experiments.runner import default_config, run_variant
from repro.experiments.workloads import cache_dir, workload_trace
from repro.service import (JobRequest, Orchestrator, ServiceConfig,
                           ServiceClient, ServiceError)
from repro.service.api import serve_in_thread
from repro.service.orchestrator import SERVICE_RUN_ID
from repro.service.queue import LEASED
from repro.service.schemas import (TERMINAL_JOB_STATES,
                                   validate_job_request)
from repro.telemetry import events as tele_events

MICRO = dict(tier="tiny", length=4_000)
WLS = ("pr.urand",)
REQ = JobRequest(workloads=list(WLS), variants=("sdc_lp",), **MICRO)
FAST = parallel.RunPolicy(retries=2, backoff=0.05, backoff_max=0.1)


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    """Own cache dir per test (worker processes inherit it via fork)
    and no fault plan leaking between tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    yield
    faults.deactivate()


def config(**kw) -> ServiceConfig:
    kw.setdefault("workers", 2)
    kw.setdefault("lease_ttl", 2.0)
    kw.setdefault("policy", FAST)
    return ServiceConfig(**kw)


@contextmanager
def service(**kw):
    """A live orchestrator: worker pool + scheduler loop + HTTP."""
    orc = Orchestrator(config(**kw))
    server, _ = serve_in_thread(orc)
    loop = threading.Thread(target=orc.run, args=(0.05,), daemon=True)
    loop.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=30.0)
    try:
        yield orc, client
    finally:
        orc.request_drain()
        loop.join(timeout=30.0)
        assert not loop.is_alive(), "drain did not stop the loop"


@contextmanager
def paused_service(**kw):
    """HTTP + intake only: no workers, no scheduler loop — jobs stay
    queued, which pins down intake-side behaviour deterministically."""
    kw.setdefault("workers", 0)
    orc = Orchestrator(config(**kw))
    server, _ = serve_in_thread(orc)
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}", timeout=10.0)
    try:
        yield orc, client
    finally:
        server.shutdown()
        server.server_close()
        orc.journal.close()


def grid_of(req: JobRequest) -> list[parallel.Job]:
    cfg = default_config()
    return [parallel.Job(wl, v, cfg, req.tier, req.length)
            for wl in req.workloads
            for v in ("baseline",) + tuple(req.variants)]


class TestHappyPath:
    def test_submit_wait_results_roundtrip(self):
        with service() as (orc, client):
            health = client.health()
            assert health["status"] == "ok"
            assert health["workers"] == 2
            resp = client.submit(REQ)
            assert resp.cells == 2              # baseline + sdc_lp
            status = client.wait(resp.job_id, timeout=120.0)
            assert status.state == "complete"
            assert status.progress.done == 2
            assert status.progress.failed == 0
            rows = client.results(resp.job_id)
            assert len(rows) == 2
            assert all(r["status"] == "done" for r in rows)
            assert all(r["payload_sha"] for r in rows)
            assert [client.status(resp.job_id).job_id] == \
                [j.job_id for j in client.list_jobs()]

    def test_sdc_clp_job_matches_reference_loop(self):
        req = JobRequest(workloads=list(WLS), variants=("sdc_clp",),
                         **MICRO)
        with service() as (orc, client):
            resp = client.submit(req)
            status = client.wait(resp.job_id, timeout=120.0)
            assert status.state == "complete"
            rows = client.results(resp.job_id)
        trace = workload_trace(WLS[0], **MICRO)
        assert {r["label"]: r["payload_sha"] for r in rows} == {
            f"{WLS[0]}/{v}": rc.payload_checksum(run_variant(
                trace, v, default_config(), backend="ref").to_payload())
            for v in ("baseline", "sdc_clp")}

    def test_results_follow_streams_until_terminal(self):
        with service() as (orc, client):
            resp = client.submit(REQ)
            rows = client.results(resp.job_id, follow=True,
                                  timeout=120.0)
            assert len(rows) == 2       # stream closed at terminal
            assert client.status(resp.job_id).state == "complete"

    def test_second_submission_is_served_from_cache(self):
        with service() as (orc, client):
            first = client.submit(REQ)
            client.wait(first.job_id, timeout=120.0)
            again = client.submit(REQ)
            status = client.wait(again.job_id, timeout=30.0)
            assert status.state == "complete"
            assert status.progress.cached == 2  # zero re-simulation
            assert all(r["source"] == "cache"
                       for r in client.results(again.job_id))

    def test_byte_identity_with_direct_run_grid(self):
        with service() as (orc, client):
            resp = client.submit(REQ)
            assert client.wait(resp.job_id,
                               timeout=120.0).state == "complete"
        # The same grid through the CLI engine must be 100% warm: the
        # service computed every cell under the engine's own keys.
        parallel.run_grid(grid_of(REQ), jobs=1, policy=FAST,
                          run_id="identity")
        manifest = RunManifest.load("identity")
        assert {c["source"] for c in manifest.cells.values()} \
            == {"cache"}


class TestScheduling:
    def test_submit_wakes_the_scheduler(self):
        """A submitted job's first cell is leased by the next step at
        once, not after the step's poll runs out.  The long lease TTL
        keeps heartbeats (which would also wake it) out of the way."""
        orc = Orchestrator(config(workers=1, lease_ttl=60.0))
        orc.start()
        try:
            deadline = time.monotonic() + 60.0
            while not all(w.ready for w in orc._workers.values()):
                assert time.monotonic() < deadline, "worker never ready"
                orc.step(poll=0.05)
            orc.submit(REQ)
            t0 = time.monotonic()
            orc.step(poll=5.0)
            assert time.monotonic() - t0 < 2.5
            assert any(c.state == LEASED for c in orc.queue.cells.values())
        finally:
            orc.request_drain()
            deadline = time.monotonic() + 60.0
            while not orc._stopped and time.monotonic() < deadline:
                orc.step(poll=0.05)
            orc._shutdown_workers()
            orc.journal.close()


class TestApiContract:
    def test_invalid_request_is_400_with_every_error(self):
        with paused_service() as (orc, client):
            with pytest.raises(ServiceError) as ei:
                client._request("POST", "/jobs",
                                {"variants": ["nope"],
                                 "tier": "galactic"})
            assert ei.value.code == 400
            assert len(ei.value.detail) == 2    # every problem at once
        assert validate_job_request(
            {"variants": ["nope"], "tier": "galactic",
             "length": -1}) == [
            "variants: unknown variant 'nope' (expected one of "
            "baseline, sdc_lp, topt, distill, l1iso, llc2x, expert, "
            "victim, lp_bypass, sdc_clp, sdc_lp_tagless, expert_best)",
            "tier: 'galactic' not one of tiny, small, medium, large",
            "length: must be a positive integer (accesses)",
        ]

    def test_every_model_variant_validates(self):
        for v in VARIANTS:
            assert validate_job_request({"variants": [v]}) == [], v

    def test_bad_body_http_400(self):
        import urllib.error
        import urllib.request
        with paused_service() as (orc, client):
            req = urllib.request.Request(
                client.base_url + "/jobs", data=b'{"variants": ["x"]}',
                method="POST")
            with pytest.raises(urllib.error.HTTPError) as ei:
                urllib.request.urlopen(req, timeout=5.0)
            assert ei.value.code == 400

    def test_unknown_job_is_404(self):
        with paused_service() as (orc, client):
            with pytest.raises(ServiceError) as ei:
                client.status("job-never-existed")
            assert ei.value.code == 404
            with pytest.raises(ServiceError) as ei:
                client.cancel("job-never-existed")
            assert ei.value.code == 404

    def test_unknown_route_is_404(self):
        with paused_service() as (orc, client):
            with pytest.raises(ServiceError) as ei:
                client._request("GET", "/nope")
            assert ei.value.code == 404

    def test_backpressure_429_with_retry_after(self):
        with paused_service(queue_depth=1) as (orc, client):
            client.submit(REQ)                  # fills the queue
            with pytest.raises(ServiceError) as ei:
                client.submit(JobRequest(workloads=["cc.urand"],
                                         **MICRO))
            assert ei.value.code == 429
            assert ei.value.retry_after and ei.value.retry_after > 0

    def test_draining_rejects_with_503(self):
        with paused_service() as (orc, client):
            client.drain()
            with pytest.raises(ServiceError) as ei:
                client.submit(REQ)
            assert ei.value.code == 503
            assert client.health()["status"] == "draining"

    def test_cancel_pending_job(self):
        with paused_service() as (orc, client):
            resp = client.submit(REQ)
            status = client.cancel(resp.job_id)
            assert status.state == "cancelled"
            assert status.progress.cancelled == 2
            rows = client.results(resp.job_id)
            assert {r["status"] for r in rows} == {"cancelled"}
            # Cancel is idempotent.
            assert client.cancel(resp.job_id).state == "cancelled"


class TestFaults:
    """Each service fault kind exercised end-to-end over HTTP."""

    def _complete_under_faults(self, spec: str,
                               expect_attempts: int) -> None:
        faults.activate(faults.FaultPlan.parse(spec))
        with service() as (orc, client):
            resp = client.submit(REQ)
            status = client.wait(resp.job_id, timeout=180.0)
            assert status.state == "complete"
            assert status.progress.failed == 0
            rows = client.results(resp.job_id)
            assert all(r["status"] == "done" for r in rows)
            assert all(r["attempts"] == expect_attempts for r in rows)

    def test_worker_crash_mid_cell_requeues_and_completes(self):
        # The engine's own crash fault fires *inside* _execute_cell:
        # the worker process dies mid-cell; liveness detection revokes
        # the lease and the requeued attempt (2) survives.
        self._complete_under_faults("seed=3,crash:1.0:1",
                                    expect_attempts=2)

    def test_worker_vanish_requeues_and_completes(self):
        # Silent death just before execution — no error message ever
        # arrives; only lease/liveness machinery can notice.
        self._complete_under_faults("seed=3,worker_vanish:1.0:1",
                                    expect_attempts=2)

    def test_lease_loss_discards_stale_result_and_requeues(self):
        self._complete_under_faults("seed=3,lease_loss:1.0:1",
                                    expect_attempts=2)
        # The revoked attempt's late result must have been rejected by
        # its stale fencing token — visible in the journal.
        from repro.service.queue import Journal
        records = Journal(cache_dir() / "service"
                          / "journal.jsonl").replay()
        assert any(r["type"] == "stale_result" for r in records)
        done = [r for r in records if r["type"] == "cell_done"]
        assert done and all(r["attempt"] == 2 for r in done)

    def test_dead_worker_is_replaced(self):
        faults.activate(faults.FaultPlan.parse(
            "seed=3,worker_vanish:1.0:1"))
        with service(workers=1) as (orc, client):
            resp = client.submit(REQ)
            assert client.wait(resp.job_id,
                               timeout=180.0).state == "complete"
            with orc._lock:
                alive = [w for w in orc._workers.values()
                         if w.proc.is_alive()]
            assert len(alive) == 1      # vanished worker was respawned


class TestCrashRecovery:
    """The acceptance scenario: orchestrator killed mid-job, restarted,
    job completes byte-identically with bounded per-cell work."""

    def test_orchestrator_crash_restart_resumes_and_completes(
            self, tmp_path):
        tdir = tmp_path / "telemetry"
        faults.activate(faults.FaultPlan.parse(
            "seed=11,worker_vanish:0.5:1,lease_loss:0.3:1,"
            "orchestrator_crash:1.0:1"))
        req = JobRequest(workloads=["pr.urand", "cc.urand"],
                         variants=("sdc_lp",), **MICRO)

        # Generation 1: runs until the injected crash kills the loop.
        orc1 = Orchestrator(config(telemetry_dir=tdir))
        crashed: list[BaseException] = []

        def run_to_crash():
            try:
                orc1.run(0.05)
            except faults.FaultInjected as exc:
                crashed.append(exc)
        loop1 = threading.Thread(target=run_to_crash, daemon=True)
        loop1.start()
        resp = orc1.submit(req)
        assert resp.cells == 4
        loop1.join(timeout=180.0)
        assert not loop1.is_alive() and crashed, \
            "crash fault never fired"
        assert "orchestrator crash" in str(crashed[0])
        assert orc1.jobs[resp.job_id].state in ("queued", "running")

        # Generation 2: replays journal + manifests + cache, resumes
        # the in-flight job with zero redundant simulation, survives
        # (the crash fault is bounded to generation 1), completes.
        orc2 = Orchestrator(config(telemetry_dir=tdir))
        assert orc2.generation == 2
        assert resp.job_id in orc2.jobs
        loop2 = threading.Thread(target=orc2.run, args=(0.05,),
                                 daemon=True)
        loop2.start()
        deadline = time.monotonic() + 180.0
        while time.monotonic() < deadline:
            status = orc2.status(resp.job_id)
            if status.state in TERMINAL_JOB_STATES:
                break
            time.sleep(0.1)
        assert status.state == "complete"
        # At least one cell must have been recovered from the cache
        # (the one whose completion was journaled before the crash).
        assert status.progress.cached >= 1
        orc2.request_drain()
        loop2.join(timeout=30.0)

        # Bounded work, asserted from the merged event log across both
        # generations: no cell executed beyond 1 + retries attempts.
        events = tele_events.read_events(
            tele_events.events_path(tdir, SERVICE_RUN_ID))
        per_key: dict[str, int] = {}
        for record in events:
            if record["event"] == "cell_exec_started":
                per_key[record["key"]] = per_key.get(record["key"],
                                                     0) + 1
        assert per_key, "no execution events recorded"
        assert all(n <= 1 + FAST.retries for n in per_key.values())

        # Byte-identity: the fault-free CLI engine re-run of the same
        # grid is served entirely from the service-computed cache.
        faults.deactivate()
        parallel.run_grid(grid_of(req), jobs=1, policy=FAST,
                          run_id="identity")
        manifest = RunManifest.load("identity")
        assert {c["source"] for c in manifest.cells.values()} \
            == {"cache"}

    def test_recovery_finalizes_a_fully_cached_job(self):
        # Orchestrator dies after every cell completed but before the
        # job record flipped: the restart must finalize, not re-run.
        with service() as (orc, client):
            resp = client.submit(REQ)
            client.wait(resp.job_id, timeout=120.0)
        # Forge the durable record back to "running" (crash window).
        import json
        record_path = (cache_dir() / "service" / "jobs"
                       / f"{resp.job_id}.json")
        record = json.loads(record_path.read_text())
        record["state"] = "running"
        record.pop("progress", None)
        record_path.write_text(json.dumps(record))
        orc2 = Orchestrator(config(workers=0))
        status = orc2.status(resp.job_id)
        assert status.state == "complete"
        assert status.progress.cached == 2
        orc2.journal.close()


class TestMergeJobs:
    def test_merge_job_stitches_a_complete_shard_set(self):
        # One-shard "set": run it to completion first, then submit the
        # merge job — the watch returns immediately and stitches.
        grid = grid_of(REQ)
        with pytest.raises(parallel.ShardComplete):
            parallel.run_grid(grid, policy=FAST, run_id="sharded",
                              shard=(0, 1))
        with service() as (orc, client):
            resp = client.submit(JobRequest(kind="merge",
                                            run_id="sharded",
                                            watch_timeout=60.0))
            status = client.wait(resp.job_id, timeout=60.0)
            assert status.state == "complete"
        assert RunManifest.load("sharded").data["status"] == "complete"

    def test_merge_job_times_out_when_shards_never_arrive(self):
        with service() as (orc, client):
            resp = client.submit(JobRequest(kind="merge",
                                            run_id="never-ran",
                                            watch_timeout=0.5))
            status = client.wait(resp.job_id, timeout=30.0)
            assert status.state == "failed"
            assert "not complete" in status.error


class TestManifestHygiene:
    def test_latest_skips_service_manifests(self, tmp_path):
        runs = tmp_path / "runs"
        svc = RunManifest.open("job-x", directory=runs, service=True)
        svc.register("k", "wl/v")
        svc.save()
        assert svc.path.name == "job-x.service.json"
        with pytest.raises(FileNotFoundError):
            RunManifest.latest(runs)    # only service manifests exist
        plain = RunManifest.open("real-run", directory=runs)
        plain.save()
        assert RunManifest.latest(runs).run_id == "real-run"
