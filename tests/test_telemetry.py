"""Tests for repro.telemetry: metrics core, windowed probes, event
logs (with worker-shard merging), schema validation, trace export and
the run_grid integration."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import telemetry as tele
from repro.config import scaled_config
from repro.core.batch import kernel_available
from repro.experiments import results_cache as rc
from repro.experiments.parallel import Job, ProgressPrinter, Progress, run_grid
from repro.experiments.runner import run_variant
from repro.experiments.workloads import workload_trace
from repro.telemetry import events as tele_events
from repro.telemetry import schema as tele_schema
from repro.telemetry import trace_export
from repro.telemetry.metrics import (Counter, Stopwatch, TimeSeries,
                                     format_eta)
from repro.telemetry.probes import (TIMELINE_METRICS, Timeline,
                                    WindowProbe, _Snapshot)
from repro.telemetry.render import bar_chart, render_timeline, sparkline

MICRO = dict(tier="tiny", length=6_000)


# -- metrics core ----------------------------------------------------------

class TestInstruments:
    def test_counter(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_timeseries_ring_drops_oldest(self):
        ts = TimeSeries(capacity=3)
        for v in range(5):
            ts.append(float(v))
        assert ts.values() == [2.0, 3.0, 4.0]
        assert ts.dropped == 2
        assert len(ts) == 3

    def test_stopwatch_with_fake_clock(self):
        t = [10.0]
        w = Stopwatch(now=lambda: t[0])
        t[0] = 12.5
        assert w.elapsed() == pytest.approx(2.5)
        w.restart()
        assert w.elapsed() == 0.0

    def test_format_eta(self):
        assert format_eta(0) == "0:00"
        assert format_eta(65) == "1:05"
        assert format_eta(3726) == "1:02:06"
        assert format_eta(float("inf")) == "--:--"
        assert format_eta(float("nan")) == "--:--"


# -- windowed probes -------------------------------------------------------

def _snap(n: int) -> _Snapshot:
    """Synthetic cumulative counters after n windows of fixed deltas."""
    return _Snapshot(accesses=100 * n, instructions=1000 * n,
                     l1d_misses=10 * n, l2c_misses=5 * n,
                     llc_misses=2 * n, sdc_accesses=20 * n,
                     sdc_hits=15 * n, lp_lookups=50 * n,
                     lp_irregular=20 * n, dram_reads=2 * n,
                     dram_writes=n)


class TestWindowProbe:
    def test_windowed_deltas(self):
        n = [0]
        probe = WindowProbe(100, lambda: _snap(n[0]))
        for i in range(1, 4):
            n[0] = i
            probe.sample()
        t = probe.timeline()
        assert t.num_windows == 3
        assert t.metric("l1d_mpki") == [10.0] * 3
        assert t.metric("l2c_mpki") == [5.0] * 3
        assert t.metric("sdc_hit_rate") == [0.75] * 3
        assert t.metric("lp_irregular_frac") == [0.4] * 3
        assert t.metric("bypass_frac") == [0.2] * 3
        assert t.metric("dram_writes") == [1.0] * 3
        assert t.instructions == [1000] * 3

    def test_rebase_after_stats_reset(self):
        # After a warm-up reset the cumulative counters restart at 0;
        # rebase() prevents a huge negative delta window.
        n = [5]
        probe = WindowProbe(100, lambda: _snap(n[0]))
        probe.sample()
        n[0] = 1            # counters were reset, one window elapsed
        probe.rebase()
        probe.sample()
        assert probe.timeline().metric("l1d_mpki") == [10.0, 10.0]

    def test_zero_instruction_window_is_zero_not_nan(self):
        probe = WindowProbe(100, lambda: _Snapshot())
        probe.sample()
        t = probe.timeline()
        assert t.metric("l1d_mpki") == [0.0]
        assert t.metric("bypass_frac") == [0.0]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowProbe(0, lambda: _Snapshot())

    def test_ring_capacity_reports_dropped(self):
        n = [0]
        probe = WindowProbe(10, lambda: _snap(n[0]), capacity=4)
        for i in range(1, 11):
            n[0] = i
            probe.sample()
        t = probe.timeline()
        assert t.num_windows == 4
        assert t.dropped == 6


class TestTimelinePayload:
    def test_round_trip(self):
        n = [0]
        probe = WindowProbe(64, lambda: _snap(n[0]))
        for i in range(1, 4):
            n[0] = i
            probe.sample()
        t = probe.timeline()
        back = Timeline.from_payload(
            json.loads(json.dumps(t.to_payload())))
        assert back.interval == t.interval
        assert back.series == t.series
        assert back.instructions == t.instructions
        assert back.dropped == t.dropped

    def test_unknown_version_rejected(self):
        payload = Timeline(interval=10).to_payload()
        payload["version"] = 99
        with pytest.raises(ValueError):
            Timeline.from_payload(payload)


class TestSystemIntegration:
    def test_single_core_timeline(self):
        trace = workload_trace("pr.urand", **MICRO)
        stats = run_variant(trace, "sdc_lp", scaled_config(64),
                            telemetry_every=500)
        t = stats.timeline
        assert t is not None and t.interval == 500
        assert t.num_windows >= 8
        assert set(t.series) == set(TIMELINE_METRICS)
        # Windowed MPKI must show phase structure, not a flat line.
        assert len(set(t.metric("l1d_mpki"))) > 1
        # Windowed deltas must sum back to the aggregate counters for
        # the covered windows (no drops at this size).
        assert t.dropped == 0
        covered = sum(t.instructions)
        assert covered <= stats.instructions
        # Payload round-trip through SystemStats is exact.
        back = type(stats).from_payload(stats.to_payload())
        assert back.timeline.series == t.series

    def test_telemetry_off_is_none(self):
        trace = workload_trace("pr.urand", **MICRO)
        stats = run_variant(trace, "sdc_lp", scaled_config(64))
        assert stats.timeline is None

    def test_multicore_per_core_timelines(self):
        from repro.core.multicore import MultiCoreSystem
        cfg = scaled_config(64, num_cores=2)
        traces = [workload_trace("pr.urand", **MICRO),
                  workload_trace("cc.urand", **MICRO)]
        result = MultiCoreSystem(cfg, variant="sdc_lp",
                                 telemetry_every=500).run(traces)
        for stats in result.per_core:
            assert stats.timeline is not None
            assert stats.timeline.num_windows >= 1


class TestRender:
    def test_sparkline_and_bar_chart(self):
        values = [0.0, 1.0, 2.0, 3.0]
        line = sparkline(values, width=4)
        assert len(line) == 4
        assert line[0] == " " and line[-1] == "@"
        chart = bar_chart(values, rows=3, width=4)
        assert "3.0 |" in chart and "0.0 |" in chart

    def test_render_timeline_report(self):
        n = [0]
        probe = WindowProbe(128, lambda: _snap(n[0]))
        for i in range(1, 21):
            n[0] = i
            probe.sample()
        out = render_timeline(probe.timeline(), title="demo")
        assert "demo" in out
        assert "20 windows x 128 accesses" in out
        assert "l1d_mpki" in out and "dram_writes" in out

    def test_render_empty_timeline(self):
        out = render_timeline(Timeline(interval=4096))
        assert "no complete windows" in out


# -- event logs ------------------------------------------------------------

class TestEventLog:
    def test_emit_and_read(self, tmp_path):
        log = tele_events.EventLog(tmp_path, "run1")
        log.emit("grid_started", total_cells=3)
        log.emit("cell_queued", key="k", label="w/v")
        log.close()
        records = tele_events.read_events(
            tele_events.events_path(tmp_path, "run1"))
        assert [r["event"] for r in records] == ["grid_started",
                                                 "cell_queued"]
        assert all(r["run_id"] == "run1" for r in records)
        assert tele_schema.validate_events(records) == []

    def test_shard_merge_sorts_and_removes_shards(self, tmp_path):
        log = tele_events.EventLog(tmp_path, "run1")
        log.emit("grid_started", total_cells=1)
        shard = tele_events.EventLog(
            tmp_path, "run1",
            path=tele_events.shard_path(tmp_path, "run1", 999))
        shard.emit("cell_exec_started", key="k", attempt=1)
        shard.emit("cell_exec_finished", key="k", attempt=1,
                   seconds=0.1, ok=True)
        shard.close()
        merged = log.merge_worker_shards()
        log.close()
        assert merged == 2
        assert not list(tmp_path.glob("*.w*.jsonl"))
        records = tele_events.read_events(
            tele_events.events_path(tmp_path, "run1"))
        assert len(records) == 3
        assert [r["ts"] for r in records] == sorted(
            r["ts"] for r in records)

    def test_merge_drops_torn_shard_lines(self, tmp_path):
        log = tele_events.EventLog(tmp_path, "run1")
        log.emit("grid_started", total_cells=1)
        shard_file = tele_events.shard_path(tmp_path, "run1", 7)
        shard_file.write_text(
            '{"ts": 1.0, "run_id": "run1", "pid": 7, '
            '"event": "cell_exec_started", "key": "k", "attempt": 1}\n'
            '{"ts": 2.0, "run_id": "run1", "pi', encoding="utf-8")
        assert log.merge_worker_shards() == 1
        log.close()

    @pytest.mark.parametrize("grid_shard", [False, True])
    def test_failed_merge_write_keeps_main_log(self, tmp_path,
                                               monkeypatch, grid_shard):
        log = tele_events.EventLog(tmp_path, "run1")
        log.emit("grid_started", total_cells=1)
        log.close()
        main = tele_events.events_path(tmp_path, "run1")
        before = main.read_bytes()
        part = (tele_events.events_path(tmp_path, "run1", shard=(0, 2))
                if grid_shard else
                tele_events.shard_path(tmp_path, "run1", 7))
        part.write_text('{"ts": 1.0, "run_id": "run1", "pid": 7, '
                        '"event": "cell_exec_started", "key": "k", '
                        '"attempt": 1}\n', encoding="utf-8")

        def disk_full(*a, **k):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError, match="no space"):
            if grid_shard:
                tele_events.merge_shard_logs(tmp_path, "run1")
            else:
                log.merge_worker_shards()
        assert main.read_bytes() == before
        assert part.exists()                # nothing folded, nothing lost
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_latest_run_id_ignores_shards(self, tmp_path):
        assert tele_events.latest_run_id(tmp_path) is None
        tele_events.EventLog(tmp_path, "a").emit("grid_started",
                                                 total_cells=1)
        tele_events.shard_path(tmp_path, "zz", 1).write_text(
            "{}\n", encoding="utf-8")
        assert tele_events.latest_run_id(tmp_path) == "a"

    def test_worker_emit_noop_when_unarmed(self):
        tele_events.worker_init(None)
        tele_events.worker_emit("cell_exec_started", key="k", attempt=1)

    def test_worker_emit_when_armed(self, tmp_path):
        import os
        tele_events.worker_init((str(tmp_path), "run9"))
        try:
            tele_events.worker_emit("cell_exec_started", key="k",
                                    attempt=1)
        finally:
            tele_events.worker_init(None)
        shard = tele_events.shard_path(tmp_path, "run9", os.getpid())
        assert shard.is_file()
        assert tele_events.read_events(shard)[0]["event"] == \
            "cell_exec_started"


class TestSchema:
    def test_rejects_unknown_event_and_missing_fields(self):
        bad = [{"ts": 1.0, "run_id": "r", "pid": 1, "event": "nope"},
               {"ts": 1.0, "run_id": "r", "pid": 1,
                "event": "cell_done", "key": "k"}]
        errors = tele_schema.validate_events(bad)
        assert any("unknown event" in e for e in errors)
        assert any("missing" in e for e in errors)

    def test_cell_engine_fields(self):
        def finished(**extra):
            return dict({"ts": 1.0, "run_id": "r", "pid": 1,
                         "event": "cell_exec_finished", "key": "k",
                         "attempt": 1, "seconds": 0.1, "ok": True},
                        **extra)
        assert tele_schema.validate_events([
            finished(), finished(engine="batch"),
            finished(engine="ref", fallback="invariant checking armed"),
        ]) == []
        errors = tele_schema.validate_events([
            finished(engine="gpu"), finished(engine="ref", fallback=3)])
        assert len(errors) == 2
        assert all("inadmissible" in e for e in errors)

    def test_rejects_mixed_run_ids(self):
        recs = [{"ts": 1.0, "run_id": r, "pid": 1,
                 "event": "grid_started", "total_cells": 1}
                for r in ("a", "b")]
        assert any("mixes" in e
                   for e in tele_schema.validate_events(recs))

    def test_empty_log_is_an_error(self, tmp_path):
        p = tmp_path / "events-x.jsonl"
        p.write_text("", encoding="utf-8")
        assert tele_schema.validate_events_file(p)

    def test_trace_validation(self):
        good = {"traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "worker"}},
            {"ph": "X", "name": "cell", "cat": "run", "ts": 0,
             "dur": 5, "pid": 1, "tid": 1},
            {"ph": "i", "s": "p", "name": "mark", "ts": 1, "pid": 1,
             "tid": 0}]}
        assert tele_schema.validate_trace(good) == []
        assert tele_schema.validate_trace({"traceEvents": [
            {"ph": "X", "name": "n", "pid": 1, "tid": 1, "ts": 0}]})
        assert tele_schema.validate_trace({})

    def test_cli_validator(self, tmp_path, capsys):
        log = tele_events.EventLog(tmp_path, "r")
        log.emit("grid_started", total_cells=1)
        log.close()
        path = str(tele_events.events_path(tmp_path, "r"))
        assert tele_schema.main([path]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ts": 1}\n', encoding="utf-8")
        assert tele_schema.main([str(bad)]) == 1


# -- trace export ----------------------------------------------------------

def _rec(ts, pid, event, **fields):
    return dict({"ts": ts, "run_id": "r", "pid": pid, "event": event},
                **fields)


class TestTraceExport:
    def test_spans_from_exec_pairs(self):
        records = [
            _rec(0.0, 1, "grid_started", total_cells=2),
            _rec(0.0, 1, "cell_started", key="a", label="w/v", attempt=1),
            _rec(0.1, 2, "cell_exec_started", key="a", attempt=1),
            _rec(0.5, 2, "cell_exec_finished", key="a", attempt=1,
                 seconds=0.4, ok=True),
            _rec(0.6, 2, "cell_exec_started", key="b", attempt=2),
            _rec(0.9, 2, "cell_exec_finished", key="b", attempt=2,
                 seconds=0.3, ok=True),
            _rec(1.0, 1, "cell_cached", key="c", label="w2/v"),
            _rec(1.1, 1, "grid_finished", status="complete"),
        ]
        trace = trace_export.trace_from_events(records)
        assert tele_schema.validate_trace(trace) == []
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        cats = sorted(s["cat"] for s in spans)
        assert cats == ["cache", "retry", "run"]
        run = next(s for s in spans if s["cat"] == "run")
        assert run["name"] == "w/v"          # label joined from supervisor
        assert run["dur"] == pytest.approx(400_000, abs=2)

    def test_truncated_span_for_killed_worker(self):
        records = [
            _rec(0.0, 1, "grid_started", total_cells=1),
            _rec(0.1, 2, "cell_exec_started", key="a", attempt=1),
            _rec(0.8, 1, "grid_finished", status="failed"),
        ]
        trace = trace_export.trace_from_events(records)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["cat"] == "failed"
        assert spans[0]["args"]["truncated"] is True

    def test_fallback_to_supervisor_pairs(self):
        records = [
            _rec(0.0, 1, "grid_started", total_cells=1),
            _rec(0.1, 1, "cell_started", key="a", label="w/v", attempt=1),
            _rec(0.4, 1, "cell_done", key="a", label="w/v", source="run",
                 seconds=0.3),
            _rec(0.5, 1, "grid_finished", status="complete"),
        ]
        trace = trace_export.trace_from_events(records)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1 and spans[0]["cat"] == "run"

    def test_empty_log_raises(self):
        with pytest.raises(ValueError):
            trace_export.trace_from_events([])

    def test_trace_from_manifest(self, tmp_path):
        from repro.experiments.manifest import RunManifest
        m = RunManifest.open("rid", tmp_path)
        m.register("k1", "w/v")
        m.mark("k1", "done", attempts=1, seconds=1.5, source="run")
        m.register("k2", "w2/v", status="done", source="cache")
        m.finalize("complete")
        trace = trace_export.trace_from_manifest(m)
        assert tele_schema.validate_trace(trace) == []
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert sorted(s["cat"] for s in spans) == ["cache", "run"]
        assert trace["otherData"]["source"] == "manifest"

    def test_export_trace_prefers_event_log(self, tmp_path):
        from repro.experiments.manifest import RunManifest
        m = RunManifest.open("rid", tmp_path / "runs")
        m.register("k", "w/v")
        m.mark("k", "done", attempts=1, seconds=0.1, source="run")
        m.finalize("complete")
        # No event log -> manifest replay.
        t = trace_export.export_trace("rid", telemetry_dir=tmp_path,
                                      manifest_dir=tmp_path / "runs")
        assert t["otherData"]["source"] == "manifest"
        log = tele_events.EventLog(tmp_path, "rid")
        log.emit("grid_started", total_cells=1)
        log.emit("grid_finished", status="complete")
        log.close()
        t = trace_export.export_trace("rid", telemetry_dir=tmp_path,
                                      manifest_dir=tmp_path / "runs")
        assert t["otherData"]["source"] == "event-log"

    def test_write_trace_atomic(self, tmp_path):
        out = trace_export.write_trace({"traceEvents": []},
                                       tmp_path / "t.json")
        assert json.loads(out.read_text()) == {"traceEvents": []}
        assert not list(tmp_path.glob("*.tmp.*"))


# -- engine integration ----------------------------------------------------

class TestRunGridTelemetry:
    @pytest.fixture
    def cache(self, tmp_path):
        return rc.ResultsCache(tmp_path / "results")

    def micro_grid(self):
        cfg = scaled_config(64)
        return [Job("pr.urand", "baseline", cfg, **MICRO),
                Job("pr.urand", "sdc_lp", cfg, **MICRO),
                Job("pr.urand", "baseline", cfg, **MICRO)]   # dedup

    def test_events_and_timelines(self, tmp_path, cache):
        tdir = tmp_path / "tele"
        tcfg = tele.TelemetryConfig(directory=tdir, window=500)
        results = run_grid(self.micro_grid(), cache=cache,
                           telemetry=tcfg)
        assert all(r.timeline is not None for r in results)
        run_id = tele_events.latest_run_id(tdir)
        path = tele_events.events_path(tdir, run_id)
        assert tele_schema.validate_events_file(path) == []
        names = [r["event"] for r in tele_events.read_events(path)]
        for expected in ("grid_started", "cell_queued", "cell_started",
                         "cell_exec_started", "cell_exec_finished",
                         "cell_done", "cell_dedup", "grid_finished"):
            assert expected in names, expected
        # Serial-path shards are merged into the main log.
        assert not list(tdir.glob("*.w*.jsonl"))
        # Cached rerun: cell_cached events, timelines still attached.
        results2 = run_grid(self.micro_grid(), cache=cache,
                            telemetry=tcfg)
        assert cache.hits >= 2
        assert results2[1].timeline is not None
        run_id2 = tele_events.latest_run_id(tdir)
        assert run_id2 != run_id
        names2 = [r["event"] for r in tele_events.read_events(
            tele_events.events_path(tdir, run_id2))]
        assert "cell_cached" in names2
        assert "cell_exec_started" not in names2

    @pytest.mark.skipif(not kernel_available(),
                        reason="no C compiler for the batch kernel")
    def test_exec_events_name_the_engine(self, tmp_path, cache,
                                         monkeypatch):
        tdir = tmp_path / "tele"
        tcfg = tele.TelemetryConfig(directory=tdir, window=500)
        grid = self.micro_grid()[:2]

        def engines(**kw):
            run_grid(grid, cache=cache, telemetry=tcfg, use_cache=False,
                     **kw)
            records = tele_events.read_events(tele_events.events_path(
                tdir, tele_events.latest_run_id(tdir)))
            assert tele_schema.validate_events(records) == []
            return [(r["engine"], r.get("fallback")) for r in records
                    if r["event"] == "cell_exec_finished"]

        assert engines(backend="ref") == [("ref", None)] * 2
        assert engines(backend="batch") == [("batch", None)] * 2
        # Armed invariant checks keep cells off the kernel: recorded.
        monkeypatch.setenv("REPRO_VALIDATE", "1000")
        assert engines(backend="batch") == \
            [("ref", "invariant checking armed")] * 2

    def test_parallel_workers_emit_shards(self, tmp_path, cache):
        tdir = tmp_path / "tele"
        tcfg = tele.TelemetryConfig(directory=tdir, window=500)
        results = run_grid(self.micro_grid(), jobs=2, cache=cache,
                           telemetry=tcfg)
        assert all(r.timeline is not None for r in results)
        run_id = tele_events.latest_run_id(tdir)
        records = tele_events.read_events(
            tele_events.events_path(tdir, run_id))
        assert tele_schema.validate_events(records) == []
        execs = [r for r in records if r["event"] == "cell_exec_finished"]
        assert len(execs) == 2 and all(r["ok"] for r in execs)
        # Worker events came from other pids than the supervisor's.
        sup = next(r["pid"] for r in records
                   if r["event"] == "grid_started")
        assert any(r["pid"] != sup for r in execs)
        trace = trace_export.trace_from_events(records)
        assert tele_schema.validate_trace(trace) == []

    def test_telemetry_key_separate_from_plain(self, cache):
        grid = self.micro_grid()[:1]
        plain = run_grid(grid, cache=cache)
        assert plain[0].timeline is None
        stores_before = cache.stores
        with_tl = run_grid(grid, cache=cache,
                           telemetry=tele.TelemetryConfig(
                               directory=None, window=500))
        assert with_tl[0].timeline is not None
        assert cache.stores == stores_before + 1   # distinct key
        # And the plain entry still round-trips timeline-free.
        again = run_grid(grid, cache=cache)
        assert again[0].timeline is None

    def test_ambient_config_fallback(self, tmp_path, cache):
        tdir = tmp_path / "tele"
        tele.activate(tele.TelemetryConfig(directory=tdir, window=500))
        try:
            results = run_grid(self.micro_grid()[:1], cache=cache)
        finally:
            tele.deactivate()
        assert results[0].timeline is not None
        assert tele_events.latest_run_id(tdir) is not None

    def test_no_telemetry_writes_nothing(self, tmp_path, cache):
        results = run_grid(self.micro_grid()[:1], cache=cache)
        assert results[0].timeline is None
        assert tele.active() is None

    def test_fault_retry_spans_in_trace(self, tmp_path, cache):
        from repro import faults
        from repro.experiments.parallel import RunPolicy
        tdir = tmp_path / "tele"
        tcfg = tele.TelemetryConfig(directory=tdir, window=500)
        faults.activate(faults.FaultPlan.parse("seed=3,exc:1.0"))
        try:
            results = run_grid(self.micro_grid(), cache=cache,
                               telemetry=tcfg,
                               policy=RunPolicy(retries=2,
                                                backoff=0.001))
        finally:
            faults.activate(None)
        assert all(r is not None for r in results)
        records = tele_events.read_events(tele_events.events_path(
            tdir, tele_events.latest_run_id(tdir)))
        assert any(r["event"] == "cell_retried" for r in records)
        fails = [r for r in records
                 if r["event"] == "cell_exec_finished"
                 and not r["ok"]]
        assert fails and all("error" in r for r in fails)
        trace = trace_export.trace_from_events(records)
        cats = {e["cat"] for e in trace["traceEvents"]
                if e["ph"] == "X"}
        # Every first attempt faults (rate 1.0), every retry succeeds:
        # each cell contributes one failed span and one retry span.
        assert "retry" in cats and "failed" in cats

    def test_worker_crash_exports_as_supervisor_instant(self, tmp_path,
                                                        cache):
        from repro import faults
        from repro.core.batch import resolve_backend
        from repro.experiments.parallel import RunPolicy, _job_spec
        tdir = tmp_path / "tele"
        tcfg = tele.TelemetryConfig(directory=tdir, window=500)
        grid = self.micro_grid()[:2]
        keys = [_job_spec(job, 500, backend=resolve_backend(None))[1]
                for job in grid]
        plan_of = lambda s: faults.FaultPlan.parse(f"seed={s},crash:0.5")
        seed = next(s for s in range(500) if [
            k for k in keys if plan_of(s).fires("crash", k)] == keys[:1])
        faults.activate(plan_of(seed))
        try:
            results = run_grid(grid, jobs=2, cache=cache, telemetry=tcfg,
                               policy=RunPolicy(retries=1,
                                                backoff=0.001))
        finally:
            faults.activate(None)
        assert all(r is not None for r in results)
        records = tele_events.read_events(tele_events.events_path(
            tdir, tele_events.latest_run_id(tdir)))
        assert tele_schema.validate_events(records) == []
        lost = [r for r in records if r["event"] == "worker_lost"]
        assert [r["reason"] for r in lost] == ["died"]
        trace = trace_export.trace_from_events(records)
        assert tele_schema.validate_trace(trace) == []
        supervisor = next(r["pid"] for r in records
                          if r["event"] == "grid_started")
        [instant] = [e for e in trace["traceEvents"]
                     if e["ph"] == "i" and e["name"] == "worker_lost"]
        assert instant["pid"] == supervisor
        assert instant["tid"] == trace_export.SUPERVISOR_TID
        assert instant["args"] == {"worker": lost[0]["worker"],
                                   "reason": "died"}
        # The killed attempt is a truncated failed span, its retry a
        # retry span; the sibling ran once.
        cats = sorted(e["cat"] for e in trace["traceEvents"]
                      if e["ph"] == "X" and e["args"]["key"] == keys[0])
        assert cats == ["failed", "retry"]

    def test_quarantine_event_on_corrupt_entry(self, tmp_path, cache):
        tdir = tmp_path / "tele"
        tcfg = tele.TelemetryConfig(directory=tdir, window=500)
        grid = self.micro_grid()[:1]
        run_grid(grid, cache=cache, telemetry=tcfg)
        # Scribble over the stored entry, then re-run.
        entry = next(p for p in cache.root.glob("*/*.json"))
        entry.write_text("{corrupt", encoding="utf-8")
        run_grid(grid, cache=cache, telemetry=tcfg)
        records = tele_events.read_events(tele_events.events_path(
            tdir, tele_events.latest_run_id(tdir)))
        assert any(r["event"] == "cell_quarantined" for r in records)


class TestStaleEnvelopes:
    def test_corrupt_entry_still_quarantined(self, tmp_path):
        cache = rc.ResultsCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, {"x": 1})
        Path(cache._file(key)).write_text("not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.corrupt == 1 and cache.stale == 0
        assert cache.quarantined == 1


class TestProgressPrinter:
    def test_rate_and_eta_from_fake_clock(self):
        import io
        out = io.StringIO()
        t = [100.0]
        printer = ProgressPrinter(out=out, clock=lambda: t[0])
        t[0] = 110.0
        printer(Progress(2, 6, "w/v", 5.0, "run"))
        t[0] = 120.0
        printer(Progress(6, 6, "w2/v", 0.0, "cache"))
        lines = out.getvalue().splitlines()
        assert lines[0] == \
            "  [2/6] w/v  5.0s  (0.20 cells/s, ETA 0:20)"
        assert lines[1] == \
            "  [6/6] w2/v  0.0s  [cache]  (0.30 cells/s, ETA 0:00)"

    def test_zero_elapsed_gives_unknown_eta(self):
        import io
        out = io.StringIO()
        printer = ProgressPrinter(out=out, clock=lambda: 1.0)
        printer(Progress(1, 3, "w/v", 0.0, "run"))
        assert "ETA --:--" in out.getvalue()
