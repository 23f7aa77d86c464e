"""Tests for the run-manifest checkpoint layer (manifest.py)."""

from __future__ import annotations

import json
import os

import pytest

from repro import faults
from repro.experiments import manifest as mod
from repro.experiments import results_cache as rc
from repro.experiments.figures import QUICK_WORKLOADS, plan_figure
from repro.experiments.manifest import (MANIFEST_VERSION, MAX_MANIFESTS,
                                        RunManifest, new_run_id)
from repro.experiments.parallel import run_grid
from repro.experiments.sharding import ShardMergeError, merge_shards


@pytest.fixture
def runs(tmp_path):
    return tmp_path / "runs"


def test_run_ids_are_unique():
    assert new_run_id() != new_run_id()


def test_round_trip(runs):
    m = RunManifest.open("rt", runs)
    m.register("k1", "pr.urand/baseline")
    m.register("k2", "pr.urand/sdc_lp", status="done", source="cache")
    m.save()
    loaded = RunManifest.load("rt", runs)
    assert loaded.data["status"] == "running"
    assert loaded.cells["k1"]["status"] == "pending"
    assert loaded.cells["k2"] == m.cells["k2"]
    assert loaded.data["total_cells"] == 2


def test_load_rejects_unknown_version(runs):
    m = RunManifest.open("vx", runs)
    m.save()
    data = json.loads(m.path.read_text())
    data["version"] = MANIFEST_VERSION + 1
    m.path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="unsupported version"):
        RunManifest.load("vx", runs)


def test_save_is_atomic_no_tmp_left_behind(runs):
    m = RunManifest.open("at", runs)
    m.register("k", "lbl")
    for status in ("running", "done"):
        m.mark("k", status)
    m.close()
    assert not list(runs.glob("*.tmp.*"))
    assert RunManifest.load("at", runs).cells["k"]["status"] == "done"


def test_mark_updates_and_persists(runs):
    m = RunManifest.open("mk", runs)
    m.register("k", "lbl")
    m.mark("k", "retrying", attempts=1, error="boom", seconds=0.51234)
    cell = RunManifest.load("mk", runs).cells["k"]
    assert cell["status"] == "retrying"
    assert cell["attempts"] == 1
    assert cell["error"] == "boom"
    assert cell["seconds"] == 0.512
    m.mark("k", "done", attempts=2, source="run")
    m.close()
    cell = RunManifest.load("mk", runs).cells["k"]
    assert cell["error"] is None          # success clears the last error
    assert cell["source"] == "run"


def test_open_resumes_existing_run(runs):
    m = RunManifest.open("rs", runs)
    m.register("k1", "a", status="done", source="run")
    m.register("k2", "b")
    m.mark("k2", "failed", attempts=3, error="boom")
    m.finalize("failed")

    again = RunManifest.open("rs", runs)
    assert again.data["resumes"] == 1
    assert again.data["status"] == "running"
    assert again.settled_keys() == {"k1"}
    # Re-registering the unfinished cell resets transient state but
    # keeps the cumulative attempt counter.
    again.register("k2", "b")
    assert again.cells["k2"]["status"] == "pending"
    assert again.cells["k2"]["attempts"] == 3
    assert again.cells["k2"]["error"] is None


def test_open_with_explicit_id_but_no_file_starts_fresh(runs):
    m = RunManifest.open("fresh-id", runs)
    assert m.run_id == "fresh-id"
    assert m.data["resumes"] == 0
    assert m.cells == {}


def test_finalize_demotes_inflight_cells(runs):
    m = RunManifest.open("fin", runs)
    m.register("k1", "a", status="done", source="run")
    m.register("k2", "b")
    m.mark("k2", "running")
    m.register("k3", "c")
    m.mark("k3", "retrying")
    m.finalize("interrupted")
    loaded = RunManifest.load("fin", runs)
    assert loaded.data["status"] == "interrupted"
    assert loaded.counts() == {"done": 1, "pending": 2}


def test_counts_failed_cells_and_summary(runs):
    m = RunManifest.open("sm", runs)
    m.register("k1", "a", status="done", source="cache")
    m.register("k2", "b")
    m.mark("k2", "failed", error="exploded")
    m.close()
    m.register("k3", "c")
    assert m.counts() == {"done": 1, "failed": 1, "pending": 1}
    assert m.failed_cells() == {"b": "exploded"}
    s = m.summary()
    assert "1/3 unique cells done" in s
    assert "1 failed" in s and "1 pending" in s


def test_prune_caps_manifest_count(runs, monkeypatch):
    monkeypatch.setattr(mod, "MAX_MANIFESTS", 5)
    for i in range(8):
        m = RunManifest.open(directory=runs)
        m.path = runs / f"run-{i:03d}.json"   # deterministic names
        m.finalize("complete")                # finalized => prunable
        os.utime(m.path, (1000 + i, 1000 + i))
        if i == 0:      # left by a crash before finalize removed it
            (runs / "run-000.json.log").write_text("")
    # Runs 5 and 7 each find the cap (5) reached and prune the oldest
    # down to three quarters of it (3) before adding themselves.
    survivors = sorted(p.name for p in runs.iterdir())
    assert survivors == [f"run-{i:03d}.json" for i in range(4, 8)]


def test_prune_spares_live_and_resumable_manifests(runs, monkeypatch):
    monkeypatch.setattr(mod, "MAX_MANIFESTS", 2)
    statuses = ("running", "interrupted", "complete", "failed",
                "complete")
    for i, status in enumerate(statuses):
        m = RunManifest.open(directory=runs)
        m.path = runs / f"run-{i:03d}.json"
        if status == "running":
            m.save()
        else:
            m.finalize(status)
        os.utime(m.path, (1000 + i, 1000 + i))
    RunManifest._prune(runs)
    survivors = sorted(p.name for p in runs.glob("*.json"))
    # Only cleanly finalized runs are reclaimed; a concurrent
    # supervisor's live sweep and resume state survive any cap.
    assert survivors == ["run-000.json", "run-001.json"]


def test_latest_and_prune_tolerate_vanished_files(runs):
    m = RunManifest.open("keep", runs)
    m.save()
    # A broken symlink stats like a file a sibling pruned between the
    # glob and the stat — the exact TOCTOU race, minus the timing.
    (runs / "ghost.json").symlink_to(runs / "nope.json")
    assert RunManifest.latest(runs).run_id == "keep"
    RunManifest._prune(runs)        # must not raise
    assert (runs / "keep.json").exists()


def test_latest_skips_shard_manifests(runs):
    m = RunManifest.open("base", runs)
    m.save()
    s = RunManifest.open("sharded", runs, shard=(0, 2))
    s.save()
    os.utime(m.path, (1000, 1000))
    os.utime(s.path, (2000, 2000))  # shard manifest is newer...
    assert RunManifest.latest(runs).run_id == "base"


def test_open_with_shard_names_per_shard_manifest(runs):
    m = RunManifest.open("sh", runs, shard=(1, 4))
    m.save()
    assert m.path.name == "sh.shard-1-of-4.json"
    assert m.data["shard"] == {"index": 1, "count": 4}
    again = RunManifest.open("sh", runs, shard=(1, 4))
    assert again.data["resumes"] == 1


def test_summary_reports_sibling_shard_cells(runs):
    m = RunManifest.open("sib", runs, shard=(0, 2))
    m.register("k1", "a", status="done", source="run", shard=0)
    m.register("k2", "b", status="elsewhere", shard=1)
    s = m.summary()
    assert "1/1 unique cells done" in s
    assert "1 owned by sibling shards" in s
    assert m.cells["k2"]["shard"] == 1


# -- the transition log ------------------------------------------------------

def _fds_open_on(path):
    """This process's descriptors open on ``path``, deleted or not."""
    out = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith(str(path)):
                out.append(fd)
        except OSError:
            pass                # the listdir's own descriptor, now closed
    return out


def test_mark_appends_to_the_log_not_the_snapshot(runs):
    m = RunManifest.open("lg", runs)
    m.register("k", "lbl")
    m.save()
    snapshot = m.path.read_bytes()
    m.mark("k", "running", attempts=1)
    m.mark("k", "done", attempts=1, seconds=0.25, source="run")
    m.close()
    assert m.path.read_bytes() == snapshot
    lines = (runs / "lg.json.log").read_text().splitlines()
    assert [json.loads(line)["seq"] for line in lines] == [1, 2]
    assert RunManifest.load("lg", runs).cells["k"] == m.cells["k"]


def test_latest_counts_a_log_append_as_a_modification(runs):
    a = RunManifest.open("a", runs)
    a.register("k", "lbl")
    a.save()
    b = RunManifest.open("b", runs)
    b.save()
    a.mark("k", "running", attempts=1)
    a.close()
    os.utime(a.path, (1000, 1000))
    os.utime(b.path, (2000, 2000))
    os.utime(runs / "a.json.log", (3000, 3000))
    assert RunManifest.latest(runs).run_id == "a"


def test_replay_drops_a_torn_last_line(runs):
    m = RunManifest.open("torn", runs)
    m.register("k1", "a")
    m.register("k2", "b")
    m.save()
    m.mark("k1", "done", attempts=1, source="run")
    m.mark("k2", "running", attempts=1)
    m.close()
    log = runs / "torn.json.log"
    log.write_text(log.read_text()[:-10])   # the writer died mid-append
    loaded = RunManifest.load("torn", runs)
    assert loaded.cells["k1"]["status"] == "done"
    assert loaded.cells["k2"]["status"] == "pending"
    assert loaded.data["seq"] == 1


def test_crash_between_snapshot_and_log_removal_changes_nothing(runs):
    m = RunManifest.open("crash", runs)
    for key in ("k1", "k2", "k3"):
        m.register(key, key.upper())
    m.save()
    m.mark("k1", "running", attempts=1)
    m.mark("k1", "done", attempts=1, seconds=0.5, source="run")
    m.mark("k2", "running", attempts=1)
    m.mark("k3", "running", attempts=1)
    m.mark("k3", "retrying", attempts=1, error="boom")
    log = runs / "crash.json.log"
    stale = log.read_bytes()
    m.finalize("interrupted")
    want = RunManifest.load("crash", runs).data
    # The crash: finalize's snapshot was renamed into place, but the
    # log it supersedes was never removed.
    log.write_bytes(stale)
    got = RunManifest.load("crash", runs).data
    assert got == want
    # finalize demoted the in-flight cells; replay must not undo it.
    assert {k: c["status"] for k, c in got["cells"].items()} == \
        {"k1": "done", "k2": "pending", "k3": "pending"}


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_finalize_leaves_no_log_and_no_open_handle(runs):
    m = RunManifest.open("cyc", runs)
    for i in range(4):
        m.register(f"k{i}", f"w{i}/v")
    m.save()
    log = runs / "cyc.json.log"
    for i in range(4):
        m.mark(f"k{i}", "running", attempts=1)
        m.mark(f"k{i}", "done", attempts=1, seconds=0.1, source="run")
    assert log.exists() and _fds_open_on(log)
    m.finalize("complete")
    assert not log.exists()
    assert not _fds_open_on(log)
    assert RunManifest.load("cyc", runs).counts() == {"done": 4}


def test_indented_snapshot_resumes(runs, tmp_path, monkeypatch):
    """Snapshots are compact JSON; one written with ``indent=1``, as
    earlier versions wrote them, still loads and resumes."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    grid, _ = plan_figure("fig7", QUICK_WORKLOADS[:1], tier="tiny",
                          length=2000)
    ran = []

    def bomb(p):
        ran.append(p.label)
        if len(ran) == 3:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_grid(grid, run_id="indented", manifest_dir=runs, progress=bomb)
    path = runs / "indented.json"
    path.write_text(json.dumps(json.loads(path.read_text()), indent=1))
    sources = []
    results = run_grid(grid, run_id="indented", manifest_dir=runs,
                       progress=lambda p: sources.append(p.source))
    assert None not in results
    assert sorted(sources) == ["cache"] * 3 + ["run"] * (len(grid) - 3)
    m = RunManifest.load("indented", runs)
    assert m.data["resumes"] == 1
    assert m.counts() == {"done": len(grid)}


def test_grid_writes_a_constant_number_of_snapshots(runs, monkeypatch):
    saves = []
    real_save = RunManifest.save

    def counting_save(self):
        saves.append(self.run_id)
        real_save(self)

    monkeypatch.setattr(RunManifest, "save", counting_save)
    grid, _ = plan_figure("fig7", QUICK_WORKLOADS, tier="tiny",
                          length=2000)
    assert len({job.label for job in grid}) == 36
    results = run_grid(grid, use_cache=False, run_id="snaps",
                       manifest_dir=runs)
    assert None not in results
    m = RunManifest.load("snaps", runs)
    assert m.counts() == {"done": 36}
    assert not (runs / "snaps.json.log").exists()
    # One snapshot at registration, one at finalize: every one of the
    # 72 running/done transitions went to the log.
    assert len(saves) <= 3


def _filled_cache(tmp_path, runs):
    """A small Fig. 7 grid and a fresh view of a results cache that
    holds every cell of it."""
    root = tmp_path / "results"
    grid, _ = plan_figure("fig7", QUICK_WORKLOADS[:1], tier="tiny",
                          length=2000)
    run_grid(grid, cache=rc.ResultsCache(root), manifest_dir=runs)
    return grid, rc.ResultsCache(root)


def test_all_hit_grid_writes_one_snapshot(runs, tmp_path, monkeypatch):
    """A grid whose every cell is a cache hit has no cell to checkpoint
    before it runs: its one snapshot is the final one."""
    grid, cache = _filled_cache(tmp_path, runs)
    saves = []
    real_save = RunManifest.save

    def counting_save(self):
        saves.append(self.data["status"])
        real_save(self)

    monkeypatch.setattr(RunManifest, "save", counting_save)
    results = run_grid(grid, cache=cache, run_id="warm", manifest_dir=runs)
    assert None not in results
    assert cache.hits == len(grid) and cache.misses == 0
    assert saves == ["complete"]
    m = RunManifest.load("warm", runs)
    assert set(m.counts()) == {"done"}
    assert not (runs / "warm.json.log").exists()


def test_all_hit_shard_keeps_its_checkpoint(runs, tmp_path):
    """A shard keeps its checkpoint even when every cell it owns is a
    cache hit: a lost shard leaves its manifest ``running``, and the
    merge refuses it."""
    grid, cache = _filled_cache(tmp_path, runs)
    faults.activate(faults.FaultPlan.parse("seed=7,shard_loss:1.0"))
    try:
        for i in (0, 1):
            with pytest.raises(faults.FaultInjected, match="shard loss"):
                run_grid(grid, cache=cache, run_id="lost",
                         manifest_dir=runs, shard=(i, 2))
            m = RunManifest.load("lost", runs, shard=(i, 2))
            assert m.data["status"] == "running"
    finally:
        faults.deactivate()
    assert cache.misses == 0
    with pytest.raises(ShardMergeError) as ei:
        merge_shards("lost", runs, cache=cache)
    assert sum("lost or incomplete" in p
               for p in ei.value.problems) == 2
