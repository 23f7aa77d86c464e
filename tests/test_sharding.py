"""Tests for shard-aware sweeps (sharding.py) and the concurrent-
supervisor hardening that multi-host execution depends on.

The contract under test: N ``run_grid`` supervisors that agree only on
a run id and a shard count — nothing else, no coordination — execute
disjoint slices of one grid into a shared cache, and ``merge_shards``
stitches a result set bit-identical to the single-host run, refusing
loudly when a shard is lost, duplicated, or corrupt.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import faults
from repro.core.batch import resolve_backend
from repro.experiments import results_cache as rc
from repro.experiments import sharding
from repro.experiments.manifest import RunManifest
from repro.experiments.parallel import (Job, RunPolicy, ShardComplete,
                                        _job_spec, run_grid)
from repro.experiments.runner import default_config
from repro.experiments.sharding import (ShardMergeError,
                                        list_shard_manifests,
                                        merge_shards, parse_shard,
                                        shard_of, shard_site,
                                        shard_suffix, validate_shard)

MICRO = dict(tier="tiny", length=6_000)
WLS = ("pr.urand", "cc.urand")
VARIANTS = ("baseline", "sdc_lp")
FAST = RunPolicy(backoff=0.01, backoff_max=0.05)


@pytest.fixture(autouse=True)
def _no_leaked_state():
    yield
    faults.deactivate()
    sharding.activate_shard(None)


@pytest.fixture
def grid():
    cfg = default_config()
    # Cache keys fold in the code fingerprint, so which shard owns a
    # given cell reshuffles whenever the source tree changes.  The
    # ownership assertions below need the 2-way split to land work on
    # both shards; walk the trace length deterministically until it
    # does instead of betting on the hash.  The keys must be the ones
    # run_grid computes, which fold in the ambient backend.
    backend = resolve_backend(None)
    length = MICRO["length"]
    while True:
        jobs = [Job(wl, v, cfg, tier=MICRO["tier"], length=length)
                for wl in WLS for v in VARIANTS]
        if {shard_of(_job_spec(j, backend=backend)[1], 2)
                for j in jobs} == {0, 1}:
            return jobs
        length += 2


def run_shard(grid, index, count, run_id, cache, runs, **kw):
    """Run one shard to completion, returning its ShardComplete."""
    with pytest.raises(ShardComplete) as ei:
        run_grid(grid, cache=cache, run_id=run_id, manifest_dir=runs,
                 policy=FAST, shard=(index, count), **kw)
    return ei.value


def payloads_of(results):
    return [r.to_payload() for r in results]


class TestPartition:
    def test_pure_and_in_range(self):
        keys = [f"key-{i:04d}" for i in range(500)]
        for count in (1, 2, 3, 7):
            owners = [shard_of(k, count) for k in keys]
            assert owners == [shard_of(k, count) for k in keys]
            assert all(0 <= o < count for o in owners)
            # Every shard gets work on any realistically sized grid.
            assert set(owners) == set(range(count))

    def test_independent_of_enumeration_order(self):
        keys = [f"key-{i}" for i in range(64)]
        fwd = {k: shard_of(k, 4) for k in keys}
        rev = {k: shard_of(k, 4) for k in reversed(keys)}
        assert fwd == rev

    def test_parse_shard(self):
        assert parse_shard("0/2") == (0, 2)
        assert parse_shard(" 3/8 ") == (3, 8)
        for bad in ("", "2", "2/", "/2", "a/b", "-1/2", "1/2/3"):
            with pytest.raises(ValueError):
                parse_shard(bad)
        with pytest.raises(ValueError, match="out of range"):
            parse_shard("2/2")
        with pytest.raises(ValueError, match="count"):
            validate_shard((0, 0))

    def test_suffix_and_site_are_stable(self):
        assert shard_suffix((1, 4)) == "shard-1-of-4"
        assert shard_site("rid", (1, 4)) == "shard:rid:1/4"


class TestShardedRunGrid:
    def test_requires_cache(self, grid, tmp_path):
        with pytest.raises(ValueError, match="results cache"):
            run_grid(grid, use_cache=False, run_id="x",
                     manifest_dir=tmp_path / "runs", shard=(0, 2))

    def test_merge_is_bit_identical_to_single_host(self, grid, tmp_path):
        solo_cache = rc.ResultsCache(tmp_path / "solo")
        solo = run_grid(grid, cache=solo_cache, policy=FAST,
                        manifest_dir=tmp_path / "solo-runs")

        cache = rc.ResultsCache(tmp_path / "results")
        runs = tmp_path / "runs"
        for i in (0, 1):
            sc = run_shard(grid, i, 2, "rid", cache, runs)
            assert sc.run_id == "rid" and sc.shard == (i, 2)
            # The grid-aligned result list has real results for owned
            # cells and None placeholders for the sibling's.
            owned = [r for r in sc.results if r is not None]
            assert 0 < len(owned) < len(grid)

        report = merge_shards("rid", runs, cache=cache)
        assert report.count == 2
        assert report.cells == len(grid)    # no dedup in this grid
        merged = RunManifest.load("rid", runs)
        assert merged.data["status"] == "complete"
        assert merged.data["shard_count"] == 2
        assert sorted(merged.data["merged_from"]) == [
            "rid.shard-0-of-2.json", "rid.shard-1-of-2.json"]
        assert all(c["status"] == "done" for c in merged.cells.values())

        # A warm rerun against the stitched cache is simulation-free
        # and bit-identical to the single-host run.
        warm = rc.ResultsCache(tmp_path / "results")
        rerun = run_grid(grid, cache=warm, policy=FAST,
                         manifest_dir=tmp_path / "rerun-runs")
        assert warm.misses == 0 and warm.hits == len(grid)
        assert payloads_of(rerun) == payloads_of(solo)

    def test_per_shard_manifest_records_ownership(self, grid, tmp_path):
        cache = rc.ResultsCache(tmp_path / "results")
        runs = tmp_path / "runs"
        run_shard(grid, 0, 2, "own", cache, runs)
        m = RunManifest.load("own", runs, shard=(0, 2))
        assert m.data["shard"] == {"index": 0, "count": 2}
        statuses = {c["status"] for c in m.cells.values()}
        assert statuses == {"done", "elsewhere"}
        for key, cell in m.cells.items():
            assert cell["shard"] == shard_of(key, 2)
            assert (cell["status"] == "done") == (cell["shard"] == 0)
        assert list_shard_manifests("own", runs) == [
            (runs / "own.shard-0-of-2.json", 0, 2)]

    def test_single_shard_of_one_covers_whole_grid(self, grid, tmp_path):
        cache = rc.ResultsCache(tmp_path / "results")
        runs = tmp_path / "runs"
        sc = run_shard(grid, 0, 1, "one", cache, runs)
        assert all(r is not None for r in sc.results)
        report = merge_shards("one", runs, cache=cache)
        assert report.count == 1


class TestMergeValidation:
    def seed_shards(self, grid, tmp_path, run_id="v"):
        cache = rc.ResultsCache(tmp_path / "results")
        runs = tmp_path / "runs"
        for i in (0, 1):
            run_shard(grid, i, 2, run_id, cache, runs)
        return cache, runs

    def test_no_manifests_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            merge_shards("nope", tmp_path / "runs")

    def test_missing_shard_refused(self, grid, tmp_path):
        cache, runs = self.seed_shards(grid, tmp_path)
        (runs / "v.shard-1-of-2.json").unlink()
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("v", runs, cache=cache)
        assert any("shard 1: manifest missing" in p
                   for p in ei.value.problems)

    def test_incomplete_shard_refused(self, grid, tmp_path):
        cache, runs = self.seed_shards(grid, tmp_path)
        p = runs / "v.shard-0-of-2.json"
        data = json.loads(p.read_text())
        data["status"] = "running"
        p.write_text(json.dumps(data))
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("v", runs, cache=cache)
        assert any("status 'running'" in p for p in ei.value.problems)
        # The error names the exact repair command.
        assert any("--shard 0/2 --resume v" in p
                   for p in ei.value.problems)

    def test_disagreeing_shard_counts_refused(self, grid, tmp_path):
        cache, runs = self.seed_shards(grid, tmp_path)
        sc = run_shard(grid, 2, 3, "v", cache, runs)
        assert sc.shard == (2, 3)
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("v", runs, cache=cache)
        assert any("shard counts disagree" in p
                   for p in ei.value.problems)

    def test_missing_cache_entry_refused(self, grid, tmp_path):
        cache, runs = self.seed_shards(grid, tmp_path)
        cache.clear()
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("v", runs,
                         cache=rc.ResultsCache(tmp_path / "results"))
        assert any("missing or corrupt" in p for p in ei.value.problems)

    def test_corrupt_cache_entry_refused(self, grid, tmp_path):
        cache, runs = self.seed_shards(grid, tmp_path)
        m = RunManifest.load("v", runs, shard=(0, 2))
        key = next(k for k, c in m.cells.items()
                   if c["status"] == "done")
        path = Path(cache._file(key))
        path.write_bytes(path.read_bytes()[:40])  # torn write
        fresh = rc.ResultsCache(tmp_path / "results")
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("v", runs, cache=fresh)
        assert any("missing or corrupt" in p for p in ei.value.problems)
        assert fresh.quarantined == 1

    def test_grid_disagreement_refused(self, grid, tmp_path):
        cache = rc.ResultsCache(tmp_path / "results")
        runs = tmp_path / "runs"
        run_shard(grid, 0, 2, "v", cache, runs)
        run_shard(grid[:2], 1, 2, "v", cache, runs)  # different grid
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("v", runs, cache=cache)
        assert any("disagree on the grid" in p
                   for p in ei.value.problems)


class TestShardFaults:
    def test_shard_loss_then_resume_then_merge(self, grid, tmp_path):
        cache = rc.ResultsCache(tmp_path / "results")
        runs = tmp_path / "runs"
        faults.activate(faults.FaultPlan.parse("seed=7,shard_loss:1.0"))
        # First run of each shard is lost right after its checkpoint.
        for i in (0, 1):
            with pytest.raises(faults.FaultInjected, match="shard loss"):
                run_grid(grid, cache=cache, run_id="lossy",
                         manifest_dir=runs, policy=FAST, shard=(i, 2))
            m = RunManifest.load("lossy", runs, shard=(i, 2))
            assert m.data["status"] == "running"   # checkpoint survives
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("lossy", runs, cache=cache)
        assert sum("lost or incomplete" in p
                   for p in ei.value.problems) == 2
        # The --resume re-run is attempt 2 and survives (max_attempt=1).
        for i in (0, 1):
            run_shard(grid, i, 2, "lossy", cache, runs)
        report = merge_shards("lossy", runs, cache=cache)
        assert report.cells == len(grid)

    def test_duplicate_shard_overlap_refused(self, grid, tmp_path):
        cache = rc.ResultsCache(tmp_path / "results")
        runs = tmp_path / "runs"
        faults.activate(
            faults.FaultPlan.parse("seed=7,duplicate_shard:1.0"))
        # Both supervisors also claim their sibling: total overlap.
        for i in (0, 1):
            sc = run_shard(grid, i, 2, "dup", cache, runs)
            assert all(r is not None for r in sc.results)
        with pytest.raises(ShardMergeError) as ei:
            merge_shards("dup", runs, cache=cache)
        assert any("owned by shard" in p for p in ei.value.problems)
        # Repair: re-run both shards with faults cleared; the fresh
        # manifests replace the overlapping ones and the merge goes
        # through.
        faults.deactivate()
        for i in (0, 1):
            run_shard(grid, i, 2, "dup", cache, runs)
        assert merge_shards("dup", runs, cache=cache).count == 2

    def test_ambient_shard_activation(self, grid, tmp_path):
        cache = rc.ResultsCache(tmp_path / "results")
        sharding.activate_shard((0, 2))
        assert sharding.active_shard() == (0, 2)
        with pytest.raises(ShardComplete):
            run_grid(grid, cache=cache, run_id="amb",
                     manifest_dir=tmp_path / "runs", policy=FAST)
        sharding.activate_shard(None)
        assert sharding.active_shard() is None


_SUPERVISOR = """\
import sys
from repro.experiments.parallel import Job, RunPolicy, ShardComplete, \\
    run_grid
from repro.experiments.runner import default_config

cfg = default_config()
grid = [Job(wl, v, cfg, tier="tiny", length=int(sys.argv[2]))
        for wl in ("pr.urand", "cc.urand")
        for v in ("baseline", "sdc_lp")]
try:
    run_grid(grid, run_id="stress", shard=(int(sys.argv[1]), 2),
             policy=RunPolicy(backoff=0.01, backoff_max=0.05))
except ShardComplete:
    sys.exit(0)
sys.exit(3)
"""


class TestConcurrentSupervisors:
    def test_two_supervisors_share_one_cache_root(self, grid, tmp_path):
        """Two real processes, distinct shards, one REPRO_CACHE_DIR —
        no exceptions, no cross-quarantine, merged output identical to
        the in-process serial run."""
        cache_dir = tmp_path / "shared-cache"
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=str(Path("src").resolve()))
        env.pop("REPRO_FAULTS", None)
        procs = [subprocess.Popen(
                    [sys.executable, "-c", _SUPERVISOR, str(i),
                     str(grid[0].length)],
                    env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True)
                 for i in (0, 1)]
        for i, proc in enumerate(procs):
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, \
                f"shard {i} supervisor failed:\n{out}\n{err}"

        cache = rc.ResultsCache(cache_dir / "results")
        report = merge_shards("stress", cache_dir / "runs", cache=cache)
        assert report.count == 2
        assert not list(cache.quarantine_dir.glob("*"))

        solo_cache = rc.ResultsCache(tmp_path / "solo")
        solo = run_grid(grid, cache=solo_cache, policy=FAST,
                        manifest_dir=tmp_path / "solo-runs")
        stitched = run_grid(grid, cache=cache, policy=FAST,
                            manifest_dir=tmp_path / "rerun-runs")
        assert cache.misses == 0
        assert payloads_of(stitched) == payloads_of(solo)


class TestCacheConcurrencyRegressions:
    def key(self, i: int) -> str:
        return f"{i:02x}" * 32

    def test_two_owners_survive_sibling_clear(self, tmp_path):
        root = tmp_path / "results"
        a = rc.ResultsCache(root)
        b = rc.ResultsCache(root)
        for i in range(8):
            a.put(self.key(i), {"i": i})
        assert b.get(self.key(3)) == {"i": 3}
        assert a.clear() == 8
        # Every view b takes after a's rmtree must degrade gracefully,
        # never raise FileNotFoundError.
        assert len(b) == 0
        assert b.get(self.key(3)) is None
        assert b.clear() == 0
        assert b.sweep_stale_tmp(max_age=0.0) == 0
        b.put(self.key(1), {"i": 1})        # root is recreated on write
        assert b.get(self.key(1)) == {"i": 1}

    def test_concurrent_clear_put_len_hammer(self, tmp_path):
        root = tmp_path / "results"
        caches = [rc.ResultsCache(root) for _ in range(2)]
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def hammer(c: rc.ResultsCache, base: int) -> None:
            try:
                barrier.wait()
                for round_ in range(30):
                    for i in range(4):
                        c.put(self.key(base + i), {"r": round_})
                    len(c)
                    c.sweep_stale_tmp(max_age=0.0)
                    c.clear()
            except BaseException as exc:       # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(c, 8 * n))
                   for n, c in enumerate(caches)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []

    def test_len_tolerates_vanishing_subdir(self, tmp_path):
        root = tmp_path / "results"
        c = rc.ResultsCache(root)
        c.put(self.key(1), {"x": 1})
        # A dangling symlink where a shard subdir used to be: globbing
        # through it must not blow up the counters.
        (root / "zz").symlink_to(root / "gone")
        assert len(c) == 1
        assert c.sweep_stale_tmp() == 0
