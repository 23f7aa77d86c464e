"""Tests for the :mod:`repro.dse` design-space exploration subsystem:
sampler determinism, Pareto-dominance properties, the successive-halving
driver, study-ledger resume and the Table IV storage calculator."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import paper_config, storage_overhead_bits
from repro.core.batch import (fallback_counts, kernel_available,
                              reset_fallback_counts)
from repro.core.budget import hardware_budget
from repro.dse import (Choice, FrontierPoint, ParamSpace, SEARCH_VARIANTS,
                       StudyManifest, default_space, derive_study_id,
                       dominates, frontier_csv, pareto_frontier,
                       render_frontier, run_study, sample, to_config)
from repro.experiments import results_cache as rc
from repro.experiments.manifest import RunManifest
from repro.experiments.runner import default_config

QUICK = dict(seed=1, n=8, rungs=2, base_length=3000, tier="tiny",
             workloads=("pr.urand", "cc.urand"))


def _study(tmp: Path, sub: str = "a", **kw):
    """One quick study rooted under ``tmp/sub`` (own ledger + cache)."""
    merged = {**QUICK, **kw}
    return run_study(manifest_dir=tmp / sub / "runs",
                     cache=rc.ResultsCache(tmp / sub / "results"), **merged)


# --------------------------------------------------------------------------
# Parameter space


class TestSpace:
    def test_size_is_dim_product(self):
        space = default_space()
        expect = 1
        for d in space.dims:
            expect *= len(d.values)
        assert space.size() == expect

    def test_decode_covers_space(self):
        space = ParamSpace(dims=(Choice("a", (1, 2)),
                                 Choice("b", ("x", "y", "z"))))
        assert space.size() == 6
        seen = {tuple(sorted(space.decode(i).items()))
                for i in range(space.size())}
        assert len(seen) == 6
        assert space.decode(0) == {"a": 1, "b": "x"}

    def test_decode_every_default_space_index_valid(self):
        space = default_space()
        names = {d.name for d in space.dims}
        for i in range(0, space.size(), 97):
            point = space.decode(i)
            assert set(point) == names
            for d in space.dims:
                assert point[d.name] in d.values

    def test_digest_tracks_declaration(self):
        a = ParamSpace(dims=(Choice("a", (1, 2)),))
        b = ParamSpace(dims=(Choice("a", (1, 3)),))
        assert len(a.digest()) == 16
        assert a.digest() != b.digest()
        assert a.digest() == ParamSpace(dims=(Choice("a", (1, 2)),)).digest()

    def test_empty_choice_rejected(self):
        with pytest.raises(ValueError):
            Choice("a", ())

    def test_to_config_rejects_impossible_geometry(self):
        base = default_config()
        point = default_space().decode(0)
        point["sdc_size_x2"] = 1
        point["sdc_ways"] = 8
        small = {**point, "lp_entries": 16, "lp_ways": 4}
        # Some geometries are representable; the invalid ones return
        # None rather than raising mid-search.
        out = to_config(small, base)
        assert out is None or isinstance(out, tuple)


# --------------------------------------------------------------------------
# Sampler determinism


class TestSampler:
    def test_same_seed_same_sequence(self):
        space, base = default_space(), default_config()
        a = sample(space, 7, 12, base)
        b = sample(space, 7, 12, base)
        assert [c.key for c in a] == [c.key for c in b]
        assert [c.index for c in a] == [c.index for c in b]
        assert a == b

    def test_different_seeds_diverge(self):
        space, base = default_space(), default_config()
        a = sample(space, 0, 12, base)
        b = sample(space, 1, 12, base)
        assert [c.key for c in a] != [c.key for c in b]

    def test_no_duplicate_candidates(self):
        cands = sample(default_space(), 3, 24, default_config())
        keys = [c.key for c in cands]
        assert len(keys) == len(set(keys)) == 24

    def test_candidates_are_valid_configs(self):
        for c in sample(default_space(), 5, 16, default_config()):
            assert c.variant in SEARCH_VARIANTS
            assert c.storage_bits > 0
            assert c.key == f"{c.variant}:{c.config.digest()}"

    def test_cross_process_determinism(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import json, sys\n"
            "from repro.dse import default_space, sample\n"
            "from repro.experiments.runner import default_config\n"
            "cands = sample(default_space(), 7, 12, default_config())\n"
            "print(json.dumps([c.key for c in cands]))\n")
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        local = [c.key for c in sample(default_space(), 7, 12,
                                       default_config())]
        assert json.loads(out.stdout) == local


# --------------------------------------------------------------------------
# Pareto dominance (hypothesis property tests)

_points = st.lists(
    st.builds(FrontierPoint,
              key=st.text(alphabet="0123456789abcdef",
                          min_size=4, max_size=8),
              variant=st.sampled_from(SEARCH_VARIANTS),
              speedup=st.floats(min_value=-0.5, max_value=2.0,
                                allow_nan=False),
              bits=st.integers(min_value=0, max_value=1 << 20)),
    max_size=24, unique_by=lambda p: p.key)


class TestPareto:
    @given(_points)
    @settings(max_examples=60, deadline=None)
    def test_dominance_irreflexive_and_antisymmetric(self, pts):
        for p in pts:
            assert not dominates(p, p)
            for q in pts:
                assert not (dominates(p, q) and dominates(q, p))

    @given(_points)
    @settings(max_examples=60, deadline=None)
    def test_frontier_minimal_and_complete(self, pts):
        frontier = pareto_frontier(pts)
        fkeys = {p.key for p in frontier}
        # No frontier point is dominated by anything.
        for f in frontier:
            assert not any(dominates(p, f) for p in pts)
        # Every excluded point is dominated by some frontier point.
        for p in pts:
            if p.key not in fkeys:
                assert any(dominates(f, p) for f in frontier)

    @given(_points)
    @settings(max_examples=30, deadline=None)
    def test_frontier_order_deterministic(self, pts):
        a = pareto_frontier(pts)
        b = pareto_frontier(list(reversed(pts)))
        assert a == b

    def test_equal_points_both_survive(self):
        a = FrontierPoint(key="a", variant="sdc_lp", speedup=0.1, bits=10)
        b = FrontierPoint(key="b", variant="sdc_lp", speedup=0.1, bits=10)
        assert not dominates(a, b) and not dominates(b, a)
        assert len(pareto_frontier([a, b])) == 2


# --------------------------------------------------------------------------
# The successive-halving driver + resume


class TestStudy:
    def test_quick_study_and_resume_byte_identical(self, tmp_path):
        res = _study(tmp_path)
        assert res.cells_simulated > 0
        assert res.resumed_rungs == 0
        assert len(res.rung_scores) == 2
        assert res.frontier and set(res.frontier) <= set(res.points)
        # Successive halving: rung 1 scores at most half the field.
        assert len(res.rung_scores[1]) <= max(1, QUICK["n"] // 2)
        assert res.full_enumeration_cells > res.cells_evaluated

        res2 = _study(tmp_path)
        assert res2.resumed_rungs == 2
        assert res2.counters == {}          # no cells touched at all
        assert frontier_csv(res2.points) == frontier_csv(res.points)
        assert render_frontier(res2) == render_frontier(res)

    def test_interrupt_then_resume_no_redundant_sims(self, tmp_path):
        clean = _study(tmp_path, sub="clean")
        total = clean.cells_simulated

        ran = {"n": 0}

        def bomb(p):
            if p.source == "run":
                ran["n"] += 1
                if ran["n"] == 3:
                    raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            _study(tmp_path, sub="b", progress=bomb)
        resumed = _study(tmp_path, sub="b")
        # Every cell simulated exactly once across interrupt + resume:
        # the interrupted run checkpointed 3, the resume did the rest.
        assert ran["n"] + resumed.cells_simulated == total
        assert resumed.cells_cached == ran["n"]
        assert frontier_csv(resumed.points) == frontier_csv(clean.points)

    def test_study_id_is_deterministic(self, tmp_path):
        params = {"seed": 4, "space": "abc", "n": 8}
        assert derive_study_id(params) == derive_study_id(dict(params))
        assert derive_study_id(params).startswith("dse-s4-")

    def test_params_mismatch_refused(self, tmp_path):
        res = _study(tmp_path)
        with pytest.raises(ValueError, match="different parameters"):
            _study(tmp_path, n=9, study_id=res.study_id)

    def test_ledger_on_disk_and_complete(self, tmp_path):
        res = _study(tmp_path)
        path = tmp_path / "a" / "runs" / f"{res.study_id}.dse.json"
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["status"] == "complete"
        assert len(data["rungs"]) == 2
        assert all(r["complete"] for r in data["rungs"])
        assert data["frontier"]

    def test_indented_ledger_resumes(self, tmp_path):
        # Ledgers are compact JSON; one written with indent=1, as
        # earlier versions wrote them, still loads and resumes.
        res = _study(tmp_path)
        path = tmp_path / "a" / "runs" / f"{res.study_id}.dse.json"
        data = json.loads(path.read_text())
        # As if interrupted once rung 0 was recorded.
        data.update(status="running", rungs=data["rungs"][:1], frontier=[])
        path.write_text(json.dumps(data, indent=1))
        res2 = _study(tmp_path)
        assert res2.resumed_rungs == 1
        assert res2.cells_simulated == 0    # rung 1 is served by the cache
        assert res2.cells_cached > 0
        assert render_frontier(res2) == render_frontier(res)

    def test_rejects_zero_rungs(self, tmp_path):
        with pytest.raises(ValueError):
            _study(tmp_path, rungs=0)


# --------------------------------------------------------------------------
# Satellites: manifest.latest() skip, Table IV bits, workloads --json


@pytest.mark.skipif(not kernel_available(),
                    reason="no C compiler for the batch kernel on this "
                           "host")
def test_batch_study_never_falls_back(tmp_path):
    """Every cell of a 2-rung study — all three predictors under all
    four LLC policies, and the baseline — runs in the C kernel."""
    reset_fallback_counts()
    res = _study(tmp_path, n=32, base_length=1500,
                 workloads=("pr.urand",), backend="batch")
    assert fallback_counts() == {}
    assert res.cells_simulated > 0
    assert {c.variant for c in res.candidates} == set(SEARCH_VARIANTS)
    assert {c.config.llc.replacement for c in res.candidates} == \
        {"lru", "srrip", "drrip", "ship"}


def test_run_manifest_latest_skips_dse_ledgers(tmp_path):
    m = RunManifest.open("base", tmp_path)
    m.save()
    s = StudyManifest.open("dse-s0-cafecafe00", tmp_path, {"seed": 0})
    s.save()
    os.utime(m.path, (1000, 1000))
    os.utime(s.path, (2000, 2000))       # the DSE ledger is newer...
    assert RunManifest.latest(tmp_path).run_id == "base"


class TestStorageOverheadBits:
    def test_table_iv_sdc_lp_pin(self):
        cfg = paper_config()
        # Table IV: 128-entry SDC at 556 b/block + 32-entry LP at
        # 138 b/entry + SDC directory = 81,856 bits (~10 KB).
        assert storage_overhead_bits(cfg, "sdc_lp") == 81_856
        assert storage_overhead_bits(cfg, "sdc_lp") == sum(
            r.total_bits for r in hardware_budget(cfg))

    def test_variant_accounting(self):
        cfg = paper_config()
        assert storage_overhead_bits(cfg, "baseline") == 0
        assert storage_overhead_bits(cfg, "topt") == 0
        assert storage_overhead_bits(cfg, "expert") == 77_440
        assert storage_overhead_bits(cfg, "sdc_clp") == 86_528
        assert storage_overhead_bits(cfg, "sdc_lp_tagless") == 86_784
        lp_only = storage_overhead_bits(cfg, "lp_bypass")
        assert lp_only == cfg.lp.entries * 138

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            storage_overhead_bits(paper_config(), "nope")


def test_workloads_json_cli(capsys):
    assert main(["workloads", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"name", "kernel", "graph"} <= set(rows[0])
    names = [r["name"] for r in rows]
    assert "pr.kron" in names and len(names) == len(set(names))
