"""Tests for the CLI entry point (cheap commands only)."""

import pytest

from repro.cli import QUICK_WORKLOADS, main
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.workloads import WORKLOADS


class TestCheapCommands:
    def test_config(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "L1D" in out and "SDC" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Pull-Only" in capsys.readouterr().out

    def test_table4(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "SDCDir" in out
        assert "LP fits in one CPU cycle: True" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 54  # 36 GAP + 18 post-paper family cells
        assert "rw.kron" in lines and "gs.urand" in lines \
            and "dyn.web" in lines

    def test_workloads_json_families(self, capsys):
        import json
        assert main(["workloads", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 54
        fams = {r["family"] for r in rows}
        assert fams == {"gap", "rw", "gs", "dyn"}
        assert sum(r["family"] == "gap" for r in rows) == 36

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestQuickSubset:
    def test_quick_workloads_valid(self):
        names = {w.name for w in WORKLOADS}
        for wl in QUICK_WORKLOADS:
            assert wl in names

    def test_quick_covers_all_kernels(self):
        kernels = {wl.split(".")[0] for wl in QUICK_WORKLOADS}
        assert kernels == {"bc", "bfs", "cc", "pr", "tc", "sssp"}


class TestFigureCommand:
    @pytest.mark.parametrize("name", list(FIGURES))
    def test_figure_micro(self, name, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        params = {"mixes": 1} if name == "fig14" else {}
        extra = ["--mixes", "1"] if params else []
        assert main([name, "--quick", "--tier", "tiny",
                     "--length", "3000"] + extra) == 0
        # The command prints its entry's report of the same run: the
        # quick subset, unless the study has a fixed subject.
        fig = FIGURES[name]
        wls = None if fig.workloads else QUICK_WORKLOADS
        res = run_figure(name, wls, tier="tiny", length=3000, **params)
        assert capsys.readouterr().out == fig.render(res) + "\n"

    @pytest.mark.parametrize("argv", [
        ["fig3", "--shard", "0/2", "--resume", "r"],
        ["preprocessing", "--jobs", "2"],
        ["context", "--no-cache"],
        ["run", "pr.urand", "--telemetry", "d"],
    ], ids=["fig3", "preprocessing", "context", "run"])
    def test_non_grid_commands_refuse_grid_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_rejects_unknown_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "pr.urand", "--variant", "nope"])
        assert exc.value.code == 2

    def test_run_command(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "pr.urand", "--variant", "sdc_lp",
                     "--tier", "tiny", "--length", "4000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "LP:" in out
        assert "served by:" in out

    def test_run_baseline_variant(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "cc.urand", "--variant", "baseline",
                     "--tier", "tiny", "--length", "4000"]) == 0
        out = capsys.readouterr().out
        assert "LP:" not in out
