"""CLI (`python -m repro`) tests."""

import json

import pytest

from repro.__main__ import SMALL_GRID, SUBCOMMANDS, main
from repro.report.experiments import EXPERIMENTS


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out
        lines = out.splitlines()
        for name, (_, help_line) in SUBCOMMANDS.items():
            assert f"{name:<14} {help_line}" in lines

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_subcommand_help(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"python -m repro {name}" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_small_grid_covers_all_experiments(self):
        assert set(SMALL_GRID) == set(EXPERIMENTS)

    def test_run_table1_small(self, capsys):
        assert main(["table1", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "1M" in out

    def test_run_fig4_small(self, capsys):
        assert main(["fig4", "--small"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "BUSY" in out

    def test_no_args_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestTraceCLI:
    def test_trace_sim(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main([
            "trace", "--backend", "sim", "--size", "4096", "--procs", "8",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        stdout = capsys.readouterr().out
        assert "sim/radix" in stdout and "trace events" in stdout

    def test_trace_native(self, tmp_path, capsys):
        out = tmp_path / "native.json"
        assert main([
            "trace", "--backend", "native", "--algorithm", "sample",
            "--size", "20000", "--procs", "2", "--trace-out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert {"native.sort", "native.phase", "native.task"} <= cats
        assert "native/sample" in capsys.readouterr().out

    def test_experiment_trace_out(self, tmp_path, capsys):
        out = tmp_path / "fig4.json"
        assert main(["fig4", "--small", "--trace-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(
            e.get("cat") == "sim.phase" for e in doc["traceEvents"]
        )
        assert "trace events" in capsys.readouterr().err

    def test_rejects_native_backend_for_grid(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig4", "--small", "--backend", "native"])


class TestCacheCLI:
    def test_stats_empty(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "entries" in out

    def test_populate_then_stats_clear(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig4", "--small"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "run" in out and "entries        0" not in out
        assert main(["cache", "clear"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "entries        0" in capsys.readouterr().out

    def test_gc(self, tmp_path, capsys):
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 0
        assert "gc removed 0" in capsys.readouterr().out

    def test_bad_action_rejected(self):
        with pytest.raises(SystemExit):
            main(["cache", "frobnicate"])

    def test_no_cache_leaves_dir_empty(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fig4", "--small", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        assert "entries        0" in capsys.readouterr().out

    def test_parallel_grid(self, capsys):
        assert main(["fig4", "--small", "--parallel", "2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "BUSY" in out
