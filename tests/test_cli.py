"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "3-pass" in out and "1-pass" in out

    @pytest.mark.parametrize("cascade,expected", [
        ("3pass", "3-pass"),
        ("1pass", "1-pass"),
        ("sigmoid", "1-pass"),
    ])
    def test_passes(self, capsys, cascade, expected):
        assert main(["passes", cascade]) == 0
        assert expected in capsys.readouterr().out

    def test_passes_unknown_cascade(self, capsys):
        assert main(["passes", "nope"]) == 2
        assert "unknown cascade" in capsys.readouterr().err

    def test_simulate(self, capsys):
        assert main(["simulate", "--chunks", "4"]) == 0
        out = capsys.readouterr().out
        assert "interleaved" in out and "tile-serial" in out

    def test_fig1b(self, capsys):
        assert main(["fig1b"]) == 0
        assert "Attn" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "FlashAttention" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == f"repro {__version__}\n"

    def test_closed_stdout_exits_quietly(self, monkeypatch, capsys, tmp_path):
        """A reader that closes the pipe early (``repro ... | head``)
        ends the run with status 1 and no traceback, and stdout's file
        descriptor is pointed at devnull for the final flush."""
        target = open(tmp_path / "stdout", "w")

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

            def fileno(self):
                return target.fileno()

        with target:
            monkeypatch.setattr("sys.stdout", ClosedPipe())
            assert main(["simulate", "--sweep", "--chunks-list", "16",
                         "--arrays", "64", "--format", "json",
                         "--no-cache"]) == 1
            assert capsys.readouterr().err == ""
            target.write("after")
        assert (tmp_path / "stdout").read_text() == ""


class TestSimulateModeErrors:
    """Flag-to-mode routing stays in the CLI (the typed requests make
    these combinations unrepresentable); cross-field rules now surface
    from ``Request.validate()`` through the same stderr path."""

    def test_sweep_and_scenario_exclusive(self, capsys):
        assert main(["simulate", "--sweep", "--scenario"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_scenario_flags_require_scenario(self, capsys):
        assert main(["simulate", "--model", "BERT"]) == 2
        assert "--model requires --scenario" in capsys.readouterr().err

    def test_sweep_flags_require_sweep(self, capsys):
        assert main(["simulate", "--chunks-list", "16"]) == 2
        assert "--chunks-list requires --sweep" in capsys.readouterr().err

    def test_one_shot_rejects_runtime_flags(self, capsys):
        assert main(["simulate", "--jobs", "4"]) == 2
        assert "--jobs requires --sweep or --scenario" in capsys.readouterr().err

    def test_sweep_rejects_one_shot_shape_flags(self, capsys):
        assert main(["simulate", "--sweep", "--chunks", "4"]) == 2
        assert "use --chunks-list" in capsys.readouterr().err

    def test_validation_errors_reach_stderr(self, capsys):
        assert main([
            "simulate", "--scenario", "--model", "BERT", "--instances", "4",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_scenario_unknown_model(self, capsys):
        assert main(["simulate", "--scenario", "--model", "GPT"]) == 2
        assert "unknown model" in capsys.readouterr().err


class TestSweepGrid:
    def test_grid_smoke(self, capsys, tmp_path):
        assert main([
            "sweep", "--grid", "--models", "BERT", "--batches", "1,2",
            "--heads-list", "2", "--chunks", "4", "--array-dim", "64",
            "--jobs", "2", "--registry", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "2 grid cells (scenario_grid)" in out
        assert "est_util_2d" in out
        assert "recorded run" in out

    def test_grid_flags_require_grid(self, capsys):
        assert main(["sweep", "--batches", "1,2"]) == 2
        assert "--batches requires --grid" in capsys.readouterr().err

    def test_grid_rejects_eval_sweep_flags(self, capsys):
        assert main(["sweep", "--grid", "--kind", "attention"]) == 2
        assert "--kind does not apply to --grid" in capsys.readouterr().err

    def test_grid_unknown_model(self, capsys):
        assert main(["sweep", "--grid", "--models", "GPT"]) == 2
        assert "unknown model" in capsys.readouterr().err


class TestCycleOracleRefusesRuntimeFlags:
    """The cycle oracle runs serial and uncached on every path, so each
    one refuses the runtime flags with the same message instead of
    silently ignoring them."""

    REFUSAL = "applies to runtime-backed runs only; the cycle oracle path is serial and uncached"

    def test_one_shot(self, capsys):
        assert main(["simulate", "--chunks", "4", "--array-dim", "64",
                     "--engine", "cycle", "--retries", "2",
                     "--task-timeout", "5", "--on-error", "skip"]) == 2
        assert capsys.readouterr().err == (
            f"--retries, --task-timeout, --on-error {self.REFUSAL}\n"
        )

    def test_scenario(self, capsys):
        assert main(["simulate", "--scenario", "--instances", "2", "--chunks",
                     "4", "--array-dim", "64", "--engine", "cycle",
                     "--jobs", "2"]) == 2
        assert capsys.readouterr().err == f"--jobs {self.REFUSAL}\n"

    def test_cluster(self, capsys, tmp_path):
        registry = tmp_path / "runs"
        assert main(["cluster", "--instances", "2", "--chunks", "4",
                     "--array-dim", "64", "--chips", "1,2", "--engine",
                     "cycle", "--jobs", "2", "--registry", str(registry),
                     "--no-cache"]) == 2
        assert capsys.readouterr().err == f"--registry, --jobs {self.REFUSAL}\n"
        assert not registry.exists()

    def test_cycle_without_runtime_flags_still_runs(self, capsys):
        assert main(["cluster", "--instances", "2", "--chunks", "4",
                     "--array-dim", "64", "--chips", "1,2", "--engine",
                     "cycle", "--no-cache"]) == 0
        cycle = capsys.readouterr().out
        assert main(["cluster", "--instances", "2", "--chunks", "4",
                     "--array-dim", "64", "--chips", "1,2", "--no-cache"]) == 0
        assert capsys.readouterr().out == cycle
