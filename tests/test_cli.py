"""Tests for the command-line interface (repro.cli)."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_experiments(self):
        code, text = run_cli("list")
        assert code == 0
        for k in range(1, 17):
            assert f"E{k} " in text or f"E{k} " in text or f"E{k}  " in text


class TestRun:
    def test_run_single(self):
        code, text = run_cli("run", "E1")
        assert code == 0
        assert "HOLDS" in text

    def test_run_multiple(self):
        code, text = run_cli("run", "E1", "E3")
        assert code == 0
        assert text.count("HOLDS") == 2

    def test_run_json(self):
        code, text = run_cli("run", "E1", "--json")
        assert code == 0
        data = json.loads(text)
        assert data["E1"]["holds"] is True

    def test_unknown_experiment_is_clean_exit_2(self, capsys):
        code, text = run_cli("run", "E42")
        assert code == 2
        assert text == ""  # nothing on the report stream
        err = capsys.readouterr().err
        assert "unknown experiment 'E42'" in err
        assert "known: E1" in err

    def test_unknown_experiment_mixed_with_known(self, capsys):
        code, _ = run_cli("run", "E1", "nope")
        assert code == 2
        assert "unknown experiment 'nope'" in capsys.readouterr().err

    def test_run_resilience_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "all", "--timeout", "30", "--retries", "2",
             "--isolate", "--resume", "/tmp/r"]
        )
        assert args.timeout == 30.0 and args.retries == 2
        assert args.isolate is True and args.resume == "/tmp/r"


class TestSimulate:
    def test_parallel_raster(self):
        code, text = run_cli(
            "simulate", "--space", "ring", "--n", "12", "--steps", "5",
            "--init", "alternating",
        )
        assert code == 0
        lines = text.splitlines()
        assert "CA[Ring(n=12" in lines[0]
        # Alternating under parallel majority flips every step.
        assert ".#.#.#.#.#.#" in text and "#.#.#.#.#.#." in text

    def test_explicit_init_string(self):
        code, text = run_cli(
            "simulate", "--n", "8", "--steps", "2", "--init", "11110000"
        )
        assert code == 0
        assert "####...." in text

    def test_init_length_mismatch(self):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--n", "8", "--init", "101")

    def test_wolfram_rule(self):
        code, text = run_cli(
            "simulate", "--n", "16", "--rule", "wolfram", "--wolfram", "90",
            "--steps", "4", "--init", "one",
        )
        assert code == 0
        assert "Wolfram" in text

    def test_wolfram_requires_number(self):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--rule", "wolfram")

    def test_threshold_requires_value(self):
        with pytest.raises(SystemExit):
            run_cli("simulate", "--rule", "threshold")

    def test_sequential_schedule(self):
        code, text = run_cli(
            "simulate", "--n", "10", "--schedule", "random-sweeps",
            "--steps", "30", "--seed", "5",
        )
        assert code == 0
        assert "RandomPermutationSweeps" in text

    def test_hypercube_space(self):
        code, text = run_cli(
            "simulate", "--space", "hypercube", "--dimension", "3",
            "--steps", "3",
        )
        assert code == 0
        assert "Hypercube" in text


class TestPhaseSpace:
    def test_parallel_summary(self):
        code, text = run_cli("phase-space", "--n", "8")
        assert code == 0
        assert "proper_cycles: 1" in text

    def test_sequential_summary(self):
        code, text = run_cli("phase-space", "--n", "6", "--mode", "sequential")
        assert code == 0
        assert "has_proper_cycle: False" in text

    def test_dot_export(self, tmp_path):
        dot_file = tmp_path / "ps.dot"
        code, text = run_cli(
            "phase-space", "--n", "4", "--rule", "xor", "--dot", str(dot_file)
        )
        assert code == 0
        content = dot_file.read_text()
        assert content.startswith("digraph")

    def test_too_large_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("phase-space", "--n", "24")


class TestInputValidation:
    """Out-of-domain numeric flags die with one-line usage errors, not
    deep numpy/space-construction tracebacks."""

    @pytest.mark.parametrize("argv, fragment", [
        (["simulate", "--n", "0"], "--n must be >= 1"),
        (["simulate", "--n", "-3"], "--n must be >= 1"),
        (["simulate", "--radius", "0"], "--radius must be >= 1"),
        (["simulate", "--steps", "-1"], "--steps must be >= 0"),
        (["simulate", "--space", "hypercube", "--dimension", "0"],
         "--dimension must be >= 1"),
        (["simulate", "--space", "grid", "--rows", "0"], "--rows must be >= 1"),
        (["simulate", "--rule", "wolfram", "--wolfram", "256"],
         "--wolfram must be an elementary rule number in 0..255"),
        (["simulate", "--rule", "wolfram", "--wolfram", "-1"],
         "--wolfram must be an elementary rule number in 0..255"),
        (["run", "E1", "--timeout", "0"], "--timeout must be positive"),
        (["run", "E1", "--retries", "-1"], "--retries must be >= 0"),
        (["phase-space", "--n", "0"], "--n must be >= 1"),
    ])
    def test_bad_values_rejected(self, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert fragment in str(excinfo.value)

    def test_boundary_values_accepted(self):
        code, _ = run_cli("simulate", "--n", "3", "--steps", "0")
        assert code == 0
        code, _ = run_cli(
            "simulate", "--n", "8", "--rule", "wolfram", "--wolfram", "0",
            "--steps", "1",
        )
        assert code == 0


class TestParser:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--n", "9"])
        assert args.command == "simulate" and args.n == 9

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_obs_flags_on_every_subcommand(self):
        parser = build_parser()
        for argv in (
            ["list", "--trace"],
            ["run", "E1", "--trace"],
            ["phase-space", "--n", "10", "--trace", "--artifacts-dir", "/tmp/r"],
            ["stats", "--artifacts-dir", "/tmp/r"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "trace") and hasattr(args, "artifacts_dir")
        args = parser.parse_args(["phase-space", "--trace-memory", "--trace"])
        assert args.trace_memory is True


class TestCensusCommand:
    def test_table_and_recurrence(self):
        code, text = run_cli("census", "--min-n", "3", "--max-n", "8")
        assert code == 0
        assert "fixed-point recurrence" in text
        assert " 46 " in text  # n=8 fixed points

    def test_rejects_bad_range(self):
        with pytest.raises(SystemExit):
            run_cli("census", "--min-n", "10", "--max-n", "4")


class TestSurveyCommand:
    def test_summary(self):
        code, text = run_cli("survey", "--max-ring", "6")
        assert code == 0
        assert "monotone: 20" in text
        assert "theorem1_violations: []" in text

    def test_full_table(self):
        code, text = run_cli("survey", "--max-ring", "6", "--full-table")
        assert code == 0
        assert text.count("\n") > 256


class TestReportCommand:
    def test_report_to_stdout(self):
        code, text = run_cli("report")
        assert code == 0
        assert "Measured reproduction report" in text
        assert "22 / 22 experiments hold" in text
        assert "**FAILS**" not in text

    def test_report_to_file(self, tmp_path):
        target = tmp_path / "report.md"
        code, text = run_cli("report", "--output", str(target))
        assert code == 0
        assert "wrote" in text
        content = target.read_text()
        assert content.count("## E") == 22


class TestBackendErrorPaths:
    """An explicit --backend that cannot run dies with a one-line error
    (no traceback), and subcommands without backend selection reject the
    flag at the argparse layer with the conventional usage exit code."""

    def test_unsupported_backend_is_one_line_systemexit(self, monkeypatch):
        # bitplane runs every CLI automaton on a little-endian host, so
        # stand in for a host or rule it cannot run
        from repro.perf import BitplaneBackend

        monkeypatch.setattr(
            BitplaneBackend, "supports",
            classmethod(lambda cls, ca: "no bitwise lowering on this host"),
        )
        with pytest.raises(SystemExit) as excinfo:
            run_cli("phase-space", "--n", "5", "--backend", "bitplane")
        message = str(excinfo.value)
        assert "bitplane backend cannot run" in message
        assert "no bitwise lowering on this host" in message
        assert "\n" not in message  # one line, not a traceback dump

    def test_bad_workers_rejected_before_any_work(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(
                "phase-space", "--n", "6", "--backend", "process",
                "--workers", "0",
            )
        assert str(excinfo.value) == "--workers must be >= 1, got 0"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("census", "--backend", "process", "--workers", "-2")
        assert str(excinfo.value) == "--workers must be >= 1, got -2"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "8", "--backend", "bitplane"],
        ["run", "E1", "--backend", "numpy"],
        ["list", "--backend", "numpy"],
    ])
    def test_backend_flag_rejected_by_non_sweep_subcommands(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "unrecognized arguments: --backend" in err

    def test_unknown_backend_name_listed_in_error(self, monkeypatch):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("phase-space", "--n", "6", "--backend", "cuda")
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            run_cli("fuzz", "--cases", "1", "--backends", "numpy,cuda")
        assert "unknown sweep backend 'cuda'" in str(excinfo.value)
        # the environment default is a usage error too, not a traceback
        monkeypatch.setenv("REPRO_BACKEND", "cuda")
        for argv in (["census", "--min-n", "4", "--max-n", "6"],
                     ["phase-space", "--n", "4"]):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(*argv)
            message = str(excinfo.value)
            assert message.startswith("REPRO_BACKEND: unknown sweep backend")
            assert "'cuda'" in message and "\n" not in message
