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
        (["simulate", "--space", "grid", "--cols", "0"],
         "--cols must be >= 1, got 0"),
        (["fuzz", "--cases", "0"], "--cases must be >= 1, got 0"),
        (["mc", "--samples", "0"], "--samples must be >= 1, got 0"),
        (["mc", "--horizon", "0"], "--horizon must be >= 1, got 0"),
        (["mc", "--density", "1"],
         "--density must be strictly between 0 and 1, got 1"),
        (["mc", "--flips", "-1"], "--flips must be >= 0, got -1"),
        (["fuzz", "--max-findings", "0"], "--max-findings must be >= 1, got 0"),
        (["runs", "gc", "--keep", "0"], "--keep must be >= 1, got 0"),
        (["list", "--progress-interval", "0"],
         "--progress-interval must be positive, got 0"),
        (["tail", "nowhere", "--timeout", "-1.5"],
         "--timeout must be positive, got -1.5"),
        (["phase-space", "--budget-wall", "0"],
         "--budget-wall must be positive, got 0"),
        (["phase-space", "--budget-states", "0"],
         "--budget-states must be >= 1, got 0"),
        (["runs", "compare", "a", "b", "--tolerance", "0.5"],
         "--tolerance must be > 1.0, got 0.5"),
        (["phase-space", "--budget-wall", "nan"],
         "--budget-wall must be positive, got nan"),
        # automata the space cannot hold
        (["phase-space", "--n", "2"], "ring of 2 nodes cannot support radius 1"),
        (["phase-space", "--n", "4", "--radius", "2"],
         "ring of 4 nodes cannot support radius 2"),
        (["phase-space", "--n", "5", "--rule", "wolfram", "--wolfram", "110",
          "--memoryless"], "has arity 3 but space Ring(n=5, radius=1)"),
        (["simulate", "--n", "2"], "ring of 2 nodes cannot support radius 1"),
    ])
    def test_bad_values_rejected(self, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(*argv)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--space", "grid", "--cols", "1"],
        ["fuzz", "--cases", "1"],
        ["mc", "--samples", "1"],
        ["mc", "--horizon", "1"],
        ["mc", "--density", "0.999"],
        ["mc", "--flips", "0"],
        ["fuzz", "--max-findings", "1"],
        ["runs", "gc", "--keep", "1"],
        ["list", "--progress-interval", "0.5"],
        ["tail", "nowhere", "--timeout", "0.5"],
        ["phase-space", "--budget-wall", "0.5"],
        ["phase-space", "--budget-states", "1"],
        ["runs", "compare", "a", "b", "--tolerance", "1.01"],
    ])
    def test_edge_value_accepted(self, argv, monkeypatch):
        import repro.cli as cli_mod

        # validation only: the command itself never runs
        monkeypatch.setattr(cli_mod, "_dispatch", lambda args, out: 0)
        assert run_cli(*argv) == (0, "")

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

    @pytest.mark.parametrize("argv", [
        [], ["list"], ["run"], ["simulate"], ["phase-space"], ["census"],
        ["mc"], ["survey"], ["report"], ["stats"], ["runs"], ["doctor"],
        ["tail"], ["fuzz"], ["runs", "index"], ["runs", "list"],
        ["runs", "show"], ["runs", "gc"], ["runs", "compare"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        # argparse expands help strings only when it prints them
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestCensusCommand:
    def test_table_and_recurrence(self):
        code, text = run_cli("census", "--min-n", "3", "--max-n", "8")
        assert code == 0
        assert "fixed-point recurrence" in text
        assert " 46 " in text  # n=8 fixed points

    def test_rejects_bad_range(self):
        with pytest.raises(SystemExit):
            run_cli("census", "--min-n", "10", "--max-n", "4")

    @pytest.mark.parametrize("argv", [
        ["--min-n", "3", "--max-n", "5"],
        ["--mode", "full", "--n", "5"],
    ])
    def test_full_mode_rejects_resume(self, argv, tmp_path):
        # only the attractor census saves a frontier
        resume = tmp_path / "ck"
        with pytest.raises(SystemExit) as excinfo:
            run_cli("census", *argv, "--resume", str(resume))
        assert str(excinfo.value) == (
            "census --resume needs attractor mode (--n N, not --mode full)"
        )
        assert not resume.exists()


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

    def test_workers_reach_every_automaton(self, monkeypatch):
        from repro.analysis import elementary

        seen = set()
        real = elementary.CellularAutomaton

        def recording(space, rule, memory=True, backend=None, workers=None):
            seen.add((backend, workers))
            return real(space, rule, memory=memory)  # serial: keep it fast

        monkeypatch.setattr(elementary, "CellularAutomaton", recording)
        elementary.survey_rule.cache_clear()
        try:
            code, _ = run_cli("survey", "--max-ring", "5",
                              "--backend", "process", "--workers", "1")
        finally:
            elementary.survey_rule.cache_clear()
        assert code == 0
        assert seen == {("process", 1)}


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
