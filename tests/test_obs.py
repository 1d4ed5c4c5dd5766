"""Tests for the observability layer (repro.obs) and its CLI surface."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro import obs
from repro.cli import main
from repro.core.automaton import CellularAutomaton
from repro.core.evolution import parallel_orbit, sequential_converge
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule
from repro.core.schedules import FixedPermutation
from repro.experiments.report import render_markdown
from repro.obs import trace
from repro.spaces.line import Ring


@pytest.fixture(autouse=True)
def clean_obs():
    """Each test starts and ends with tracing off and an empty registry."""
    obs.disable()
    obs.clear_sinks()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.clear_sinks()
    obs.REGISTRY.reset()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSpans:
    def test_nesting_depths_and_timers(self):
        obs.enable()
        events = []
        obs.add_sink(events.append)
        with obs.span("outer", n=8):
            with obs.span("inner"):
                pass
        # Inner closes first; depths reflect the nesting at entry.
        assert [e["name"] for e in events] == ["inner", "outer"]
        assert events[0]["depth"] == 1 and events[1]["depth"] == 0
        timers = obs.REGISTRY.snapshot()["timers"]
        assert timers["outer"]["count"] == 1
        assert timers["inner"]["count"] == 1
        assert timers["outer"]["total_s"] >= timers["inner"]["total_s"]

    def test_attrs_and_set(self):
        obs.enable()
        events = []
        obs.add_sink(events.append)
        with obs.span("work", n=4) as sp:
            sp.set(result=7)
        assert events[0]["attrs"] == {"n": 4, "result": 7}

    def test_exception_safety(self):
        obs.enable()
        events = []
        obs.add_sink(events.append)
        with pytest.raises(ValueError):
            with obs.span("outer"):
                with obs.span("boom"):
                    raise ValueError("no")
        # Both spans closed, both recorded, error annotated.
        assert [e["name"] for e in events] == ["boom", "outer"]
        assert events[0]["error"] == "ValueError"
        assert obs.REGISTRY.snapshot()["timers"]["outer"]["count"] == 1
        # The nesting stack recovered: a fresh span sits at depth 0.
        with obs.span("after"):
            pass
        assert events[-1]["name"] == "after" and events[-1]["depth"] == 0

    def test_disabled_span_is_shared_noop(self):
        assert not obs.is_enabled()
        assert obs.span("a") is obs.span("b", n=3) is obs.NOOP_SPAN
        with obs.span("a") as sp:
            sp.set(anything=1)
        assert obs.REGISTRY.is_empty()

    def test_noop_overhead_is_branch_only(self):
        """The disabled path must stay cheap enough to leave in hot code.

        Structural guarantee (no allocation) is checked above; here we
        bound the wall cost of a large batch of disabled spans very
        generously — a regression to real clock reads or registry
        traffic would blow well past it.
        """
        count = 100_000
        t0 = time.perf_counter()
        for _ in range(count):
            with obs.span("hot"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{count} no-op spans took {elapsed:.3f}s"
        assert obs.REGISTRY.is_empty()

    def test_memory_tracing_annotates_events(self):
        obs.enable(trace_memory=True)
        events = []
        obs.add_sink(events.append)
        with obs.span("alloc"):
            _ = [0] * 50_000
        assert "mem_peak_kb" in events[0] and events[0]["mem_peak_kb"] > 0

    def test_enable_from_env(self):
        assert trace.enable_from_env({"REPRO_TRACE": "1"}) is True
        assert obs.is_enabled()
        obs.disable()
        assert trace.enable_from_env({"REPRO_TRACE": "0"}) is False
        assert trace.enable_from_env({}) is False
        assert not obs.is_enabled()


class TestMetrics:
    def test_counter_gauge_timer_accumulate(self):
        obs.inc("jobs")
        obs.inc("jobs", 3)
        obs.set_gauge("depth", 2.5)
        obs.observe("op", 0.5)
        obs.observe("op", 1.5)
        snap = obs.REGISTRY.snapshot()
        assert snap["counters"]["jobs"] == 4
        assert snap["gauges"]["depth"] == 2.5
        op = snap["timers"]["op"]
        assert op["count"] == 2
        assert op["total_s"] == pytest.approx(2.0)
        assert op["mean_s"] == pytest.approx(1.0)
        assert op["min_s"] == 0.5 and op["max_s"] == 1.5 and op["last_s"] == 1.5

    def test_reset_clears_everything(self):
        obs.inc("x")
        obs.observe("y", 1.0)
        obs.REGISTRY.reset()
        assert obs.REGISTRY.is_empty()

    def test_to_json_round_trips(self):
        obs.inc("n", 2)
        data = json.loads(obs.REGISTRY.to_json())
        assert data["counters"]["n"] == 2

    def test_timed_measures_even_when_tracing_disabled(self):
        assert not obs.is_enabled()
        with obs.timed("block") as sw:
            time.sleep(0.002)
        assert sw.elapsed >= 0.002
        assert obs.REGISTRY.snapshot()["timers"]["block"]["count"] == 1

    def test_timed_records_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.timed("failing"):
                raise RuntimeError
        assert obs.REGISTRY.snapshot()["timers"]["failing"]["count"] == 1


class TestArtifacts:
    def test_jsonl_round_trip(self, tmp_path):
        run_dir = tmp_path / "run"
        obs.enable()
        with obs.RunArtifacts(run_dir, command="test", argv=["--x"]):
            with obs.span("phase_space.build", n=4):
                pass
        manifest = obs.load_manifest(run_dir)
        assert manifest["command"] == "test"
        assert manifest["argv"] == ["--x"]
        assert manifest["exit_code"] == 0
        assert manifest["finished"] >= manifest["started"]
        assert manifest["metrics"]["timers"]["phase_space.build"]["count"] == 1
        events = list(obs.read_events(run_dir))
        assert len(events) == 1
        assert events[0]["name"] == "phase_space.build"
        assert events[0]["attrs"] == {"n": 4}

    def test_untraced_run_still_leaves_valid_artifacts(self, tmp_path):
        with obs.RunArtifacts(tmp_path / "r", command="noop"):
            pass
        assert list(obs.read_events(tmp_path / "r")) == []
        assert obs.load_manifest(tmp_path / "r")["metrics"] == {
            "counters": {},
            "gauges": {},
            "timers": {},
        }

    def test_finalize_detaches_sink_and_is_idempotent(self, tmp_path):
        obs.enable()
        run = obs.RunArtifacts(tmp_path / "r")
        run.activate()
        with obs.span("before"):
            pass
        run.finalize(exit_code=0)
        run.finalize(exit_code=0)
        with obs.span("after"):
            pass
        names = [e["name"] for e in obs.read_events(tmp_path / "r")]
        assert names == ["before"]

    def test_failed_run_records_exit_code(self, tmp_path):
        with pytest.raises(ValueError):
            with obs.RunArtifacts(tmp_path / "r"):
                raise ValueError
        assert obs.load_manifest(tmp_path / "r")["exit_code"] == 1


class TestInstrumentedPaths:
    def test_phase_space_emits_build_and_global_map_spans(self):
        obs.enable()
        events = []
        obs.add_sink(events.append)
        ca = CellularAutomaton(Ring(8), MajorityRule(), memory=True)
        PhaseSpace.from_automaton(ca)
        names = [e["name"] for e in events]
        assert names == ["phase_space.global_map", "phase_space.build"]
        build = events[1]
        assert build["attrs"]["n"] == 8 and build["attrs"]["configs"] == 256
        assert build["duration_s"] >= events[0]["duration_s"]

    def test_orbit_and_convergence_span_attrs(self):
        obs.enable()
        events = []
        obs.add_sink(events.append)
        ca = CellularAutomaton(Ring(6), MajorityRule(), memory=True)
        state = ca.unpack(0b010101)
        info = parallel_orbit(ca, state)
        res = sequential_converge(ca, state, FixedPermutation())
        orbit_ev = next(e for e in events if e["name"] == "orbit.parallel")
        assert orbit_ev["attrs"]["period"] == info.period
        assert orbit_ev["attrs"]["transient"] == info.transient
        conv_ev = next(e for e in events if e["name"] == "converge.sequential")
        assert conv_ev["attrs"]["converged"] is res.converged
        assert conv_ev["attrs"]["flips"] == res.effective_flips

    def test_hot_paths_silent_when_disabled(self):
        ca = CellularAutomaton(Ring(6), MajorityRule(), memory=True)
        PhaseSpace.from_automaton(ca)
        parallel_orbit(ca, ca.unpack(0b010101))
        assert obs.REGISTRY.is_empty()


class TestReportRuntimes:
    def test_render_markdown_includes_runtime_lines(self):
        results = {"E1": {"holds": True, "detail": 1}}
        text = render_markdown(results, runtimes={"E1": 0.0123})
        assert "Runtime: 12.3 ms" in text
        assert "Total measured runtime: 12.3 ms" in text

    def test_run_experiment_times_into_registry(self):
        from repro.experiments.registry import run_experiment

        run_experiment("E1")
        timers = obs.REGISTRY.snapshot()["timers"]
        assert timers["experiment.E1"]["count"] == 1
        assert timers["experiment.E1"]["last_s"] > 0


class TestCliStats:
    def test_trace_then_stats_in_process(self):
        code, _ = run_cli("phase-space", "--n", "6", "--trace")
        assert code == 0
        # Tracing was scoped to the command, but the metrics persist.
        assert not obs.is_enabled()
        code, text = run_cli("stats")
        assert code == 0
        assert "phase_space.build" in text
        row = next(
            line for line in text.splitlines() if "phase_space.build" in line
        )
        assert "0.000ms" not in row.split()[2]

    def test_stats_json(self):
        run_cli("phase-space", "--n", "6", "--trace")
        code, text = run_cli("stats", "--json")
        assert code == 0
        data = json.loads(text)
        assert data["timers"]["phase_space.build"]["count"] == 1

    def test_stats_empty_registry(self):
        code, text = run_cli("stats")
        assert code == 0
        assert "empty" in text

    def test_artifacts_dir_implies_trace_and_round_trips(self, tmp_path):
        run_dir = tmp_path / "run1"
        code, _ = run_cli(
            "phase-space", "--n", "6", "--artifacts-dir", str(run_dir)
        )
        assert code == 0
        assert (run_dir / "manifest.json").exists()
        names = {e["name"] for e in obs.read_events(run_dir)}
        assert {"phase_space.build", "phase_space.global_map"} <= names
        code, text = run_cli("stats", "--artifacts-dir", str(run_dir))
        assert code == 0
        assert "phase_space.build" in text and "command: phase-space" in text

    def test_untraced_command_stays_silent(self):
        code, _ = run_cli("phase-space", "--n", "6")
        assert code == 0
        assert "phase_space.build" not in obs.REGISTRY.snapshot()["timers"]

    def test_stats_missing_run_dir_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read run directory"):
            run_cli("stats", "--artifacts-dir", str(tmp_path / "nope"))

    def test_artifacts_dir_collision_is_clean_error(self, tmp_path):
        blocker = tmp_path / "afile"
        blocker.write_text("x")
        with pytest.raises(SystemExit, match="cannot create artifacts"):
            run_cli("list", "--artifacts-dir", str(blocker))


class TestTimerQuantiles:
    def test_quantiles_appear_in_snapshot(self):
        for ms in range(1, 101):
            obs.observe("work", ms / 1000.0)
        stats = obs.REGISTRY.snapshot()["timers"]["work"]
        assert stats["count"] == 100
        # 1..100ms uniformly: the reservoir holds every sample, so the
        # quantiles are exact linear interpolations.
        assert stats["p50_s"] == pytest.approx(0.0505, rel=1e-6)
        assert stats["p95_s"] == pytest.approx(0.09505, rel=1e-6)
        assert stats["p99_s"] == pytest.approx(0.09901, rel=1e-6)

    def test_reservoir_is_seeded_and_deterministic(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        def fill(registry):
            timer = registry.timer("hot.loop")
            for i in range(5000):  # > RESERVOIR_SIZE: eviction kicks in
                timer.observe((i % 97) / 1000.0)
            return registry.snapshot()["timers"]["hot.loop"]

        a = fill(MetricsRegistry())
        b = fill(MetricsRegistry())
        assert a == b  # same name -> same reservoir seed -> same quantiles
        monkeypatch.setenv("REPRO_SEED", "7")
        c = fill(MetricsRegistry())
        assert c["count"] == a["count"] and c["total_s"] == a["total_s"]

    def test_merge_keeps_extremes_not_quantiles(self):
        from repro.obs.metrics import Timer

        a, b = Timer(seed=1), Timer(seed=2)
        a.observe(0.1)
        b.observe(0.3)
        a.merge(b.as_dict())
        d = a.as_dict()
        assert d["count"] == 2 and d["max_s"] == 0.3


class TestSelfTime:
    def test_nested_span_self_time_excludes_children(self):
        events = []
        obs.enable()
        obs.add_sink(events.append)
        with obs.span("parent"):
            time.sleep(0.01)
            with obs.span("child"):
                time.sleep(0.02)
        child, parent = events  # exit order
        assert child["name"] == "child"
        assert child["self_s"] == pytest.approx(child["duration_s"])
        assert parent["self_s"] == pytest.approx(
            parent["duration_s"] - child["duration_s"], abs=5e-3
        )
        assert parent["self_s"] < parent["duration_s"]


class TestPromExport:
    def test_render_counters_gauges_timers(self):
        obs.inc("qa.cases", 3)
        obs.set_gauge("space.n", 12)
        obs.observe("phase_space.build", 0.25)
        text = obs.render_prometheus(obs.REGISTRY.snapshot())
        assert "# TYPE repro_qa_cases_total counter" in text
        assert "repro_qa_cases_total 3" in text
        assert "repro_space_n 12" in text
        assert "# TYPE repro_phase_space_build_seconds summary" in text
        assert 'repro_phase_space_build_seconds{quantile="0.5"} 0.25' in text
        assert "repro_phase_space_build_seconds_sum 0.25" in text
        assert "repro_phase_space_build_seconds_count 1" in text

    def test_labels_render_and_escape(self):
        obs.inc("x")
        text = obs.render_prometheus(
            obs.REGISTRY.snapshot(), labels={"run_id": 'a"b\\c\nd'}
        )
        assert 'run_id="a\\"b\\\\c\\nd"' in text

    def test_stats_format_prom(self):
        obs.enable()
        with obs.span("phase_space.build"):
            pass
        obs.disable()
        code, text = run_cli("stats", "--format", "prom")
        assert code == 0
        assert "# TYPE repro_phase_space_build_seconds summary" in text

    def test_finalized_run_writes_textfile(self, tmp_path):
        run_dir = tmp_path / "r"
        obs.enable()
        with obs.RunArtifacts(run_dir, command="demo"):
            with obs.span("phase_space.build"):
                pass
        prom = (run_dir / "metrics.prom").read_text()
        assert 'command="demo"' in prom
        assert "repro_phase_space_build_seconds" in prom

    def test_stats_prom_from_run_dir_carries_run_labels(self, tmp_path):
        run_dir = tmp_path / "r"
        obs.enable()
        with obs.RunArtifacts(run_dir, command="demo") as run:
            run_id = run.manifest["run_id"]
            with obs.span("phase_space.build"):
                pass
        obs.disable()
        code, text = run_cli(
            "stats", "--artifacts-dir", str(run_dir), "--format", "prom"
        )
        assert code == 0
        assert f'run_id="{run_id}"' in text


class TestProfiler:
    def _events(self):
        # exit order: leaf first.  outer(0.5s total) > a(0.2) > b(0.1 in a)
        return [
            {"event": "span", "name": "b", "depth": 2, "duration_s": 0.1,
             "self_s": 0.1},
            {"event": "span", "name": "a", "depth": 1, "duration_s": 0.2,
             "self_s": 0.1},
            {"event": "span", "name": "outer", "depth": 0, "duration_s": 0.5,
             "self_s": 0.3},
        ]

    def test_build_profile_tree(self):
        roots = obs.build_profile(self._events())
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert outer.total_s == pytest.approx(0.5)
        assert outer.self_s == pytest.approx(0.3)
        a = outer.children["a"]
        assert a.children["b"].total_s == pytest.approx(0.1)

    def test_same_named_siblings_merge(self):
        events = [
            {"event": "span", "name": "chunk", "depth": 1, "duration_s": 0.1,
             "self_s": 0.1},
            {"event": "span", "name": "chunk", "depth": 1, "duration_s": 0.2,
             "self_s": 0.2},
            {"event": "span", "name": "sweep", "depth": 0, "duration_s": 0.4,
             "self_s": 0.1},
        ]
        roots = obs.build_profile(events)
        chunk = roots[0].children["chunk"]
        assert chunk.calls == 2
        assert chunk.total_s == pytest.approx(0.3)

    def test_speedscope_document_shape(self):
        doc = obs.to_speedscope(obs.build_profile(self._events()), name="t")
        assert doc["$schema"].endswith("file-format-schema.json")
        prof = doc["profiles"][0]
        assert prof["type"] == "evented" and prof["unit"] == "seconds"
        opens = [e for e in prof["events"] if e["type"] == "O"]
        closes = [e for e in prof["events"] if e["type"] == "C"]
        assert len(opens) == len(closes) == 3
        assert prof["endValue"] == pytest.approx(0.5)
        # events are properly nested: every close >= its open
        assert json.dumps(doc)  # serialisable

    def test_collapsed_lines(self):
        text = obs.to_collapsed(obs.build_profile(self._events()))
        lines = dict(
            (ln.rsplit(" ", 1)[0], int(ln.rsplit(" ", 1)[1]))
            for ln in text.strip().splitlines()
        )
        assert lines["outer"] == 300000
        assert lines["outer;a"] == 100000
        assert lines["outer;a;b"] == 100000

    def test_write_profile_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown profile format"):
            obs.write_profile(tmp_path / "x", [], fmt="pprof")

    def test_profile_from_run_round_trip(self, tmp_path):
        run_dir = tmp_path / "r"
        obs.enable()
        with obs.RunArtifacts(run_dir, command="demo"):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        roots = obs.profile_from_run(run_dir)
        assert [r.name for r in roots] == ["outer"]
        assert "inner" in roots[0].children


class TestProgressReporter:
    def _reporter(self, **kw):
        from repro.obs.progress import ProgressReporter

        clock = {"t": 0.0}
        kw.setdefault("stream", io.StringIO())
        rep = ProgressReporter(
            "t", clock=lambda: clock["t"], **kw
        )
        return rep, clock

    def test_throttled_to_interval(self):
        rep, clock = self._reporter(total=100)
        for i in range(50):
            clock["t"] += 0.001
            rep.on_charge(None, 1)
        assert rep.heartbeats == 0  # under 1s: nothing emitted
        clock["t"] += 2.0
        # One stride's worth of charges guarantees a clock check lands
        # after the jump (the stride adapted upward during the burst).
        for _ in range(rep._stride):
            rep.update(1)
        assert rep.heartbeats == 1
        rep.finish()
        assert rep.heartbeats == 2

    def test_stride_adapts_upward(self):
        rep, clock = self._reporter()
        for _ in range(10000):
            rep.on_charge(None, 1)  # clock frozen: checks come back early
        assert rep._stride > 1
        assert rep.done == 10000

    def test_zero_state_ping_still_checks_clock(self):
        rep, clock = self._reporter(total=10)
        rep._stride = 1024
        rep._since_check = 0
        clock["t"] += 5.0
        rep.on_charge(None, 0)  # a ping must not wait out the stride
        assert rep.heartbeats == 1

    def test_jsonl_sink_and_iter_progress(self, tmp_path):
        from repro.obs.progress import iter_progress

        rep, clock = self._reporter(
            total=4, path=tmp_path / "progress.jsonl"
        )
        clock["t"] += 2.0
        rep.update(4)
        rep.finish()
        events = list(iter_progress(tmp_path))
        assert events[-1]["final"] is True
        assert events[-1]["done"] == 4
        assert events[-1]["frac"] == 1.0

    def test_format_heartbeat(self):
        from repro.obs.progress import format_heartbeat

        line = format_heartbeat(
            {"label": "census", "done": 50, "total": 200, "frac": 0.25,
             "rate": 10.0, "eta_s": 15.0}
        )
        assert line == "[census] 50/200 (25.0%) 10/s ETA 15.0s"

    def test_finish_is_idempotent(self):
        rep, clock = self._reporter()
        rep.finish()
        rep.finish()
        assert rep.heartbeats == 1


class TestProgressCli:
    def test_phase_space_progress_writes_heartbeats(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, _ = run_cli(
            "phase-space", "--n", "8", "--progress",
            "--artifacts-dir", str(run_dir),
        )
        assert code == 0
        events = [
            json.loads(line)
            for line in (run_dir / "progress.jsonl").read_text().splitlines()
        ]
        assert events[-1]["final"] is True
        assert events[-1]["done"] >= 1 << 8
        assert events[-1]["total"] == 1 << 8
        assert "[phase-space n=8]" in capsys.readouterr().err

    def test_tail_replays_heartbeats(self, tmp_path):
        run_dir = tmp_path / "run"
        code, _ = run_cli(
            "phase-space", "--n", "8", "--progress",
            "--artifacts-dir", str(run_dir),
        )
        assert code == 0
        code, text = run_cli("tail", str(run_dir))
        assert code == 0
        assert "[phase-space n=8]" in text and "finished" in text

    def test_tail_without_progress_file_explains(self, tmp_path):
        run_dir = tmp_path / "run"
        code, _ = run_cli("phase-space", "--n", "6",
                          "--artifacts-dir", str(run_dir))
        assert code == 0
        code, text = run_cli("tail", str(run_dir))
        assert code == 0
        assert "no progress heartbeats" in text

    def test_run_progress_counts_experiments(self, tmp_path, capsys):
        code, _ = run_cli("run", "E1", "E2", "--progress")
        assert code == 0
        assert "[run]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, label, total", [
        (["phase-space", "--n", "6", "--mode", "sequential"],
         "phase-space n=6", 6 << 6),
        (["phase-space", "--space", "grid", "--rows", "2", "--cols", "3",
          "--bounded"], "phase-space n=6", 64),
        (["census", "--min-n", "3", "--max-n", "6"], "census n=3..6", 120),
        (["census", "--n", "10"], "census n=10", 1 << 10),
        (["mc", "--n", "100", "--samples", "100"], "mc n=100", None),
        (["fuzz", "--cases", "3"], "fuzz seed=0", 3),
        (["run", "E1", "e1", "E3"], "run", 2),
    ])
    def test_final_heartbeat_label_and_total(self, argv, label, total, tmp_path):
        if total is None:
            from repro.mc import lanes_for, round_samples

            total = round_samples(100, lanes_for(100))
        run_dir = tmp_path / "run"
        code, _ = run_cli(*argv, "--progress", "--artifacts-dir", str(run_dir))
        assert code == 0
        final = json.loads(
            (run_dir / "progress.jsonl").read_text().splitlines()[-1]
        )
        assert final["final"] is True
        assert (final["label"], final["total"]) == (label, total)


class TestAtexitFinalizer:
    def test_interrupted_status_on_atexit(self, tmp_path):
        run = obs.RunArtifacts(tmp_path / "r", command="doomed")
        run._finalize_at_exit()
        manifest = obs.load_manifest(tmp_path / "r")
        assert manifest["finalized"] is True
        assert manifest["status"] == "interrupted"
        assert manifest["exit_code"] is None

    def test_atexit_noop_after_clean_finalize(self, tmp_path):
        run = obs.RunArtifacts(tmp_path / "r", command="fine")
        run.finalize(exit_code=0)
        run._finalize_at_exit()  # must not overwrite the clean record
        manifest = obs.load_manifest(tmp_path / "r")
        assert manifest["status"] == "complete"
        assert manifest["exit_code"] == 0

    def test_read_events_is_lazy(self, tmp_path):
        gen = obs.read_events(tmp_path / "absent")
        with pytest.raises(FileNotFoundError):
            next(gen)
