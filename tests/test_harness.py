"""Tests for the fault-tolerant experiment harness (repro.harness).

Covers the fault-injection layer itself, crash-safe checkpointing with
journal recovery, the resilient runner (error capture, timeouts,
retries, subprocess isolation), and the end-to-end resilience claim:
with faults injected into two experiments, ``repro run all`` still
completes the other twenty, exits 2, and ``--resume`` re-runs only the
incomplete two.
"""

from __future__ import annotations

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.harness import (
    Checkpoint,
    ExperimentRunner,
    Fault,
    FaultError,
    FaultPlan,
    RunnerConfig,
    batch_exit_code,
    check,
    clear_faults,
    inject,
    install,
    parse_faults,
    read_journal,
)
from repro.harness.runner import CHILD_SENTINEL


@pytest.fixture(autouse=True)
def clean_state():
    """Every test starts and ends with no faults armed and clean obs."""
    clear_faults()
    obs.disable()
    obs.clear_sinks()
    obs.REGISTRY.reset()
    yield
    clear_faults()
    obs.disable()
    obs.clear_sinks()
    obs.REGISTRY.reset()


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestFaultGrammar:
    def test_parse_full_spec_round_trips(self):
        plan = parse_faults("experiment.E5:raise:0.5:7:3")
        assert len(plan) == 1
        f = plan.faults[0]
        assert (f.site, f.kind, f.prob, f.seed, f.max_fires) == (
            "experiment.E5", "raise", 0.5, 7, 3,
        )
        assert plan.spec() == "experiment.E5:raise:0.5:7:3"

    def test_parse_defaults_and_multiple(self):
        plan = parse_faults("a:raise, b:hang:0.5 ,c:partial-write:1.0:9")
        assert [f.site for f in plan.faults] == ["a", "b", "c"]
        assert plan.faults[0].prob == 1.0 and plan.faults[0].seed == 0
        assert plan.faults[1].prob == 0.5
        assert plan.faults[2].seed == 9

    @pytest.mark.parametrize("bad", [
        "siteonly",                  # too few fields
        "a:explode",                 # unknown kind
        "a:raise:1.5",               # probability out of range
        "a:raise:1.0:0:0",           # max_fires < 1
        "a:raise:1.0:0:1:extra",     # too many fields
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)

    def test_wildcard_site_prefix_matches(self):
        f = Fault("experiment.*", "raise")
        assert f.matches("experiment.E1") and f.matches("experiment.E22")
        assert not f.matches("runner.attempt")
        exact = Fault("experiment.E1", "raise")
        assert exact.matches("experiment.E1")
        assert not exact.matches("experiment.E12")

    def test_probability_is_seeded_and_deterministic(self):
        a = Fault("s", "raise", 0.5, 42)
        b = Fault("s", "raise", 0.5, 42)
        seq_a = [a.should_fire() for _ in range(50)]
        seq_b = [b.should_fire() for _ in range(50)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_prob_zero_never_fires_prob_one_always(self):
        never = Fault("s", "raise", 0.0, 1)
        always = Fault("s", "raise", 1.0, 1)
        assert not any(never.should_fire() for _ in range(20))
        assert all(always.should_fire() for _ in range(20))

    def test_max_fires_disarms(self):
        f = Fault("s", "raise", 1.0, 0, max_fires=2)
        assert [f.should_fire() for _ in range(4)] == [True, True, False, False]


class TestInjection:
    def test_no_plan_is_noop(self):
        assert inject("anywhere") is None
        assert check("anywhere") is None

    def test_raise_kind_raises(self):
        install("boom:raise:1.0:0")
        with pytest.raises(FaultError, match="injected fault at 'boom'"):
            inject("boom")
        assert inject("elsewhere") is None

    def test_hang_kind_sleeps_then_raises(self, monkeypatch, fake_clock):
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "0.05")
        install("slow:hang:1.0:0")
        with pytest.raises(FaultError, match="kind=hang"):
            inject("slow")
        assert fake_clock.sleeps == [0.05]

    def test_partial_write_kind_returned_not_acted(self):
        install("w:partial-write:1.0:0")
        fault = inject("w")
        assert fault is not None and fault.kind == "partial-write"

    def test_check_probes_without_acting(self):
        install("boom:raise:1.0:0")
        fault = check("boom")  # does not raise
        assert fault is not None and fault.kind == "raise"

    def test_install_returns_previous_and_clear(self):
        first = parse_faults("a:raise")
        assert install(first) is None
        assert install("b:raise") is first
        clear_faults()
        assert inject("a") is None and inject("b") is None

    def test_install_from_env(self, monkeypatch):
        from repro.harness import faults as faults_mod

        monkeypatch.setenv("REPRO_FAULTS", "x:raise:1.0:0")
        assert faults_mod.install_from_env() is True
        with pytest.raises(FaultError):
            inject("x")
        clear_faults()
        monkeypatch.delenv("REPRO_FAULTS")
        assert faults_mod.install_from_env() is False


class TestArtifactsUnderFaults:
    def test_partial_write_truncates_and_read_events_recovers(self, tmp_path):
        run_dir = tmp_path / "run"
        with obs.RunArtifacts(run_dir, command="t") as run:
            run.write_event({"event": "span", "name": "good"})
            install("artifacts.write_event:partial-write:1.0:0")
            with pytest.raises(FaultError, match="artifacts.write_event"):
                run.write_event({"event": "span", "name": "torn-record"})
            clear_faults()
        raw = (run_dir / "events.jsonl").read_text()
        assert "good" in raw
        # The stream now ends in a truncated record with no newline.
        assert not raw.endswith("\n")
        events = list(obs.read_events(run_dir))
        assert [e["name"] for e in events] == ["good"]
        assert obs.REGISTRY.snapshot()["counters"]["artifacts.partial_events"] == 1
        with pytest.raises(json.JSONDecodeError):
            list(obs.read_events(run_dir, strict=True))

    def test_unfinalized_manifest_is_flagged_not_keyerror(self, tmp_path):
        run_dir = tmp_path / "crashed"
        obs.RunArtifacts(run_dir, command="doomed")  # never finalized
        manifest = obs.load_manifest(run_dir)
        assert manifest["finalized"] is False
        assert "metrics" not in manifest and "finished" not in manifest
        code, text = run_cli("stats", "--artifacts-dir", str(run_dir))
        assert code == 0
        assert "NOT FINALIZED" in text

    def test_finalized_manifest_flagged_true(self, tmp_path):
        with obs.RunArtifacts(tmp_path / "ok", command="fine"):
            pass
        assert obs.load_manifest(tmp_path / "ok")["finalized"] is True


class TestCheckpoint:
    def test_completed_requires_ok_status(self, tmp_path):
        with Checkpoint(tmp_path) as cp:
            cp.record_start("E1")
            cp.record_finish("E1", {"holds": True, "status": "ok"})
            cp.record_start("E2")
            cp.record_finish("E2", {"holds": False, "status": "error"})
            cp.record_start("E3")  # started, never finished (crash)
        cp2 = Checkpoint(tmp_path)
        assert set(cp2.completed()) == {"E1"}
        assert set(cp2.results()) == {"E1", "E2"}
        cp2.close()

    def test_truncated_final_journal_line_tolerated(self, tmp_path):
        with Checkpoint(tmp_path) as cp:
            cp.record_start("E1")
            cp.record_finish("E1", {"holds": True, "status": "ok"})
            cp.record_start("E2")
            cp.record_finish("E2", {"holds": True, "status": "ok"})
        journal = tmp_path / "journal.jsonl"
        lines = journal.read_text().splitlines()
        # Simulate SIGKILL mid-append: chop the final line in half.
        journal.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])
        events, skipped = read_journal(tmp_path)
        assert skipped == 1
        cp2 = Checkpoint(tmp_path)
        assert cp2.journal_skipped == 1
        # E2's finish was the torn line: it must be re-run, E1 kept.
        assert set(cp2.completed()) == {"E1"}
        cp2.close()

    def test_missing_dir_starts_empty(self, tmp_path):
        cp = Checkpoint(tmp_path / "fresh")
        assert cp.completed() == {} and cp.journal_skipped == 0
        cp.close()

    def test_snapshot_write_is_atomic_under_fault(self, tmp_path):
        with Checkpoint(tmp_path) as cp:
            cp.record_finish("E1", {"holds": True, "status": "ok"})
            install("checkpoint.snapshot:partial-write:1.0:0")
            with pytest.raises(FaultError):
                cp.record_finish("E2", {"holds": True, "status": "ok"})
            clear_faults()
        # The torn snapshot went to the tmp file; checkpoint.json still
        # holds the previous complete state, and E2's journal line exists
        # but its snapshot result does not -> E2 re-runs, E1 survives.
        cp2 = Checkpoint(tmp_path)
        assert set(cp2.completed()) == {"E1"}
        cp2.close()

    def test_journal_partial_write_fault(self, tmp_path):
        with Checkpoint(tmp_path) as cp:
            cp.record_finish("E1", {"holds": True, "status": "ok"})
            install("checkpoint.journal:partial-write:1.0:0")
            with pytest.raises(FaultError):
                cp.record_start("E2")
            clear_faults()
        cp2 = Checkpoint(tmp_path)
        assert cp2.journal_skipped == 1
        assert set(cp2.completed()) == {"E1"}
        cp2.close()


class TestRunner:
    def test_error_capture_shape(self):
        install("experiment.E1:raise:1.0:0")
        res = ExperimentRunner().run_one("E1")
        assert res["holds"] is False
        assert res["status"] == "error"
        assert res["attempts"] == 1
        err = res["error"]
        assert err["type"] == "FaultError"
        assert "experiment.E1" in err["message"]
        assert "FaultError" in err["traceback"]
        assert obs.REGISTRY.snapshot()["counters"]["harness.errors"] == 1

    def test_success_shape(self):
        res = ExperimentRunner().run_one("E1")
        assert res["holds"] is True and res["status"] == "ok"
        assert res["attempts"] == 1 and res["duration_s"] > 0

    def test_unknown_id_still_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            ExperimentRunner().run_one("E99")

    def test_transient_fault_retried_to_success(self, fake_clock):
        install("experiment.E1:raise:1.0:0:1")  # fires once, then disarms
        cfg = RunnerConfig(retries=2, backoff_base_s=0.01, backoff_cap_s=0.02)
        res = ExperimentRunner(cfg).run_one("E1")
        assert res["status"] == "ok" and res["holds"] is True
        assert res["attempts"] == 2
        assert len(fake_clock.sleeps) == 1  # exactly one backoff, recorded
        assert (
            cfg.backoff_base_s
            <= fake_clock.sleeps[0]
            <= cfg.backoff_cap_s * (1 + cfg.jitter)
        )
        counters = obs.REGISTRY.snapshot()["counters"]
        assert counters["harness.retries"] == 1
        assert counters["harness.errors"] == 1

    def test_retries_exhausted_is_error(self, fake_clock):
        install("experiment.E1:raise:1.0:0")
        cfg = RunnerConfig(retries=2, backoff_base_s=0.01, backoff_cap_s=0.02)
        res = ExperimentRunner(cfg).run_one("E1")
        assert res["status"] == "error" and res["attempts"] == 3
        assert len(fake_clock.sleeps) == 2  # one backoff per retry
        assert all(
            cfg.backoff_base_s <= s <= cfg.backoff_cap_s * (1 + cfg.jitter)
            for s in fake_clock.sleeps
        )
        counters = obs.REGISTRY.snapshot()["counters"]
        assert counters["harness.retries"] == 2
        assert counters["harness.errors"] == 3

    def test_timeout_abandons_hung_experiment(self, monkeypatch, fake_clock):
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "5")
        install("experiment.E1:hang:1.0:0")
        # Hold the injected hang on a real event (released at teardown)
        # so the worker genuinely outlives the watchdog join without the
        # test paying the nominal 5-second hang.
        fake_clock.hold_from(1.0)
        res = ExperimentRunner(RunnerConfig(timeout_s=0.3)).run_one("E1")
        assert res["status"] == "timeout" and res["holds"] is False
        assert res["timeout_s"] == 0.3
        assert obs.REGISTRY.snapshot()["counters"]["harness.timeouts"] == 1

    def test_backoff_is_bounded_and_jittered(self):
        cfg = RunnerConfig(
            retries=5, backoff_base_s=0.1, backoff_cap_s=0.3, jitter=0.5
        )
        runner = ExperimentRunner(cfg)
        delays = [runner._backoff(k) for k in range(1, 7)]
        assert all(d >= 0.1 for d in delays)
        assert all(d <= 0.3 * 1.5 + 1e-9 for d in delays)
        assert delays[2] >= delays[0]  # exponential region grows

    def test_spans_annotated_with_attempt_numbers(self):
        obs.enable()
        events = []
        obs.add_sink(events.append)
        install("experiment.E1:raise:1.0:0:1")
        cfg = RunnerConfig(retries=1, backoff_base_s=0.01)
        ExperimentRunner(cfg).run_one("E1")
        attempts = [
            e["attrs"]["attempt"]
            for e in events
            if e["name"] == "harness.attempt"
        ]
        assert attempts == [1, 2]
        assert all(
            e["attrs"]["experiment"] == "E1"
            for e in events
            if e["name"] == "harness.attempt"
        )

    def test_batch_exit_code(self):
        ok = {"holds": True, "status": "ok"}
        fail = {"holds": False, "status": "ok"}
        err = {"holds": False, "status": "error"}
        tmo = {"holds": False, "status": "timeout"}
        assert batch_exit_code({"A": ok}) == 0
        assert batch_exit_code({"A": ok, "B": fail}) == 1
        assert batch_exit_code({"A": ok, "B": err}) == 2
        assert batch_exit_code({"A": fail, "B": tmo}) == 2

    def test_run_many_skips_checkpointed(self, tmp_path):
        cp = Checkpoint(tmp_path)
        runner = ExperimentRunner(checkpoint=cp)
        first = runner.run_many(["E1", "E3"])
        assert {r["status"] for r in first.values()} == {"ok"}
        cp.close()
        cp2 = Checkpoint(tmp_path)
        second = ExperimentRunner(checkpoint=cp2).run_many(["E1", "E3"])
        assert all(r.get("resumed") for r in second.values())
        cp2.close()
        # No new start events were journaled for the resumed pair.
        events, _ = read_journal(tmp_path)
        starts = [e for e in events if e["ev"] == "start"]
        assert len(starts) == 2


class TestIsolation:
    def test_isolated_run_succeeds_and_merges_metrics(self):
        res = ExperimentRunner(RunnerConfig(isolate=True)).run_one("E1")
        assert res["status"] == "ok" and res["holds"] is True
        # The child's experiment timer crossed the pipe into our registry.
        timers = obs.REGISTRY.snapshot()["timers"]
        assert timers["experiment.E1"]["count"] == 1

    def test_isolated_fault_crosses_boundary_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "experiment.E1:raise:1.0:0")
        res = ExperimentRunner(RunnerConfig(isolate=True)).run_one("E1")
        assert res["status"] == "error"
        assert res["error"]["type"] == "FaultError"

    def test_child_hard_crash_is_structured_error(self, monkeypatch):
        import subprocess

        class DeadProc:
            returncode = -11
            stdout = ""
            stderr = "Segmentation fault (core dumped)"

        monkeypatch.setattr(subprocess, "run", lambda *a, **k: DeadProc())
        res = ExperimentRunner(RunnerConfig(isolate=True)).run_one("E1")
        assert res["status"] == "error"
        assert res["error"]["type"] == "ChildCrash"
        assert "-11" in res["error"]["message"]
        assert "Segmentation fault" in res["error"]["traceback"]

    def test_child_output_parsing_ignores_experiment_noise(self):
        payload = {"ok": True, "result": {"holds": True}, "metrics": {}}
        stdout = "experiment prints stuff\n" + CHILD_SENTINEL + json.dumps(payload)
        parsed = ExperimentRunner._parse_child_output(stdout)
        assert parsed == payload
        assert ExperimentRunner._parse_child_output("garbage") is None
        assert ExperimentRunner._parse_child_output(CHILD_SENTINEL + "{oops") is None


class TestMetricsMerge:
    def test_merge_snapshot_folds_counters_gauges_timers(self):
        child = obs.MetricsRegistry()
        child.counter("harness.errors").inc(2)
        child.gauge("depth").set(3.0)
        child.timer("op").observe(0.5)
        child.timer("op").observe(1.5)
        obs.REGISTRY.counter("harness.errors").inc(1)
        obs.REGISTRY.timer("op").observe(0.1)
        obs.REGISTRY.merge_snapshot(child.snapshot())
        snap = obs.REGISTRY.snapshot()
        assert snap["counters"]["harness.errors"] == 3
        assert snap["gauges"]["depth"] == 3.0
        op = snap["timers"]["op"]
        assert op["count"] == 3
        assert op["total_s"] == pytest.approx(2.1)
        assert op["min_s"] == pytest.approx(0.1)
        assert op["max_s"] == pytest.approx(1.5)
        assert op["last_s"] == pytest.approx(1.5)

    def test_merge_empty_snapshot_is_noop(self):
        obs.REGISTRY.merge_snapshot({})
        assert obs.REGISTRY.is_empty()


class TestEndToEndResilience:
    """The acceptance scenario: 2 of 22 experiments faulted, run all."""

    FAULTS = "experiment.E5:raise:1.0:0,experiment.E9:raise:1.0:0"

    def test_run_all_survives_two_faults_then_resumes(
        self, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "runs"
        monkeypatch.setenv("REPRO_FAULTS", self.FAULTS)
        code, text = run_cli("run", "all", "--resume", str(run_dir))
        assert code == 2
        lines = [ln for ln in text.splitlines() if ln.strip()]
        assert len(lines) == 22
        assert sum("ERROR" in ln for ln in lines) == 2
        assert sum("HOLDS" in ln for ln in lines) == 20
        assert "E5" in text and "E9" in text
        counters = obs.REGISTRY.snapshot()["counters"]
        assert counters["harness.errors"] == 2
        assert "harness.timeouts" not in counters

        # Crash over — faults disarmed, resume the batch.
        monkeypatch.delenv("REPRO_FAULTS")
        clear_faults()
        obs.REGISTRY.reset()
        code, text = run_cli("run", "all", "--resume", str(run_dir))
        assert code == 0
        assert text.count("(resumed)") == 20
        assert text.count("HOLDS") == 22

        # The journal confirms only E5/E9 ran twice.
        events, skipped = read_journal(run_dir)
        assert skipped == 0
        starts: dict[str, int] = {}
        for ev in events:
            if ev["ev"] == "start":
                starts[ev["id"]] = starts.get(ev["id"], 0) + 1
        assert starts["E5"] == 2 and starts["E9"] == 2
        assert all(
            count == 1 for eid, count in starts.items() if eid not in ("E5", "E9")
        )
        counters = obs.REGISTRY.snapshot()["counters"]
        assert counters["harness.resumed"] == 20
        assert "harness.errors" not in counters

    def test_report_is_partial_not_absent_under_faults(self, monkeypatch):
        install("experiment.E1:raise:1.0:0")
        code, text = run_cli("report")
        assert code == 2
        assert "partial report" in text
        assert "Verdict: **ERROR**" in text
        assert "21 / 22 experiments hold" in text
        assert text.count("## E") == 22


class TestSeededBackoff:
    """Satellite: the retry-backoff jitter is seedable and reproducible."""

    # Pinned schedule for RunnerConfig defaults (base 0.1s, cap 5s,
    # jitter 0.25) under seed 42 — a regression anchor: if the jitter
    # formula or RNG stream changes, this fails loudly.
    PINNED_42 = [0.1159856699614471, 0.20125053776113333, 0.42750293183691196]

    def _schedule(self, **kwargs):
        runner = ExperimentRunner(RunnerConfig(retries=3, **kwargs))
        return [runner._backoff(a) for a in (1, 2, 3)]

    def test_schedule_pinned_for_seed_42(self):
        assert self._schedule(seed=42) == pytest.approx(self.PINNED_42)

    def test_same_seed_same_schedule(self):
        assert self._schedule(seed=7) == self._schedule(seed=7)

    def test_different_seed_different_schedule(self):
        assert self._schedule(seed=7) != self._schedule(seed=8)

    def test_env_seed_used_when_config_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "42")
        assert self._schedule() == pytest.approx(self.PINNED_42)

    def test_default_seed_is_zero(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEED", raising=False)
        assert self._schedule() == self._schedule(seed=0)


class TestBudgetGovernance:
    """Satellite: budget trips through the runner — cooperative deadlines
    beat the watchdog, deterministic trips are terminal."""

    def test_stall_fault_winds_down_cooperatively(self, monkeypatch):
        # A governed loop that *stalls* (slow, not dead): the cooperative
        # deadline fires at the next budget check, long before the
        # watchdog backstop (grace set absurdly high to prove which one
        # acted).
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "0.6")
        install("sweep.chunk:stall:1.0:0")
        cfg = RunnerConfig(timeout_s=0.25, grace_s=30.0)
        res = ExperimentRunner(cfg).run_one("E1")
        assert res["status"] == "timeout"
        assert res["cooperative"] is True
        assert res["truncation"].startswith("deadline")
        assert res["duration_s"] < 5  # nowhere near the 30s watchdog
        counters = obs.REGISTRY.snapshot()["counters"]
        assert counters["harness.timeouts"] == 1

    def test_budget_trip_is_terminal_not_retried(self, monkeypatch):
        import repro.experiments.registry as registry
        from repro.core.budget import BudgetExceeded, Partial

        def boom(exp_id):
            raise BudgetExceeded(
                "memory: test ceiling",
                partial=Partial.truncated("memory: test ceiling", explored=7),
            )

        monkeypatch.setattr(registry, "run_experiment", boom)
        res = ExperimentRunner(RunnerConfig(retries=3)).run_one("E1")
        assert res["status"] == "budget"
        assert res["attempts"] == 1  # deterministic trip: no retries burned
        assert res["truncation"] == "memory: test ceiling"
        assert res["partial"]["explored"] == 7
        assert batch_exit_code({"E1": res}) == 2
        counters = obs.REGISTRY.snapshot()["counters"]
        assert counters["harness.budget"] == 1
        assert "harness.retries" not in counters

    def test_cancelled_token_stops_batch_cleanly(self):
        from repro.core.budget import CancelToken

        tok = CancelToken()
        tok.cancel("SIGTERM")
        results = ExperimentRunner(token=tok).run_many(["E1", "E2"])
        assert results == {}

    def test_report_renders_budget_verdict(self, monkeypatch):
        import repro.experiments.registry as registry
        from repro.core.budget import BudgetExceeded, Partial
        from repro.experiments.report import render_markdown

        real = registry.run_experiment

        def sometimes(exp_id):
            if exp_id == "E1":
                raise BudgetExceeded(
                    "memory: ceiling",
                    partial=Partial.truncated(
                        "memory: ceiling", explored=5, total=10,
                        frontier={"kind": "t"},
                    ),
                )
            return real(exp_id)

        monkeypatch.setattr(registry, "run_experiment", sometimes)
        res = ExperimentRunner().run_one("E1")
        text = render_markdown({"E1": res})
        assert "Verdict: **BUDGET**" in text
        assert "Truncated: memory: ceiling" in text
        assert "explored 5/10 states, resumable" in text


class TestFrontierCheckpointFaults:
    """Satellite: partial-write faults during frontier checkpointing
    never leave an inconsistent resume state."""

    @pytest.fixture()
    def truncated_partial(self):
        from repro.core.automaton import CellularAutomaton
        from repro.core.budget import Budget
        from repro.core.phase_space import build_phase_space
        from repro.core.rules import MajorityRule
        from repro.spaces.line import Ring

        # numpy backend: the 31M ceiling is calibrated to its transients.
        ca = CellularAutomaton(Ring(18), MajorityRule(), backend="numpy")
        partial = build_phase_space(ca, budget=Budget(mem_bytes=31 << 20))
        assert not partial.complete and partial.frontier is not None
        return ca, partial

    def test_partial_write_torn_first_save_reads_as_absent(
        self, tmp_path, truncated_partial
    ):
        from repro.harness.checkpoint import load_frontier, save_frontier

        ca, partial = truncated_partial
        install("checkpoint.frontier:partial-write:1.0:0:1")
        with pytest.raises(FaultError):
            save_frontier(tmp_path, partial)
        # The torn metadata never reached os.replace: no frontier.json,
        # so the loader reports "nothing to resume", not garbage.
        assert load_frontier(tmp_path) is None

        # Retry (fault disarmed after one fire) succeeds; the resumed
        # build completes under the same ceiling that truncated it.
        from repro.core.budget import Budget
        from repro.core.phase_space import build_phase_space

        save_frontier(tmp_path, partial)
        frontier = load_frontier(tmp_path)
        assert frontier is not None
        resumed = build_phase_space(
            ca, budget=Budget(mem_bytes=31 << 20), frontier=frontier
        )
        assert resumed.complete

    def test_partial_write_resave_keeps_previous_frontier(
        self, tmp_path, truncated_partial
    ):
        from repro.harness.checkpoint import load_frontier, save_frontier

        _, partial = truncated_partial
        save_frontier(tmp_path, partial)
        before = load_frontier(tmp_path)
        assert before is not None

        install("checkpoint.frontier:partial-write:1.0:0:1")
        with pytest.raises(FaultError):
            save_frontier(tmp_path, partial)
        after = load_frontier(tmp_path)
        # Crash mid-rewrite degrades to the *older* consistent frontier.
        assert after is not None
        assert after["next_lo"] == before["next_lo"]
