"""Tests for resource governance (repro.core.budget) and its wiring:
governed builders, frontier checkpoint/resume, ambient budgets, and the
CLI's budget flags / interrupt handling."""

import dataclasses
import io
import sys

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.automaton import CellularAutomaton
from repro.core.budget import (
    Budget,
    BudgetExceeded,
    CancelToken,
    Partial,
    ambient_budget,
    estimate_nondet_bytes,
    estimate_phase_space_bytes,
    estimate_succ_bytes,
    format_bytes,
    format_pow2,
    parse_size,
    resolve_budget,
    set_ambient,
    use_budget,
)
from repro.core.evolution import brent_orbit, parallel_orbit, sequential_converge
from repro.core.interleaving import InterleavingReport, interleaving_capture_report
from repro.core.nondet import NondetPhaseSpace, build_nondet_phase_space
from repro.core.phase_space import PhaseSpace, build_phase_space
from repro.core.rules import MajorityRule, XorRule
from repro.core.schedules import FixedPermutation
from repro.harness.checkpoint import load_frontier, save_frontier
from repro.interleave.explorer import explore_outcomes
from repro.interleave.machine import AddI, Load, Store, Thread
from repro.spaces.line import Ring
from repro.util.validation import check_memory_budget


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(autouse=True)
def _clean_ambient():
    """Every test starts and ends with an empty ambient budget stack."""
    set_ambient(None)
    yield
    set_ambient(None)


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("256M") == 256 << 20
        assert parse_size("256MB") == 256 << 20
        assert parse_size("2G") == 2 << 30
        assert parse_size("1.5GB") == int(1.5 * (1 << 30))
        assert parse_size("4096") == 4096
        assert parse_size(4096) == 4096
        assert parse_size("1 kb") == 1024

    @pytest.mark.parametrize("bad", ["", "MB", "xyz", "12Q", "-5", 0, -1])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    def test_format_round_trips_readably(self):
        assert format_bytes(256 << 20) == "256.0MB"
        assert format_pow2(1 << 24) == "2^24"
        assert format_pow2(11534336) == "2^23.5"

    def test_estimates_scale(self):
        assert estimate_succ_bytes(24) == (1 << 24) * 8
        assert estimate_phase_space_bytes(10) > estimate_succ_bytes(10)
        # worst case: a flip bit and a change edge per (config, node),
        # plus the per-configuration SCC arrays and the peel's 5 word rows
        assert estimate_nondet_bytes(10) == (
            (1 << 10) * (10 * 34 + 22) + (10 + 5) * (1 << 10) // 8
        )


class TestCancelToken:
    def test_first_reason_wins(self):
        tok = CancelToken()
        assert not tok.cancelled and tok.reason is None
        assert tok.cancel("SIGTERM") is True
        assert tok.cancel("later") is False
        assert tok.cancelled and tok.reason == "SIGTERM"


class TestPartial:
    def test_done_and_describe(self):
        p = Partial.done("v", explored=1 << 10, total=1 << 10)
        assert p.complete and p.value == "v"
        assert p.describe() == "explored 2^10/2^10 configs (complete)"

    def test_truncated_describe_and_summary(self):
        p = Partial.truncated(
            "memory: over", explored=3 << 20, total=1 << 24,
            stats={"fixed_points": 7}, frontier={"succ": np.zeros(4)},
        )
        assert not p.complete
        assert "truncated: memory: over" in p.describe()
        d = p.summary_dict()
        assert d["resumable"] is True
        assert d["stats"] == {"fixed_points": 7}
        assert "frontier" not in d  # arrays never leak into JSON results


class TestBudget:
    def test_unlimited_never_trips(self):
        b = Budget()
        assert b.is_unlimited
        b.charge(states=10**9, bytes_=10**12)
        assert b.over() is None
        b.check()  # does not raise

    def test_state_cap(self):
        b = Budget(max_states=10)
        b.charge(states=10)
        assert "states" in b.over()
        with pytest.raises(BudgetExceeded, match="states"):
            b.check()

    def test_memory_ceiling_and_pending_projection(self):
        b = Budget(mem_bytes=100)
        b.charge(bytes_=60)
        assert b.over() is None
        assert b.fits_memory(40) and not b.fits_memory(41)
        assert "memory" in b.over(pending_bytes=41)
        b.release_bytes(60)
        assert b.over(pending_bytes=41) is None

    def test_deadline(self):
        b = Budget(wall_s=1e-9)
        assert "deadline" in b.over()
        assert b.remaining_s < 1

    def test_cancellation_beats_everything(self):
        tok = CancelToken()
        b = Budget(wall_s=1e-9, token=tok)
        tok.cancel("SIGTERM")
        assert b.over() == "cancelled: SIGTERM"

    def test_check_carries_partial(self):
        b = Budget(max_states=1)
        b.charge(states=1)
        snap = Partial.truncated("states", explored=1)
        with pytest.raises(BudgetExceeded) as err:
            b.check(partial=snap)
        assert err.value.partial is snap

    def test_from_env(self):
        env = {"REPRO_BUDGET_WALL_S": "5", "REPRO_BUDGET_MEM": "64M",
               "REPRO_BUDGET_STATES": "1000"}
        b = Budget.from_env(env)
        assert b.wall_s == 5.0
        assert b.mem_bytes == 64 << 20
        assert b.max_states == 1000
        assert Budget.from_env({}).is_unlimited

    def test_rejects_nonpositive_limits(self):
        for kwargs in ({"wall_s": 0}, {"mem_bytes": 0}, {"max_states": -1}):
            with pytest.raises(ValueError):
                Budget(**kwargs)


class TestAmbientStack:
    def test_default_is_unlimited(self):
        assert ambient_budget().is_unlimited

    def test_use_budget_nests_and_restores(self):
        outer, inner = Budget(max_states=5), Budget(max_states=2)
        with use_budget(outer):
            assert ambient_budget() is outer
            assert resolve_budget(None) is outer
            with use_budget(inner):
                assert ambient_budget() is inner
            assert ambient_budget() is outer
        assert ambient_budget().is_unlimited

    def test_explicit_budget_wins_over_ambient(self):
        explicit = Budget(max_states=1)
        with use_budget(Budget(max_states=99)):
            assert resolve_budget(explicit) is explicit

    def test_set_ambient_installs_sole(self):
        b = Budget(max_states=3)
        assert set_ambient(b) is None
        assert ambient_budget() is b
        assert set_ambient(None) is b
        assert ambient_budget().is_unlimited


class TestCheckMemoryBudget:
    def test_no_ceiling_passes(self):
        assert check_memory_budget(30, None) == 30

    def test_fits(self):
        assert check_memory_budget(24, 256 << 20) == 24  # table is 128MB

    def test_rejects_with_remedies(self):
        with pytest.raises(ValueError) as err:
            check_memory_budget(28, 256 << 20)
        msg = str(err.value)
        assert "--budget-mem" in msg and "simulate" in msg


class TestGovernedPhaseSpace:
    def test_complete_build_matches_ungoverned(self, majority_ring8):
        exact = PhaseSpace.from_automaton(majority_ring8)
        partial = build_phase_space(majority_ring8, budget=Budget())
        assert partial.complete
        assert partial.explored == partial.total == 256
        assert partial.value.summary() == exact.summary()

    def test_memory_trip_yields_frontier_and_resume_completes(self, tmp_path):
        # Pinned to the numpy backend: the trip point is calibrated to its
        # chunk-transient size (the compiled backends fit in far less).
        ca = CellularAutomaton(Ring(18), MajorityRule(), backend="numpy")
        exact = PhaseSpace.from_automaton(ca)
        # 31MB: enough for the chunk transients (26MB) and the disk-backed
        # resume's analysis (5MB besides), not for the full in-memory
        # build — trips mid-sweep with a consistent explored prefix.
        p1 = build_phase_space(ca, budget=Budget(mem_bytes=31 << 20))
        assert not p1.complete
        assert "memory" in p1.reason
        assert 0 < p1.explored < p1.total == 1 << 18
        assert p1.frontier is not None

        save_frontier(tmp_path, p1)
        frontier = load_frontier(tmp_path)
        assert frontier is not None
        assert frontier["next_lo"] == p1.explored
        assert isinstance(frontier["succ"], np.memmap)

        # The resumed build streams to disk, so the same ceiling now fits.
        p2 = build_phase_space(
            ca, budget=Budget(mem_bytes=31 << 20), frontier=frontier
        )
        assert p2.complete
        assert p2.value.summary() == exact.summary()

    def test_ambient_budget_governs_from_automaton(self):
        ca = CellularAutomaton(Ring(12), MajorityRule())
        with use_budget(Budget(mem_bytes=1024)):
            with pytest.raises(BudgetExceeded) as err:
                PhaseSpace.from_automaton(ca)
        assert err.value.partial is not None
        assert not err.value.partial.complete

    def test_frontier_mismatch_rejected(self, majority_ring8):
        with pytest.raises(ValueError):
            build_phase_space(
                majority_ring8, frontier={"kind": "nondet", "n": 8}
            )


class TestGovernedNondet:
    def test_complete_build_matches_ungoverned(self, majority_ring8):
        exact = NondetPhaseSpace.from_automaton(majority_ring8)
        partial = build_nondet_phase_space(majority_ring8, budget=Budget())
        assert partial.complete
        assert partial.value.summary() == exact.summary()

    def test_truncates_at_chunk_boundary_and_resumes(self, tmp_path):
        ca = CellularAutomaton(Ring(17), MajorityRule())
        exact = NondetPhaseSpace.from_automaton(ca)
        # A state cap of one 2**16-configuration chunk of all 17 nodes,
        # (17 * 2**16 states): the sweep stops after the first of the two
        # chunks, so the frontier sits exactly on a chunk boundary.
        p1 = build_nondet_phase_space(
            ca, budget=Budget(max_states=17 << 16)
        )
        assert not p1.complete and p1.reason.startswith("states")
        assert p1.stats == {}
        assert p1.explored == 17 << 16

        save_frontier(tmp_path, p1)
        frontier = load_frontier(tmp_path)
        assert frontier["next_lo"] == 1 << 16
        # the flip words round-trip as uint64, each row's filled words bit
        # for bit
        assert frontier["succ"].dtype == np.uint64
        assert frontier["succ"].shape == (17, (1 << 17) // 64)
        np.testing.assert_array_equal(
            frontier["succ"][:, :1024], p1.frontier["succ"][:, :1024]
        )
        np.testing.assert_array_equal(frontier["succ"][:, :1024], exact.words[:, :1024])
        p2 = build_nondet_phase_space(ca, budget=Budget(), frontier=frontier)
        assert p2.complete
        np.testing.assert_array_equal(p2.value.words, exact.words)
        assert p2.value.summary() == exact.summary()

    def test_row_by_row_frontier_refused(self, tmp_path):
        # A frontier of the format before configuration chunks: next_row
        # whole rows of flip words, stamped over those rows.  It must be
        # refused with one line (the CLI exits 1), never read through a
        # stamp over another axis.
        import json

        from repro.core import durable

        words = NondetPhaseSpace.from_automaton(
            CellularAutomaton(Ring(10), MajorityRule())
        ).words
        np.save(tmp_path / "frontier_succ.npy", words)
        meta = {
            "kind": "nondet", "n": 10, "total": 10 << 10, "next_row": 3,
            "automaton": CellularAutomaton(Ring(10), MajorityRule()).describe(),
            "schema": "repro-frontier/1", "explored": 3 << 10,
            "reason": "states: enumerated 3072 >= cap 3072", "stats": {},
            "array": {
                "crc32": durable.crc32_of_array_prefix(words[:3].ravel(), 48),
                "rows": 3,
                "nbytes": (tmp_path / "frontier_succ.npy").stat().st_size,
            },
        }
        (tmp_path / "frontier.json").write_text(json.dumps(meta))
        message = "a sequential frontier saved row by row, by an older version"
        with pytest.raises(ValueError, match=message):
            load_frontier(tmp_path)
        with pytest.raises(SystemExit, match=message) as err:
            run_cli(
                "phase-space", "--n", "10", "--mode", "sequential",
                "--resume", str(tmp_path),
            )
        assert "\n" not in str(err.value)

    def test_int64_frontier_refused(self, tmp_path):
        # A frontier of int64 successor rows, or of bool flip rows (the
        # two formats before flip words), must be refused, never read as
        # flip words.
        ca = CellularAutomaton(Ring(10), MajorityRule())
        p1 = build_nondet_phase_space(
            ca, budget=Budget(max_states=3 * (1 << 10))
        )
        succ = ca.all_node_successors()
        for rows, dtype in ((succ, "int64"), (succ != np.arange(1 << 10), "bool")):
            old = dict(p1.frontier, succ=rows)
            save_frontier(tmp_path, dataclasses.replace(p1, frontier=old))
            message = f"holds {dtype} rows of 1024 entries, not 16 uint64 flip"
            with pytest.raises(ValueError, match=message):
                build_nondet_phase_space(ca, frontier=load_frontier(tmp_path))
            with pytest.raises(SystemExit, match=message):
                run_cli(
                    "phase-space", "--n", "10", "--mode", "sequential",
                    "--resume", str(tmp_path),
                )


@pytest.mark.parametrize("build", [build_phase_space, build_nondet_phase_space])
def test_frontier_of_another_automaton_rejected(build):
    tripped = build(
        CellularAutomaton(Ring(10), MajorityRule()), budget=Budget(mem_bytes=1024)
    )
    assert not tripped.complete
    with pytest.raises(ValueError, match="frontier was saved by"):
        build(CellularAutomaton(Ring(10), XorRule()), frontier=tripped.frontier)


class TestGovernedDynamics:
    def test_parallel_orbit_raises_with_progress(self):
        ca = CellularAutomaton(Ring(10), XorRule())
        state = np.zeros(10, dtype=np.uint8)
        state[0] = 1
        with pytest.raises(BudgetExceeded) as err:
            parallel_orbit(ca, state, budget=Budget(max_states=3))
        assert err.value.partial is not None
        assert err.value.partial.explored >= 3

    def test_brent_orbit_deadline(self):
        ca = CellularAutomaton(Ring(10), XorRule())
        state = np.zeros(10, dtype=np.uint8)
        state[0] = 1  # long orbit, so the per-step check actually runs
        with pytest.raises(BudgetExceeded):
            brent_orbit(ca, state, budget=Budget(wall_s=1e-9))

    def test_sequential_converge_partial_carries_state(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        state = (np.arange(8) % 2).astype(np.uint8)
        with pytest.raises(BudgetExceeded) as err:
            sequential_converge(
                ca, state, FixedPermutation(), budget=Budget(wall_s=1e-9)
            )
        partial = err.value.partial
        assert partial is not None and partial.value is not None
        assert partial.value.converged is False

    def test_explorer_dfs_governed(self):
        def inc(name):
            return Thread(name, (Load("r", "x"), AddI("r", 1), Store("x", "r")))

        with pytest.raises(BudgetExceeded) as err:
            explore_outcomes([inc("A"), inc("B")], {"x": 0},
                             budget=Budget(max_states=2))
        assert err.value.partial.stats["states_seen"] >= 2


class TestGovernedInterleaving:
    def test_report_properties_with_truncation(self, majority_ring8):
        full = interleaving_capture_report(majority_ring8)
        assert full.complete and full.truncation is None
        assert full.audited_configs == full.total_configs
        half = dataclasses.replace(
            full, explored_configs=full.total_configs // 2,
            truncation="deadline: test",
        )
        assert not half.complete
        assert half.audited_configs == full.total_configs // 2
        empty = dataclasses.replace(full, explored_configs=0, truncation="x")
        assert empty.step_capture_rate == 0.0  # no div-by-zero

    def test_audit_loop_trips_on_budget(self, majority_ring8):
        calls = []

        class Counting(Budget):
            def over(self, pending_bytes=0):
                calls.append(1)
                return super().over(pending_bytes=pending_bytes)

        interleaving_capture_report(majority_ring8, budget=Counting())
        total_calls = len(calls)

        class TripLast(Budget):
            def __init__(self):
                super().__init__()
                self.n = 0

            def over(self, pending_bytes=0):
                self.n += 1
                if self.n >= total_calls:  # the audit-loop check
                    return "deadline: test trip"
                return None

        report = interleaving_capture_report(majority_ring8, budget=TripLast())
        assert not report.complete
        assert report.truncation == "deadline: test trip"
        assert report.audited_configs < report.total_configs


class TestBudgetCLI:
    def test_large_n_requires_budget_or_resume(self):
        with pytest.raises(SystemExit, match="too large"):
            run_cli("phase-space", "--n", "22", "--rule", "majority")

    def test_over_ceiling_rejected_even_governed(self):
        with pytest.raises(SystemExit, match="too large"):
            run_cli("phase-space", "--n", "29", "--rule", "majority",
                    "--budget-mem", "8G")

    def test_succ_table_over_ceiling_rejected_actionably(self):
        with pytest.raises(SystemExit, match="successor table"):
            run_cli("phase-space", "--n", "24", "--rule", "majority",
                    "--budget-mem", "64M")

    def test_bad_budget_mem_spec(self):
        with pytest.raises(SystemExit, match="budget-mem"):
            run_cli("phase-space", "--n", "8", "--budget-mem", "lots")

    def test_governed_truncation_exits_3_then_resume_completes(self, tmp_path):
        # --backend numpy: the trip point is calibrated to the reference
        # kernel's transient size; compiled backends fit in 31M outright.
        args = ("phase-space", "--n", "18", "--rule", "majority",
                "--backend", "numpy",
                "--budget-mem", "31M", "--resume", str(tmp_path))
        code, text = run_cli(*args)
        assert code == 3
        assert "truncated: memory" in text
        assert "frontier saved" in text
        assert (tmp_path / "frontier.json").exists()
        assert (tmp_path / "frontier_succ.npy").exists()

        code2, text2 = run_cli(*args)
        assert code2 == 0
        assert "resuming from" in text2
        assert "explored 2^18/2^18 configs (complete)" in text2
        assert "fixed_points: 5780" in text2  # exact despite the detour

    def test_analysis_trip_names_its_bytes_then_larger_resume_completes(
        self, tmp_path
    ):
        # XOR is cyclic, so its SCC is charged: the flip words (128 KiB)
        # and the sweep's scratch fit 4M, the analysis does not.  The trip
        # must name the analysis bytes, not promise that a resume under
        # the same ceiling continues; a larger ceiling finishes.
        args = ("phase-space", "--n", "16", "--rule", "xor",
                "--mode", "sequential", "--backend", "bitplane",
                "--resume", str(tmp_path))
        code, text = run_cli(*args, "--budget-mem", "4M")
        assert code == 3
        assert "explored 2^20/2^20 configs — truncated: memory" in text
        assert "the sweep is complete" in text
        need = int(text.split("analysis_bytes: ")[1].split()[0])
        assert 4 << 20 < need
        assert "rerun with --resume" in text and "to continue" not in text
        assert f"--budget-mem {-(-need // (1 << 20))}M or more" in text
        code, text = run_cli(*args, "--budget-mem", "4M")
        assert code == 3 and f"analysis_bytes: {need}" in text
        code, resumed = run_cli(*args, "--budget-mem", f"{-(-need // (1 << 20))}M")
        assert code == 0
        code, plain = run_cli(*args[:-2])
        assert code == 0
        tail = resumed[resumed.index("  explored"):]
        assert tail == plain[plain.index("  explored"):]
        assert "has_proper_cycle: True" in tail

    def test_small_n_unaffected_by_default(self):
        code, text = run_cli("phase-space", "--n", "8", "--rule", "majority")
        assert code == 0
        assert "(complete)" in text

    def test_budget_states_trips(self):
        code, text = run_cli("phase-space", "--n", "12", "--rule", "majority",
                             "--budget-states", "100")
        assert code == 3
        assert "truncated: states" in text

    def test_keyboard_interrupt_is_one_line_130(self, monkeypatch, capsys):
        import repro.cli as cli_mod

        def boom(args, out):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_dispatch", boom)
        code, _ = run_cli("list")
        assert code == 130
        err = capsys.readouterr().err
        assert err.strip() == "interrupted"
        assert "Traceback" not in err

    def test_keyboard_interrupt_names_artifact_dir(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.cli as cli_mod

        def boom(args, out):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_dispatch", boom)
        code, _ = run_cli("phase-space", "--n", "8",
                          "--resume", str(tmp_path / "ck"))
        assert code == 130
        assert f"partial artifacts in {tmp_path / 'ck'}" in capsys.readouterr().err


class TestGovernedAttractorCensus:
    """The attractor-direct census under the same governance contract."""

    @staticmethod
    def _ca(n, **kw):
        return CellularAutomaton(Ring(n), MajorityRule(), memory=True, **kw)

    def test_states_trip_mid_sweep_then_resume_is_byte_identical(self):
        from repro.analysis.census import build_attractor_census

        ca = self._ca(17)  # two serial chunks: the trip lands mid-sweep
        reference = build_attractor_census(ca)
        assert reference.complete

        tripped = build_attractor_census(ca, budget=Budget(max_states=70_000))
        assert not tripped.complete
        assert "states" in tripped.reason
        frontier = tripped.frontier
        assert frontier["kind"] == "attractor_census"
        assert 0 < frontier["next_lo"] < 1 << 17
        # the frontier is pure JSON: counts ride inline, no array
        assert "succ" not in frontier
        assert frontier["counts"][0] == frontier["next_lo"]  # codes scanned

        resumed = build_attractor_census(self._ca(17), frontier=frontier)
        assert resumed.complete
        assert resumed.value == reference.value

    def test_memory_trip_is_honest(self):
        from repro.analysis.census import build_attractor_census
        from repro.perf.attractor import AttractorKernel

        ca = self._ca(12)
        scratch = AttractorKernel(ca).transient_bytes()
        partial = build_attractor_census(
            ca, budget=Budget(mem_bytes=scratch // 2)
        )
        assert not partial.complete
        assert "memory" in partial.reason
        assert partial.frontier["next_lo"] == 0

    def test_frontier_checkpoint_roundtrip(self, tmp_path):
        from repro.analysis.census import build_attractor_census

        tripped = build_attractor_census(
            self._ca(17), budget=Budget(max_states=70_000)
        )
        save_frontier(tmp_path, tripped)
        assert (tmp_path / "frontier.json").exists()
        assert not (tmp_path / "frontier_succ.npy").exists()
        loaded = load_frontier(tmp_path)
        assert loaded["kind"] == "attractor_census"
        assert loaded["next_lo"] == tripped.frontier["next_lo"]
        resumed = build_attractor_census(self._ca(17), frontier=loaded)
        assert resumed.complete

    def test_mismatched_frontier_rejected(self):
        from repro.analysis.census import build_attractor_census

        tripped = build_attractor_census(
            self._ca(17), budget=Budget(max_states=70_000)
        )
        with pytest.raises(ValueError, match="frontier"):
            build_attractor_census(self._ca(12), frontier=tripped.frontier)

    def test_cli_trip_exits_3_then_resume_completes(self, tmp_path):
        plain_code, plain_text = run_cli("census", "--n", "17")
        assert plain_code == 0

        args = ("census", "--n", "17", "--budget-states", "70000",
                "--resume", str(tmp_path))
        code, text = run_cli(*args)
        assert code == 3
        assert "truncated: states" in text
        assert "frontier saved" in text
        assert (tmp_path / "frontier.json").exists()
        assert not (tmp_path / "frontier_succ.npy").exists()

        code2, text2 = run_cli("census", "--n", "17",
                               "--resume", str(tmp_path))
        assert code2 == 0
        assert "resuming from" in text2
        # the resumed row is identical to the uninterrupted one
        assert plain_text.splitlines()[-1] == text2.splitlines()[-1]
