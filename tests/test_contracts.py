"""Tests for the artifact contracts + ``repro doctor`` (repro.contracts).

The fixture materialises a run tree holding every one of the five
dialects through the real writer APIs, then the tests damage it in the
ways a crash (or bit rot) actually does and assert the classification
(valid / truncated-recoverable / corrupt), the repairs (torn-tail
rewrite, snapshot-from-journal, sqlite rebuild, sidecar refresh), the
quarantine behaviour, and the doctor CLI's exit codes.
"""

from __future__ import annotations

import io
import json
import sqlite3
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.contracts import (
    CORRUPT,
    TRUNCATED,
    VALID,
    contract_for,
    diagnose,
    run_doctor,
)
from repro.contracts.dialects import DIALECTS
from repro.core import durable
from repro.harness.checkpoint import Checkpoint, save_frontier
from repro.obs.index import RunIndex, check_database, open_with_recovery
from repro.qa.findings import Finding


@pytest.fixture(autouse=True)
def clean_obs():
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


def _fake_partial(n=4, next_lo=8):
    total = 2**n
    succ = np.arange(total, dtype=np.int64)
    return SimpleNamespace(
        frontier={
            "kind": "phase_space", "n": n, "total": total,
            "next_lo": next_lo, "fixed_points_so_far": 0, "succ": succ,
        },
        explored=next_lo,
        reason="states: test",
        stats={"fixed_points": 0},
    )


@pytest.fixture
def run_tree(tmp_path):
    """A healthy tree holding all five dialects, written by the real APIs."""
    obs.enable()
    with obs.RunArtifacts(tmp_path / "obsrun", command="phase-space") as run:
        with obs.span("phase_space.build", n=4):
            pass
    obs.disable()
    obs.REGISTRY.reset()

    hdir = tmp_path / "harness"
    cp = Checkpoint(hdir)
    cp.record_start("E1")
    cp.record_finish(
        "E1", {"status": "ok", "holds": True, "duration_s": 0.5}
    )
    cp.close()

    save_frontier(tmp_path / "sweep", _fake_partial())

    durable.durable_write_json(
        tmp_path / "BENCH_demo.json",
        {
            "schema": "repro-bench/1",
            "module": "bench_demo",
            "generated": "2026-01-01T00:00:00+0000",
            "exit_status": 0,
            "environment": {"python": "3.11"},
            "benchmarks": [],
            "metrics": {},
        },
        checksum=False,
    )

    Finding(
        check="differential.step_all",
        detail={"codes": [3]},
        spec={"n": 4, "rule": "majority"},
        backends=["numpy", "bitplane"],
    ).save(tmp_path / "findings")
    return tmp_path


class TestDialectContracts:
    def test_every_dialect_validates_clean(self, run_tree):
        checks = diagnose(run_tree)
        assert checks, "diagnose found no artifacts"
        assert {c.status for c in checks} == {VALID}
        dialects = {c.dialect for c in checks}
        assert {"obs", "harness", "frontier", "bench", "finding"} <= dialects

    def test_declared_dialects(self):
        assert set(DIALECTS) == {
            "obs", "harness", "frontier", "bench", "finding", "mc"
        }
        for contracts in DIALECTS.values():
            for contract in contracts:
                assert contract.schema and "/" in contract.schema

    def test_contract_for_routing(self, tmp_path):
        assert contract_for(tmp_path / "manifest.json").name == "obs"
        assert contract_for(tmp_path / "journal.jsonl").name == "harness"
        assert contract_for(tmp_path / "frontier_succ.npy").name == "frontier"
        assert contract_for(tmp_path / "BENCH_x.json").name == "bench"
        assert contract_for(tmp_path / "finding-a-b.json").name == "finding"
        assert contract_for(tmp_path / "random.txt") is None

    def test_schema_mismatch_is_corrupt(self, run_tree):
        snap = run_tree / "harness" / "checkpoint.json"
        data = json.loads(snap.read_text())
        data["schema"] = "repro-checkpoint/99"
        snap.write_text(json.dumps(data))
        check = contract_for(snap).validate(snap)
        assert check.status == CORRUPT
        assert "repro-checkpoint/99" in check.detail

    def test_missing_required_field_is_corrupt(self, run_tree):
        snap = run_tree / "harness" / "checkpoint.json"
        snap.write_text(json.dumps({"schema": "repro-checkpoint/1"}))
        check = contract_for(snap).validate(snap)
        assert check.status == CORRUPT
        assert check.repair == "rebuild-from-journal"

    def test_torn_jsonl_tail_is_truncated(self, run_tree):
        journal = run_tree / "harness" / "journal.jsonl"
        with open(journal, "a") as fh:
            fh.write('{"ev": "finish", "id"')
        check = contract_for(journal).validate(journal)
        assert check.status == TRUNCATED
        assert check.repair == "rewrite-valid-records"
        assert "torn tail" in check.detail

    def test_midfile_crc_mismatch_is_truncated_and_flagged(self, run_tree):
        journal = run_tree / "harness" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        lines[0] = lines[0].replace('"start"', '"sabot"')
        journal.write_text("\n".join(lines) + "\n")
        check = contract_for(journal).validate(journal)
        assert check.status == TRUNCATED
        assert "mid-file" in check.detail

    def test_finding_digest_tamper_is_corrupt(self, run_tree):
        path = next((run_tree / "findings").glob("finding-*.json"))
        data = json.loads(path.read_text())
        data["spec"]["n"] = 99  # spec no longer matches the digest
        path.write_text(json.dumps(data))
        check = contract_for(path).validate(path)
        assert check.status == CORRUPT

    def test_frontier_array_tamper_detected(self, run_tree):
        array = run_tree / "sweep" / "frontier_succ.npy"
        raw = bytearray(array.read_bytes())
        raw[-128] ^= 0xFF  # first data byte: inside the stamped prefix
        array.write_bytes(bytes(raw))
        meta_check = contract_for(
            run_tree / "sweep" / "frontier.json"
        ).validate(run_tree / "sweep" / "frontier.json")
        assert meta_check.status == TRUNCATED
        assert meta_check.repair == "quarantine-frontier"
        array_check = contract_for(array).validate(array)
        assert array_check.status == TRUNCATED

    def test_orphaned_frontier_array(self, run_tree):
        (run_tree / "sweep" / "frontier.json").unlink()
        array = run_tree / "sweep" / "frontier_succ.npy"
        check = contract_for(array).validate(array)
        assert check.status == TRUNCATED
        assert "orphaned" in check.detail


class TestDoctor:
    def test_clean_tree_exit_0(self, run_tree):
        report = run_doctor(run_tree)
        assert report["exit_code"] == 0
        assert report["clean"] is True
        assert (run_tree / "doctor_report.json").exists()
        written = json.loads((run_tree / "doctor_report.json").read_text())
        assert written["schema"] == "repro-doctor-report/1"

    def test_torn_tail_repair(self, run_tree):
        journal = run_tree / "harness" / "journal.jsonl"
        before = journal.read_text()
        with open(journal, "a") as fh:
            fh.write('{"ev": "finish", "id"')
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert any(
            r["action"] == "rewrite-valid-records" for r in report["repairs"]
        )
        assert journal.read_text() == before
        assert run_doctor(run_tree)["exit_code"] == 0

    def test_snapshot_rebuilt_from_journal(self, run_tree):
        snap = run_tree / "harness" / "checkpoint.json"
        snap.unlink()
        durable.sidecar_path(snap).unlink()
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        rebuilt = json.loads(snap.read_text())
        assert rebuilt["recovered"] is True
        assert rebuilt["results"]["E1"]["status"] == "ok"
        assert rebuilt["results"]["E1"]["recovered"] is True
        # The regenerated snapshot resumes exactly like the original.
        cp = Checkpoint(run_tree / "harness")
        assert "E1" in cp.completed()
        cp.close()

    def test_corrupt_snapshot_quarantined_then_rebuilt(self, run_tree):
        snap = run_tree / "harness" / "checkpoint.json"
        snap.write_text('{"schema": "repro-checkpoint/1", "resu')
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert json.loads(snap.read_text())["recovered"] is True
        quarantined = list((run_tree / "quarantine").iterdir())
        assert any("checkpoint.json" in p.name for p in quarantined)

    def test_corrupt_finding_quarantined(self, run_tree):
        path = next((run_tree / "findings").glob("finding-*.json"))
        path.write_text("not json {{{")
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert not path.exists()
        assert any(
            path.name in p.name
            for p in (run_tree / "quarantine").iterdir()
        )
        assert run_doctor(run_tree)["exit_code"] == 0

    def test_torn_frontier_quarantined(self, run_tree):
        array = run_tree / "sweep" / "frontier_succ.npy"
        raw = bytearray(array.read_bytes())
        raw[-128] ^= 0xFF  # first data byte: inside the stamped prefix
        array.write_bytes(bytes(raw))
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert not array.exists()
        assert not (run_tree / "sweep" / "frontier.json").exists()
        assert run_doctor(run_tree)["exit_code"] == 0

    def test_stale_tmp_quarantined(self, run_tree):
        tmp = run_tree / "harness" / "checkpoint.json.tmp"
        tmp.write_text('{"half": ')
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert not tmp.exists()

    def test_stale_sidecar_refreshed(self, run_tree):
        snap = run_tree / "harness" / "checkpoint.json"
        # Crash window: payload replaced, sidecar not yet refreshed.
        data = json.loads(snap.read_text())
        data["updated"] = 1.0
        snap.write_text(json.dumps(data))
        assert durable.verify_sidecar(snap) == "stale"
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert any(
            r["action"] == "refresh-sidecar" for r in report["repairs"]
        )
        assert durable.verify_sidecar(snap) == "ok"

    def test_orphaned_sidecar_quarantined(self, run_tree):
        orphan = run_tree / "gone.json.sum"
        orphan.write_text("sha256:00:0\n")
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert not orphan.exists()

    def test_no_repair_reports_only(self, run_tree):
        journal = run_tree / "harness" / "journal.jsonl"
        damaged = journal.read_text() + '{"ev": "finish", "id'
        journal.write_text(damaged)
        report = run_doctor(run_tree, repair=False)
        assert report["exit_code"] == 1
        assert report["repairs"] == []
        assert journal.read_text() == damaged  # untouched

    def test_no_repair_corrupt_exit_2(self, run_tree):
        path = next((run_tree / "findings").glob("finding-*.json"))
        path.write_text("not json")
        report = run_doctor(run_tree, repair=False)
        assert report["exit_code"] == 2
        assert path.exists()

    def test_corrupt_sqlite_rebuilt(self, run_tree):
        db = run_tree / "runs_index.sqlite"
        db.write_bytes(b"x" * 64)
        report = run_doctor(run_tree)
        assert report["exit_code"] == 1
        assert any(r["action"] == "rebuild-index" for r in report["repairs"])
        assert check_database(db) is None
        with RunIndex(db) as idx:
            kinds = {r["kind"] for r in idx.list_runs()}
        assert "harness" in kinds  # rebuilt from the surviving artifacts


class TestSequentialFrontier:
    """A sequential frontier is ``(n, words)`` flip words whose explored
    prefix runs along the last axis: every row's words below ``next_lo``,
    stamped in row order."""

    @pytest.fixture
    def seq_tree(self, tmp_path):
        from repro.core.automaton import CellularAutomaton
        from repro.core.budget import Budget
        from repro.core.nondet import build_nondet_phase_space
        from repro.core.rules import MajorityRule
        from repro.spaces.line import Ring

        # one 2**16-configuration chunk of the two: 1024 words per row
        p = build_nondet_phase_space(
            CellularAutomaton(Ring(17), MajorityRule()),
            budget=Budget(max_states=17 << 16),
        )
        assert not p.complete and p.frontier["next_lo"] == 1 << 16
        save_frontier(tmp_path / "seq", p)
        return tmp_path

    def test_valid_frontier_passes_doctor(self, seq_tree):
        from repro.harness.checkpoint import load_frontier

        meta = json.loads((seq_tree / "seq" / "frontier.json").read_text())
        assert meta["array"]["rows"] == 1024
        assert load_frontier(seq_tree / "seq")["succ"].shape == (17, 2048)
        assert run_doctor(seq_tree)["exit_code"] == 0

    def test_torn_words_refused_and_quarantined(self, seq_tree):
        from repro.harness.checkpoint import load_frontier

        array = seq_tree / "seq" / "frontier_succ.npy"
        words = np.load(array, mmap_mode="r+")
        words[16, 1023] ^= np.uint64(1)  # the last stamped word of the last row
        words.flush()
        del words
        with pytest.warns(UserWarning, match="does not match its metadata"):
            assert load_frontier(seq_tree / "seq") is None
        report = run_doctor(seq_tree)
        assert report["exit_code"] == 1
        assert not array.exists()
        assert run_doctor(seq_tree)["exit_code"] == 0

    def test_words_past_the_prefix_are_not_stamped(self, seq_tree):
        from repro.harness.checkpoint import load_frontier

        array = seq_tree / "seq" / "frontier_succ.npy"
        words = np.load(array, mmap_mode="r+")
        words[0, 1024] ^= np.uint64(1)  # row 0's first word past next_lo
        words.flush()
        del words
        assert load_frontier(seq_tree / "seq") is not None
        assert run_doctor(seq_tree)["exit_code"] == 0

    def test_row_by_row_frontier_named_and_quarantined(self, seq_tree):
        # The format before configuration chunks: next_row whole rows,
        # stamped over those rows.  The doctor names it as load_frontier
        # does instead of reading its stamp along the configuration axis.
        from repro.harness.checkpoint import ROW_BY_ROW_FRONTIER, load_frontier

        meta_path = seq_tree / "seq" / "frontier.json"
        meta = json.loads(meta_path.read_text())
        del meta["next_lo"]
        meta["next_row"] = 3
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="saved row by row"):
            load_frontier(seq_tree / "seq")
        report = run_doctor(seq_tree)
        assert report["exit_code"] == 1
        (check,) = [f for f in report["files"] if f["path"].endswith("frontier.json")]
        assert check["status"] == TRUNCATED
        assert check["detail"] == ROW_BY_ROW_FRONTIER
        assert not meta_path.exists()
        assert run_doctor(seq_tree)["exit_code"] == 0


class TestDoctorCLI:
    def test_exit_codes_and_json(self, run_tree):
        code, out = run_cli("doctor", str(run_tree))
        assert code == 0
        assert "consistent" in out
        with open(run_tree / "harness" / "journal.jsonl", "a") as fh:
            fh.write('{"ev": "finish"')
        code, out = run_cli("doctor", str(run_tree), "--json")
        assert code == 1
        report = json.loads(out)
        assert report["exit_code"] == 1
        code, _ = run_cli("doctor", str(run_tree))
        assert code == 0

    def test_no_repair_flag(self, run_tree):
        path = next((run_tree / "findings").glob("finding-*.json"))
        path.write_text("not json")
        code, out = run_cli("doctor", str(run_tree), "--no-repair")
        assert code == 2
        assert path.exists()
        code, _ = run_cli("doctor", str(run_tree))
        assert code == 1

    def test_missing_dir_is_usage_error(self):
        with pytest.raises(SystemExit):
            run_cli("doctor", "/no/such/dir")


class TestSqliteRecovery:
    def test_open_with_recovery_clean(self, tmp_path):
        idx, recovery = open_with_recovery(tmp_path / "db.sqlite")
        idx.close()
        assert recovery is None

    def test_garbage_file_moved_aside_and_rebuilt(self, run_tree):
        db = run_tree / "runs_index.sqlite"
        db.write_bytes(b"definitely not sqlite")
        idx, recovery = open_with_recovery(db, rebuild_from=[run_tree])
        with idx:
            assert recovery is not None
            assert "not a readable sqlite" in recovery["problem"]
            assert recovery["reindexed"]
            assert idx.list_runs()
        assert db.with_name("runs_index.sqlite.corrupt").exists()

    def test_newer_schema_moved_aside(self, tmp_path):
        db = tmp_path / "db.sqlite"
        conn = sqlite3.connect(db)
        conn.execute("PRAGMA user_version = 99")
        conn.execute("CREATE TABLE future (x)")
        conn.commit()
        conn.close()
        # Direct construction still refuses (the conservative default)...
        with pytest.raises(RuntimeError):
            RunIndex(db)
        # ...while recovery moves it aside and starts fresh.
        idx, recovery = open_with_recovery(db)
        idx.close()
        assert recovery is not None
        assert "schema v99" in recovery["problem"]
        assert db.with_name("db.sqlite.corrupt").exists()

    def test_cli_runs_list_recovers(self, run_tree, capsys):
        db = run_tree / "runs_index.sqlite"
        code, _ = run_cli("runs", "index", str(run_tree), "--db", str(db))
        assert code == 0
        db.write_bytes(b"garbage " * 100)
        code, out = run_cli("runs", "list", "--db", str(db))
        assert code == 0  # no raw sqlite3.DatabaseError traceback
        err = capsys.readouterr().err
        assert "moved the damaged database" in err
        # The rebuilt (empty) index works; re-ingesting restores rows.
        code, out = run_cli("runs", "index", str(run_tree), "--db", str(db))
        assert code == 0
        code, out = run_cli("runs", "list", "--db", str(db))
        assert "harness" in out
