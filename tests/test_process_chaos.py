"""Chaos matrix for the self-healing ``process`` backend.

The paper's order-independence results license transparent healing:
shards may be recomputed by any worker in any order and the merged sweep
is byte-identical.  These tests *earn* that guarantee — they SIGKILL
workers at every phase of a shard's life (dispatch receipt, mid-chunk,
pre-merge), poison shards deterministically, hang workers past their
lease deadline, and collapse the whole pool — and assert the sweep
either completes byte-identical to the serial ``numpy`` backend, returns
an honest budget-truncated frontier, or raises the typed
:class:`~repro.perf.supervise.ShardFailed`.  Never a hang, never a bare
``RuntimeError``.

Geometry: ``Ring(17)`` with 2 workers gives exactly two CHUNK-aligned
shards, so both workers hold work and the wid-targeted fault sites
(``perf.worker.w0.*`` hits the first spawned worker only, never its
respawned replacement) are deterministic.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time
import tracemalloc
import warnings
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro import obs
from repro.analysis.census import build_attractor_census
from repro.core.automaton import CellularAutomaton
from repro.core.budget import Budget
from repro.core.rules import MajorityRule
from repro.harness import faults
from repro.mc import McKernel, build_mc_estimate
from repro.perf import process as procmod
from repro.perf import supervise
from repro.perf.process import ProcessBackend, default_workers
from repro.perf.supervise import (
    ShardFailed,
    ShardLease,
    Supervisor,
    WorkerHandle,
    default_max_shard_retries,
    default_max_worker_deaths,
    default_shard_timeout_s,
)
from repro.spaces.line import Ring

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="process backend requires the fork start method",
)

N = 17  # exactly two CHUNK-aligned shards at workers=2


def make_ca(backend: str, workers: int | None = None) -> CellularAutomaton:
    return CellularAutomaton(
        Ring(N), MajorityRule(), backend=backend, workers=workers
    )


@pytest.fixture(scope="module")
def serial_ref() -> np.ndarray:
    return make_ca("numpy").step_all()


@pytest.fixture(autouse=True)
def clean_slate():
    """Disarm faults and zero the metrics registry around every test."""
    faults.clear_faults()
    obs.REGISTRY.reset()
    yield
    faults.clear_faults()
    obs.REGISTRY.reset()


def counters() -> dict:
    return obs.REGISTRY.snapshot().get("counters", {})


def gauges() -> dict:
    return obs.REGISTRY.snapshot().get("gauges", {})


class TestCrashMatrix:
    """SIGKILL each worker role at each phase: heal, stay byte-identical."""

    @pytest.mark.parametrize("wid", [0, 1])
    @pytest.mark.parametrize("phase", ["dispatch", "chunk", "premerge"])
    def test_single_worker_sigkill_heals(self, phase, wid, serial_ref):
        faults.install(f"perf.worker.w{wid}.{phase}:worker-crash:1.0:0:1")
        got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        snap = counters()
        assert snap.get("perf.process.worker_deaths", 0) >= 1
        assert snap.get("perf.process.redispatches", 0) >= 1
        assert snap.get("perf.process.shards_done", 0) == 2
        assert "perf.process.degraded" not in gauges()

    def test_respawn_replaces_dead_worker(self, serial_ref):
        faults.install("perf.worker.w0.chunk:worker-crash:1.0:0:1")
        got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        assert counters().get("perf.process.respawns", 0) >= 1

    def test_clean_run_records_no_failures(self, serial_ref):
        got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        snap = counters()
        assert snap.get("perf.process.worker_deaths", 0) == 0
        assert snap.get("perf.process.redispatches", 0) == 0
        assert snap.get("perf.process.snapshots_lost", 0) == 0


class TestPoison:
    """Deterministic kernel failure: retry budget, quarantine, fallback."""

    def test_poison_shard_falls_back_to_serial(self, serial_ref):
        # Every worker attempt raises; after max_shard_retries failures the
        # parent must recompute the shard inline and still succeed.
        faults.install("perf.worker.*:worker-poison:1.0:0")
        got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        snap = counters()
        assert snap.get("perf.process.poison_shards", 0) == 2
        assert snap.get("perf.process.shard_errors", 0) >= 2

    def test_poison_respects_retry_budget(self, monkeypatch, serial_ref):
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "3")
        faults.install("perf.worker.*:worker-poison:1.0:0")
        got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        # 2 shards x 3 failed attempts each before quarantine
        assert counters().get("perf.process.shard_errors", 0) == 6

    def test_poison_plus_fallback_failure_raises_shard_failed(self):
        faults.install(
            "perf.worker.*:worker-poison:1.0:0,"
            "perf.process.fallback:raise:1.0:0"
        )
        with pytest.raises(ShardFailed) as excinfo:
            make_ca("process", workers=2).step_all()
        err = excinfo.value
        assert err.hi - err.lo > 0
        # worker attempts + the serial fallback, never past the budget
        assert err.attempts == default_max_shard_retries() + 1
        assert "serial fallback" in str(err)
        assert err.errors and "FaultError" in err.errors[0][0]
        assert "FaultError" in err.traceback_text

    def test_transient_error_is_retried_without_poisoning(self, serial_ref):
        # One single-shot raise: the retry succeeds on another worker and
        # the poison path never engages.
        faults.install("perf.worker.w0.dispatch:worker-poison:1.0:0:1")
        got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        snap = counters()
        assert snap.get("perf.process.poison_shards", 0) == 0
        assert snap.get("perf.process.redispatches", 0) == 1


class TestDegradation:
    """Death budget exhausted: finish serially, flagged, still identical."""

    def test_pool_collapse_degrades_to_serial(self, monkeypatch, serial_ref):
        monkeypatch.setenv(supervise.MAX_WORKER_DEATHS_ENV, "1")
        # keep the retry budget out of the way so healing exercises the
        # collapse path, not poison quarantine
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "100")
        faults.install("perf.worker.*:worker-crash:1.0:0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        assert gauges().get("perf.process.degraded") == 1
        assert counters().get("perf.process.worker_deaths", 0) >= 2
        messages = [
            str(w.message)
            for w in caught
            if issubclass(w.category, RuntimeWarning)
        ]
        assert any("death budget exhausted" in m for m in messages)

    def test_degraded_sweep_keeps_budget_frontier(self, monkeypatch, serial_ref):
        # Collapse the pool *and* cap states below the full space: the
        # degraded serial completion must still trip honestly mid-way.
        monkeypatch.setenv(supervise.MAX_WORKER_DEATHS_ENV, "1")
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "100")
        faults.install("perf.worker.*:worker-crash:1.0:0")
        backend = ProcessBackend(make_ca("numpy"), workers=2)
        out = np.empty(1 << N, dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            next_lo, reason = backend.governed_sweep(
                out,
                Budget(max_states=1 << 16),
                fill=backend.step_all_range,
                per_state=8,
            )
        assert reason is not None and reason.startswith("states")
        assert 0 < next_lo < (1 << N)
        assert np.array_equal(out[:next_lo], serial_ref[:next_lo])


class TestHangs:
    """Stuck workers: lease deadlines and bounded deadline wind-down."""

    def test_stuck_worker_is_killed_and_shard_redispatched(
        self, monkeypatch, serial_ref
    ):
        monkeypatch.setenv(faults.HANG_ENV_VAR, "60")
        monkeypatch.setenv(supervise.SHARD_TIMEOUT_ENV, "1")
        faults.install("perf.worker.w0.chunk:worker-hang:1.0:0:1")
        start = time.monotonic()
        got = make_ca("process", workers=2).step_all()
        assert time.monotonic() - start < 30
        assert np.array_equal(got, serial_ref)
        snap = counters()
        assert snap.get("perf.process.worker_deaths", 0) >= 1
        assert snap.get("perf.process.redispatches", 0) >= 1

    def test_deadline_trip_is_bounded_with_hung_worker(
        self, monkeypatch, serial_ref
    ):
        # A hung worker never polls the cancel flag; the wind-down
        # grace bounds the trip anyway (never hangs past the deadline).
        monkeypatch.setenv(faults.HANG_ENV_VAR, "60")
        monkeypatch.setattr(procmod, "_WINDDOWN_GRACE_S", 0.5)
        monkeypatch.setattr(procmod, "_SHUTDOWN_GRACE_S", 0.5)
        faults.install("perf.worker.w0.chunk:worker-hang:1.0:0:1")
        backend = ProcessBackend(make_ca("numpy"), workers=2)
        out = np.empty(1 << N, dtype=np.int64)
        start = time.monotonic()
        next_lo, reason = backend.governed_sweep(
            out, Budget(wall_s=1.0), fill=backend.step_all_range, per_state=8
        )
        assert time.monotonic() - start < 20
        assert reason is not None and reason.startswith("deadline")
        assert np.array_equal(out[:next_lo], serial_ref[:next_lo])

    def test_memory_trip_lets_inflight_shards_finish(self, serial_ref):
        # The old pragma-no-cover trip-race path: a states trip between
        # the two shards must merge the in-flight shard and clean up its
        # shared memory (the finally sweep owns any leftovers).
        backend = ProcessBackend(make_ca("numpy"), workers=2)
        out = np.empty(1 << N, dtype=np.int64)
        next_lo, reason = backend.governed_sweep(
            out,
            Budget(max_states=1 << 16),
            fill=backend.step_all_range,
            per_state=8,
        )
        assert reason is not None and reason.startswith("states")
        assert next_lo == 1 << 16
        assert np.array_equal(out[:next_lo], serial_ref[:next_lo])


class TestSnapshots:
    """Worker metrics flush per shard; abnormal deaths are counted."""

    def test_crash_counts_lost_snapshot(self, serial_ref):
        faults.install("perf.worker.w0.chunk:worker-crash:1.0:0:1")
        got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        assert counters().get("perf.process.snapshots_lost", 0) == 1

    def test_collapse_counts_every_lost_snapshot(self, monkeypatch, serial_ref):
        monkeypatch.setenv(supervise.MAX_WORKER_DEATHS_ENV, "1")
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "100")
        faults.install("perf.worker.*:worker-crash:1.0:0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = make_ca("process", workers=2).step_all()
        assert np.array_equal(got, serial_ref)
        assert counters().get("perf.process.snapshots_lost", 0) == 2


class TestCountsChaos:
    """Counts shards (the census and Monte-Carlo path) heal like fills."""

    @pytest.fixture(scope="class")
    def census_ref(self):
        return build_attractor_census(make_ca("numpy")).value

    @staticmethod
    def process_census():
        partial = build_attractor_census(make_ca("process", workers=2))
        assert partial.complete
        return partial.value

    @pytest.mark.parametrize("phase", ["dispatch", "chunk", "premerge"])
    def test_worker_crash_heals(self, phase, census_ref):
        faults.install(f"perf.worker.w0.{phase}:worker-crash:1.0:0:1")
        assert self.process_census() == census_ref
        assert counters().get("perf.process.worker_deaths", 0) >= 1

    def test_poison_falls_back_to_serial(self, census_ref):
        faults.install("perf.worker.*:worker-poison:1.0:0")
        assert self.process_census() == census_ref
        assert counters().get("perf.process.poison_shards", 0) == 2

    def test_pool_collapse_degrades_to_serial(self, monkeypatch, census_ref):
        monkeypatch.setenv(supervise.MAX_WORKER_DEATHS_ENV, "1")
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "100")
        faults.install("perf.worker.*:worker-crash:1.0:0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert self.process_census() == census_ref
        assert gauges().get("perf.process.degraded") == 1

    def test_mc_chunk_crash_matches_serial(self, mc_seed):
        def kernel():
            return McKernel(MajorityRule(), 16, seed=mc_seed, lanes=256)

        serial = build_mc_estimate(kernel(), 2048)
        faults.install("perf.worker.w0.chunk:worker-crash:1.0:0:1")
        ca = CellularAutomaton(
            Ring(16), MajorityRule(), backend="process", workers=2
        )
        sharded = build_mc_estimate(kernel(), 2048, backend=ca.backend)
        assert sharded.complete and sharded.value == serial.value
        assert counters().get("perf.process.worker_deaths", 0) >= 1


class TestFallbackMemory:
    """The parent's fallback computes a shard one serial chunk at a time,
    so it holds the one chunk of inner scratch that admission projected,
    not a shard's worth (eight chunks at n = 22)."""

    @pytest.mark.parametrize("n", [20, 22])
    @pytest.mark.parametrize("mode", ["poison", "collapse"])
    def test_fallback_peak_within_projection(self, mode, n, monkeypatch):
        if mode == "collapse":
            monkeypatch.setenv(supervise.MAX_WORKER_DEATHS_ENV, "1")
            monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "100")
            faults.install("perf.worker.*:worker-crash:1.0:0")
        else:
            faults.install("perf.worker.*:worker-poison:1.0:0")
        ca = CellularAutomaton(Ring(n), MajorityRule(), backend="bitplane")
        backend = ProcessBackend(ca, workers=2)
        out = np.empty(1 << n, dtype=np.int64)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                swept = backend.governed_sweep(
                    out, Budget(), fill=backend.step_all_range
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert swept == (1 << n, None)
        np.testing.assert_array_equal(out, ca.step_all())
        if mode == "collapse":
            assert gauges().get("perf.process.degraded") == 1
        else:
            assert counters().get("perf.process.poison_shards", 0) == 8
        assert peak <= ca.backend.transient_bytes() + (256 << 10)

    def test_collapse_creates_segments_only_for_worker_shards(self, monkeypatch):
        # Ring(20) sweeps in 8 shards; both workers die on their first one
        # and the pool collapses, so the parent computes the other 6 inline
        # straight into ``out``, with no shared-memory segment of their own.
        monkeypatch.setenv(supervise.MAX_WORKER_DEATHS_ENV, "1")
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "100")
        faults.install("perf.worker.*:worker-crash:1.0:0")
        created = []
        real = procmod.shared_memory.SharedMemory

        def counting(*args, **kwargs):
            if kwargs.get("create"):
                created.append(kwargs["size"])
            return real(*args, **kwargs)

        monkeypatch.setattr(procmod.shared_memory, "SharedMemory", counting)
        ca = CellularAutomaton(Ring(20), MajorityRule(), backend="bitplane")
        backend = ProcessBackend(ca, workers=2)
        out = np.empty(1 << 20, dtype=np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            swept = backend.governed_sweep(
                out, Budget(), fill=backend.step_all_range
            )
        assert swept == (1 << 20, None)
        np.testing.assert_array_equal(out, ca.step_all())
        assert gauges().get("perf.process.degraded") == 1
        assert 1 <= len(created) <= backend.workers


class TestResultPipes:
    """Each worker writes its own pipe: one death never blocks the rest."""

    def test_writer_killed_mid_message_leaves_other_pipes_live(self):
        ctx = mp.get_context("fork")
        big = b"x" * (1 << 20)  # far past the pipe buffer: send blocks

        def writer(conn, tag):
            conn.send((tag, big))
            conn.send((tag, "tail"))

        conns, procs = [], []
        for tag in range(3):
            reader, end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=writer, args=(end, tag), daemon=True)
            proc.start()
            end.close()
            conns.append(reader)
            procs.append(proc)
        # Nobody reads yet, so writer 0 is stuck inside its 1 MiB send.
        assert wait([conns[0]], timeout=10)
        os.kill(procs[0].pid, signal.SIGKILL)
        procs[0].join(10)
        assert procs[0].exitcode == -signal.SIGKILL
        got = []
        deadline = time.monotonic() + 30
        while conns and time.monotonic() < deadline:
            got.extend(procmod._receive(conns, 0.1))
        assert conns == []  # every pipe read to EOF, the torn one too
        assert sorted(got, key=repr) == sorted(
            [(1, big), (1, "tail"), (2, big), (2, "tail")], key=repr
        )
        for proc in procs[1:]:
            proc.join(10)
            assert proc.exitcode == 0


class TestNoLockLeftHeld:
    """A worker SIGKILLed at any instant leaves nothing the parent waits on."""

    def test_reap_returns_shard_of_worker_killed_while_waiting(self):
        ctx = mp.get_context("fork")
        cancel = ctx.RawValue("b", 0)

        def spawn(wid: int) -> WorkerHandle:
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=procmod._worker_main,
                args=(wid, None, child_conn, cancel, None, np.int64),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            return WorkerHandle(wid, proc, conn)

        sup = Supervisor(spawn, workers=1, max_worker_deaths=4)
        sup.start()
        handle = sup.handles[0]
        try:
            time.sleep(0.5)  # the worker is now blocked reading its next task
            os.kill(handle.pid, signal.SIGSTOP)
            assert sup.assign(ShardLease(0, 0, 1), (0, 0, 1, "unused"))
            os.kill(handle.pid, signal.SIGKILL)
            handle.process.join(10)
            assert not handle.is_alive()
            reaped: list = []
            thread = threading.Thread(
                target=lambda: reaped.append(sup.reap()), daemon=True
            )
            thread.start()
            thread.join(5)
            assert not thread.is_alive(), "reap() blocked on the dead worker"
            assert reaped == [[0]]
        finally:
            handle.process.kill()
            handle.conn.close()


class TestKnobValidation:
    """Env/CLI knobs fail as one-line usage errors, not tracebacks."""

    def test_workers_env_non_numeric(self, monkeypatch):
        monkeypatch.setenv(procmod.DEFAULT_WORKERS_ENV, "two")
        with pytest.raises(ValueError, match="positive integer"):
            default_workers()

    def test_workers_env_nonpositive(self, monkeypatch):
        monkeypatch.setenv(procmod.DEFAULT_WORKERS_ENV, "0")
        with pytest.raises(ValueError, match=">= 1"):
            default_workers()

    def test_workers_env_valid(self, monkeypatch):
        monkeypatch.setenv(procmod.DEFAULT_WORKERS_ENV, " 3 ")
        assert default_workers() == 3

    def test_max_shard_retries_env(self, monkeypatch):
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "5")
        assert default_max_shard_retries() == 5
        monkeypatch.setenv(supervise.MAX_SHARD_RETRIES_ENV, "zero")
        with pytest.raises(ValueError, match="positive integer"):
            default_max_shard_retries()

    def test_max_worker_deaths_default_scales(self, monkeypatch):
        monkeypatch.delenv(supervise.MAX_WORKER_DEATHS_ENV, raising=False)
        assert default_max_worker_deaths(1) == 4
        assert default_max_worker_deaths(8) == 16

    def test_shard_timeout_env(self, monkeypatch):
        monkeypatch.setenv(supervise.SHARD_TIMEOUT_ENV, "0")
        assert default_shard_timeout_s() == 0.0
        monkeypatch.setenv(supervise.SHARD_TIMEOUT_ENV, "-1")
        with pytest.raises(ValueError, match=">= 0"):
            default_shard_timeout_s()
        monkeypatch.setenv(supervise.SHARD_TIMEOUT_ENV, "soon")
        with pytest.raises(ValueError, match="number of seconds"):
            default_shard_timeout_s()

    def test_cli_workers_env_is_one_line_error(self, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(procmod.DEFAULT_WORKERS_ENV, "banana")
        with pytest.raises(SystemExit) as excinfo:
            main(["phase-space", "--n", "4"])
        assert "REPRO_WORKERS must be a positive integer" in str(excinfo.value)

    def test_cli_max_shard_retries_flag_validated(self, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv(supervise.MAX_SHARD_RETRIES_ENV, raising=False)
        with pytest.raises(SystemExit) as excinfo:
            main(["phase-space", "--n", "4", "--max-shard-retries", "0"])
        assert str(excinfo.value) == "--max-shard-retries must be >= 1, got 0"

    def test_cli_max_shard_retries_flag_threads_env(self, monkeypatch):
        import io

        from repro.cli import main

        monkeypatch.delenv(supervise.MAX_SHARD_RETRIES_ENV, raising=False)
        code = main(
            ["phase-space", "--n", "4", "--max-shard-retries", "5"],
            out=io.StringIO(),
        )
        assert code == 0
        assert os.environ.get(supervise.MAX_SHARD_RETRIES_ENV) == "5"
        monkeypatch.delenv(supervise.MAX_SHARD_RETRIES_ENV, raising=False)


class _FakeProcess:
    def __init__(self, pid: int):
        self.pid = pid
        self.exitcode = None
        self._alive = True

    def is_alive(self) -> bool:
        return self._alive

    def join(self, timeout=None) -> None:
        pass

    def kill(self) -> None:
        self._alive = False
        self.exitcode = -9

    def die(self, exitcode: int = -9) -> None:
        self._alive = False
        self.exitcode = exitcode


class _FakeConn:
    def __init__(self):
        self.sent: list = []

    def send(self, item) -> None:
        self.sent.append(item)


class TestSupervisorUnit:
    """Pool mechanics against fake processes — no forking, microseconds."""

    @staticmethod
    def make_supervisor(workers=2, max_deaths=4, timeout=300.0, kills=None):
        def spawn(wid: int) -> WorkerHandle:
            return WorkerHandle(wid, _FakeProcess(1000 + wid), _FakeConn())

        sup = Supervisor(
            spawn,
            workers=workers,
            max_worker_deaths=max_deaths,
            lease_timeout_s=timeout,
            clock=lambda: 0.0,
            kill=(lambda pid, sig: kills.append(pid))
            if kills is not None
            else (lambda pid, sig: None),
        )
        sup.start()
        return sup

    def test_assign_balances_load(self):
        sup = self.make_supervisor()
        l0, l1 = ShardLease(0, 0, 10), ShardLease(1, 10, 20)
        assert sup.assign(l0, ("t0",)) and sup.assign(l1, ("t1",))
        assert sup.owner_pid(0) != sup.owner_pid(1)
        assert l0.attempt == 1 and l0.pid == sup.owner_pid(0)
        assert [h.conn.sent for h in sup.handles] == [[("t0",)], [("t1",)]]

    def test_assign_prefers_untried_worker(self):
        sup = self.make_supervisor()
        lease = ShardLease(0, 0, 10)
        lease.fail(1000, "boom")  # wid 0's pid already failed this shard
        assert sup.assign(lease, ("t0",))
        assert sup.owner_pid(0) == 1001

    def test_capacity_is_one_shard_per_worker(self):
        sup = self.make_supervisor(workers=1)
        assert sup.assign(ShardLease(0, 0, 1), ("t0",))
        assert not sup.has_capacity()
        assert not sup.assign(ShardLease(1, 1, 2), ("t1",))
        assert sup.release(0, sup.handles[0].pid)
        assert sup.has_capacity()

    def test_reap_never_double_reports_unconsumed_tasks(self):
        sup = self.make_supervisor(workers=2)
        assert sup.assign(ShardLease(0, 0, 1), (0, "t"))
        sup.handles[0].process.die()
        sup.handles[1].process.die()  # idle: holds nothing to return
        assert sup.reap() == [0]
        assert sup.reap() == []
        assert sup.deaths == 2
        assert sup.outstanding() == []

    def test_late_reply_from_reaped_worker_keeps_new_holder(self):
        sup = self.make_supervisor(workers=2)
        a, b = sup.handles
        lease = ShardLease(0, 0, 1)
        assert sup.assign(lease, (0, "t"))
        assert sup.owner_pid(0) == a.pid
        a.process.die()  # its ``done`` is still unread in the pipe
        assert sup.reap() == [0]
        lease.fail(a.pid, "worker died holding the lease")
        assert sup.assign(lease, (0, "t"))
        assert not sup.release(0, a.pid)  # the late ``done`` frees nobody
        assert sup.owner_pid(0) == b.pid
        assert sup.outstanding() == [0]
        assert not sup.has_capacity()
        assert sup.release(0, b.pid)
        assert sup.outstanding() == []

    def test_collapse_stops_respawns(self):
        sup = self.make_supervisor(workers=2, max_deaths=1)
        for handle in list(sup.handles):
            handle.process.die()
        sup.reap()
        assert sup.collapsed
        assert sup.maybe_respawn(10) == 0
        assert sup.live_handles() == []

    def test_respawn_gets_fresh_wid(self):
        sup = self.make_supervisor(workers=2, max_deaths=10)
        sup.handles[0].process.die()
        sup.reap()
        assert sup.maybe_respawn(10) == 1
        assert sorted(h.wid for h in sup.handles) == [1, 2]
        assert sup.respawns == 1

    def test_kill_stuck_targets_expired_leases_only(self):
        kills: list[int] = []
        now = [0.0]
        sup = Supervisor(
            lambda wid: WorkerHandle(wid, _FakeProcess(1000 + wid), _FakeConn()),
            workers=2,
            max_worker_deaths=4,
            lease_timeout_s=5.0,
            clock=lambda: now[0],
            kill=lambda pid, sig: kills.append(pid),
        )
        sup.start()
        fresh, stale = ShardLease(0, 0, 1), ShardLease(1, 1, 2)
        assert sup.assign(stale, (1, "t"))
        now[0] = 10.0
        assert sup.assign(fresh, (0, "t"))
        assert sup.kill_stuck({0: fresh, 1: stale}) == [
            h.wid for h in sup.handles if h.pid == sup.owner_pid(1)
        ]
        assert kills == [sup.owner_pid(1)]

    def test_zero_timeout_disables_deadlines(self):
        sup = self.make_supervisor(timeout=0.0)
        lease = ShardLease(0, 0, 1)
        assert sup.assign(lease, (0, "t"))
        assert lease.deadline is None
        assert sup.kill_stuck({0: lease}) == []

    def test_shutdown_sends_sentinels_then_kills_stragglers(self):
        sup = self.make_supervisor(workers=2)
        sup.shutdown(grace_s=0.0)
        for handle in sup.handles:
            assert handle.sentinel_sent and handle.conn.sent == [None]
            assert not handle.is_alive()  # fake join never exits: killed


class TestShardFailedType:
    def test_message_and_fields(self):
        err = ShardFailed(0, 65536, 3, [("ValueError('x')", "tb-text")])
        assert err.lo == 0 and err.hi == 65536 and err.attempts == 3
        assert isinstance(err, RuntimeError)
        assert "failed 3 attempt(s)" in str(err)
        assert err.traceback_text == "tb-text"

    def test_empty_history_defaults(self):
        err = ShardFailed(5, 6, 1)
        assert "worker died" in str(err)
        assert err.traceback_text == ""
