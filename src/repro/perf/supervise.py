"""Worker supervision for the sharded ``process`` backend.

The paper's order-independence results (Macauley–McCammond; PAPERS.md)
license a strong operational guarantee: shards of a whole-space sweep
may be recomputed and merged in *any* order by *any* worker and the
result is byte-identical.  Worker failure therefore must never change an
answer — only its latency.  This module holds the mechanism that turns
that license into behaviour:

* every dispatched shard carries a :class:`ShardLease` — which worker
  holds it (pid), how many times it has been attempted, which workers
  already failed it, and a deadline after which the holder is presumed
  stuck;
* a :class:`Supervisor` owns the worker pool, one shard per worker at
  most: it hands each lease to an idle live worker (avoiding workers
  that already failed the shard) over that worker's own pipe, stamps the
  holder and arms the deadline at dispatch, watches liveness via
  ``Process.is_alive()``/``exitcode``, reaps dead workers (each one's
  shard is a failed attempt), SIGKILLs past-deadline holders, and
  respawns replacements up to a configurable *death budget*;
* a shard that keeps failing is classified **poison** and quarantined:
  the parent recomputes it inline with the serial inner backend, and if
  that also raises, surfaces a typed :class:`ShardFailed` — never a
  hang, never a bare ``RuntimeError``.

The pool shares no lock with its workers, so a worker SIGKILLed at any
instant leaves nothing held that the parent must later take.

The dispatch policy (budgets, prefix charging, merging) stays in
:mod:`repro.perf.process`; this module is pure pool mechanics so later
scale-out layers (streaming Monte-Carlo, atlas fill) can reuse it.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

__all__ = [
    "DEFAULT_MAX_SHARD_RETRIES",
    "DEFAULT_SHARD_TIMEOUT_S",
    "MAX_SHARD_RETRIES_ENV",
    "MAX_WORKER_DEATHS_ENV",
    "SHARD_TIMEOUT_ENV",
    "ShardFailed",
    "ShardLease",
    "WorkerHandle",
    "Supervisor",
    "default_max_shard_retries",
    "default_max_worker_deaths",
    "default_shard_timeout_s",
]

#: a shard that fails this many attempts (across distinct workers when
#: possible) is classified poison and recomputed inline by the parent
DEFAULT_MAX_SHARD_RETRIES = 2

#: seconds a worker may hold one shard lease before the parent presumes
#: it stuck and SIGKILLs it (the shard is then re-dispatched)
DEFAULT_SHARD_TIMEOUT_S = 300.0

MAX_SHARD_RETRIES_ENV = "REPRO_MAX_SHARD_RETRIES"
MAX_WORKER_DEATHS_ENV = "REPRO_MAX_WORKER_DEATHS"
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT_S"


def _env_positive_int(var: str, fallback: int) -> int:
    raw = os.environ.get(var, "").strip()
    if not raw:
        return fallback
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{var} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{var} must be >= 1, got {value}")
    return value


def default_max_shard_retries() -> int:
    """Failed attempts before a shard is poison: env var, else 2."""
    return _env_positive_int(MAX_SHARD_RETRIES_ENV, DEFAULT_MAX_SHARD_RETRIES)


def default_max_worker_deaths(workers: int) -> int:
    """Death budget for one sweep: env var, else ``max(4, 2 * workers)``.

    Past this many reaped workers the pool is considered collapsed and
    the sweep degrades to serial completion instead of respawning.
    """
    return _env_positive_int(MAX_WORKER_DEATHS_ENV, max(4, 2 * workers))


def default_shard_timeout_s() -> float:
    """Lease deadline in seconds: env var, else 300 (``0`` disables)."""
    raw = os.environ.get(SHARD_TIMEOUT_ENV, "").strip()
    if not raw:
        return DEFAULT_SHARD_TIMEOUT_S
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(
            f"{SHARD_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    if value < 0:
        raise ValueError(f"{SHARD_TIMEOUT_ENV} must be >= 0, got {value:g}")
    return value


class ShardFailed(RuntimeError):
    """A shard failed every worker attempt *and* the serial fallback.

    Carries the shard range, the attempt history and the original
    traceback so the failure is actionable without re-running — the
    typed terminal error of the self-healing layer (a sweep either
    completes, returns an honest budget-truncated prefix, or raises
    this; it never hangs and never loses the failure context).
    """

    def __init__(
        self,
        lo: int,
        hi: int,
        attempts: int,
        errors: list[tuple[str, str]] | None = None,
    ):
        self.lo = int(lo)
        self.hi = int(hi)
        self.attempts = int(attempts)
        self.errors = list(errors or [])
        last = self.errors[-1][0] if self.errors else "worker died"
        super().__init__(
            f"shard [{lo}, {hi}) failed {attempts} attempt(s) and the "
            f"serial fallback; last error: {last}"
        )

    @property
    def traceback_text(self) -> str:
        """The original (first) failure's traceback, if one was captured."""
        for _, tb in self.errors:
            if tb:
                return tb
        return ""


@dataclass
class ShardLease:
    """One shard's dispatch state: holder, attempts, deadline, history."""

    sid: int
    lo: int
    hi: int
    pid: int | None = None  #: current holder, stamped at dispatch
    attempt: int = 0  #: dispatches so far (includes the in-flight one)
    failures: int = 0  #: failed attempts (kernel error or holder death)
    tried_pids: set = field(default_factory=set)  #: workers that failed it
    deadline: float | None = None
    errors: list = field(default_factory=list)  #: (exc_repr, traceback) per failure

    def fail(self, pid: int | None, error: str, tb: str = "") -> None:
        """Record one failed attempt and release the holder."""
        self.failures += 1
        if pid is not None:
            self.tried_pids.add(int(pid))
        self.errors.append((error, tb))
        self.pid = None
        self.deadline = None

    def span_attrs(self) -> dict:
        """Lease fields worth annotating on obs spans/events."""
        return {
            "sid": self.sid,
            "lo": self.lo,
            "hi": self.hi,
            "attempt": self.attempt,
            "failures": self.failures,
            "pid": self.pid,
        }


@dataclass
class WorkerHandle:
    """One pool worker: its process, its pipe, and the shard it holds.

    ``conn`` is the parent's end of the worker's one duplex pipe: tasks
    and the ``None`` sentinel go down it, the worker's ``done`` /
    ``error`` / ``metrics`` messages come back up.  ``sid`` is the one
    shard the worker holds, if any.  ``wid`` is a monotonically
    increasing spawn index — replacement workers get fresh wids, which is
    what lets a fault plan target "the first worker" (``perf.worker.w0.*``)
    without also hitting the respawned replacement.
    """

    wid: int
    process: object  #: multiprocessing.Process
    conn: object  #: multiprocessing.connection.Connection (parent end)
    sid: int | None = None
    sentinel_sent: bool = False

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()


class Supervisor:
    """Owns the worker pool: assignment, liveness, reaping, respawn.

    ``spawn`` is a callable ``spawn(wid) -> WorkerHandle`` returning a
    *started* worker.  The supervisor never touches shared memory or the
    budget — it only knows which worker holds which shard and whether
    each worker is alive.
    """

    def __init__(
        self,
        spawn,
        *,
        workers: int,
        max_worker_deaths: int,
        lease_timeout_s: float = DEFAULT_SHARD_TIMEOUT_S,
        clock=time.monotonic,
        kill=os.kill,
    ):
        self._spawn = spawn
        self.target = int(workers)
        self.max_worker_deaths = int(max_worker_deaths)
        self.lease_timeout_s = float(lease_timeout_s)
        self._clock = clock
        self._kill = kill
        self.handles: list[WorkerHandle] = []
        self._next_wid = 0
        self.deaths = 0
        self.respawns = 0

    # -- pool lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn the initial pool of ``target`` workers."""
        for _ in range(self.target):
            self._spawn_one()

    def _spawn_one(self) -> WorkerHandle:
        handle = self._spawn(self._next_wid)
        self._next_wid += 1
        self.handles.append(handle)
        return handle

    @property
    def collapsed(self) -> bool:
        """True once the death budget is exhausted (stop respawning)."""
        return self.deaths > self.max_worker_deaths

    def live_handles(self) -> list[WorkerHandle]:
        return [h for h in self.handles if h.is_alive()]

    # -- lease assignment ------------------------------------------------------

    def _idle(self) -> list[WorkerHandle]:
        return [h for h in self.live_handles() if h.sid is None]

    def has_capacity(self) -> bool:
        """True when some live worker holds no shard."""
        return bool(self._idle())

    def assign(self, lease: ShardLease, task) -> bool:
        """Send ``task`` to an idle live worker; False if there is none.

        Prefers workers that have not already failed this shard
        (``lease.tried_pids``) so retries land on *distinct* workers
        whenever the pool allows it.  Stamps the holder and arms the
        stuck deadline (the worker was idle, so it starts at once).
        """
        idle = self._idle()
        if not idle:
            return False
        handle = min(idle, key=lambda h: (h.pid in lease.tried_pids, h.wid))
        lease.attempt += 1
        lease.pid = handle.pid
        timeout_s = self.lease_timeout_s
        lease.deadline = self._clock() + timeout_s if timeout_s > 0 else None
        handle.sid = lease.sid
        try:
            handle.conn.send(task)
        except OSError:
            pass  # it died since the liveness check: reap returns the shard
        return True

    def release(self, sid: int, pid: int) -> bool:
        """Free worker ``pid`` of shard ``sid`` after its done/error reply.

        False when ``pid`` no longer holds the shard — it was reaped, and
        the shard was failed and perhaps re-dispatched, so its late reply
        must not free the new holder.
        """
        for handle in self.handles:
            if handle.sid == sid and handle.pid == pid:
                handle.sid = None
                return True
        return False

    def owner_pid(self, sid: int) -> int | None:
        for handle in self.handles:
            if handle.sid == sid:
                return handle.pid
        return None

    def outstanding(self) -> list[int]:
        """Shard ids currently held by live workers."""
        return [h.sid for h in self.live_handles() if h.sid is not None]

    # -- supervision -----------------------------------------------------------

    def kill_stuck(self, leases: dict[int, ShardLease]) -> list[int]:
        """SIGKILL workers holding a lease past its deadline.

        Returns the wids killed; the dead workers are collected by the
        next :meth:`reap` pass, which returns their shards.
        """
        now = self._clock()
        killed: list[int] = []
        for handle in self.live_handles():
            lease = leases.get(handle.sid)
            if lease is None or lease.deadline is None or now < lease.deadline:
                continue
            try:
                self._kill(handle.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # pragma: no cover
                pass  # already gone — reap will pick it up
            killed.append(handle.wid)
        return killed

    def reap(self) -> list[int]:
        """Collect dead workers; return the shard each one held.

        Every returned shard is a failed attempt: its worker died holding
        it.  Each reaped worker increments the death count toward the
        budget.
        """
        orphans: list[int] = []
        for handle in list(self.handles):
            if handle.is_alive() or handle.sentinel_sent:
                continue
            handle.process.join(timeout=0)
            self.handles.remove(handle)
            self.deaths += 1
            if handle.sid is not None:
                orphans.append(handle.sid)
        return orphans

    def maybe_respawn(self, wanted: int) -> int:
        """Top the pool back up to ``min(target, wanted)`` live workers.

        Respawning stops once the death budget is exhausted; returns the
        number of workers spawned.
        """
        if self.collapsed:
            return 0
        spawned = 0
        while len(self.live_handles()) < min(self.target, wanted):
            self._spawn_one()
            self.respawns += 1
            spawned += 1
        return spawned

    # -- shutdown --------------------------------------------------------------

    def shutdown(self, grace_s: float = 5.0) -> None:
        """Wind the pool down: sentinels, a bounded join, then SIGKILL.

        Safe against stuck workers — anything still alive after the
        grace period is killed outright (its metrics snapshot is lost,
        which the caller accounts for before calling this).
        """
        for handle in self.handles:
            if handle.is_alive() and not handle.sentinel_sent:
                try:
                    handle.conn.send(None)
                    handle.sentinel_sent = True
                except OSError:  # pragma: no cover - it died meanwhile
                    pass
        for handle in self.handles:
            handle.process.join(timeout=grace_s)
        for handle in self.handles:
            if handle.is_alive():
                handle.process.kill()
                handle.process.join(timeout=1.0)
