"""Multiprocess sharded sweep backend with a supervised, self-healing pool.

Splits ``[start, 2**n)`` into contiguous shards, computes each shard in a
worker process with a serial kernel (any of the other backends), and
merges the results into the caller's successor array through
``multiprocessing.shared_memory`` buffers — zero-copy on the worker side,
one ``memcpy`` per shard on the parent side (which also works when the
parent array is a resumed disk-backed memmap).

Worker failure never changes an answer, only its latency (shards are
order-independent and recomputable — see :mod:`repro.perf.supervise`):

* every dispatched shard carries a :class:`~repro.perf.supervise.ShardLease`
  (holder pid, attempt count, stuck deadline); workers acknowledge each
  shard with a ``start`` message and ship per-shard metric snapshots, each
  worker on its own result pipe — no lock is shared between workers, so a
  worker killed mid-message cannot block its siblings (its pipe simply
  reads to EOF);
* the parent's wait loop reaps dead workers (``is_alive``/``exitcode``),
  returns their leased shards to the pending queue, SIGKILLs holders
  past their lease deadline, and respawns replacements up to a death
  budget (``REPRO_MAX_WORKER_DEATHS``, default ``max(4, 2*workers)``);
* workers catch kernel exceptions and ship structured
  ``("error", sid, ...)`` results instead of dying; a shard that fails
  ``max_shard_retries`` times (default 2, ``REPRO_MAX_SHARD_RETRIES``)
  across distinct workers is classified *poison* — the parent computes
  it inline with the serial inner backend, and if that also raises it
  surfaces a typed :class:`~repro.perf.supervise.ShardFailed` (never a
  hang, never a bare ``RuntimeError``);
* when the pool collapses (death budget exhausted) the sweep degrades
  gracefully: the remaining range is finished serially with a warning
  and a ``perf.process.degraded`` gauge, preserving exact
  governed-prefix accounting and ``next_lo`` resume semantics.

Governance stays honest across the process boundary:

* the parent consults the :class:`~repro.core.budget.Budget` before each
  shard dispatch and while waiting for results, and *charges* shards only
  as the contiguous completed prefix advances — so a trip returns exactly
  the resumable ``next_lo`` frontier the serial builders return, with
  identical deterministic accounting;
* a shared :class:`multiprocessing.Event` cancel flag is polled by every
  worker between chunks, so Ctrl-C / deadline trips wind the pool down
  cooperatively instead of leaving orphans (workers also ignore SIGINT —
  the parent owns the signal); a hung worker that never polls is bounded
  by the wind-down grace and then killed, so a deadline trip returns
  promptly even under ``worker-hang`` faults.

Workers are forked, so arbitrary rule objects (closures included) need no
pickling; the backend is unsupported where ``fork`` is unavailable.

Fault sites (:mod:`repro.harness.faults`): each worker probes
``perf.worker.w{wid}.dispatch`` on shard receipt,
``perf.worker.w{wid}.chunk`` before each chunk and
``perf.worker.w{wid}.premerge`` before shipping the result — arm them
with the ``worker-crash`` / ``worker-hang`` / ``worker-poison`` kinds to
chaos-test the pool.  The parent probes ``perf.process.fallback`` inside
the poison/degraded serial path.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import traceback
import warnings
from collections import deque
from multiprocessing import shared_memory
from multiprocessing.connection import wait

import numpy as np

from repro import obs
from repro.harness import faults
from repro.perf.base import CHUNK, BackendUnsupported, SweepBackend
from repro.perf.supervise import (
    ShardFailed,
    ShardLease,
    Supervisor,
    WorkerHandle,
    default_max_shard_retries,
    default_max_worker_deaths,
    default_shard_timeout_s,
)

__all__ = ["ProcessBackend", "DEFAULT_WORKERS_ENV", "default_workers"]

#: env var overriding the worker count (``CellularAutomaton(workers=...)``
#: and the CLI ``--workers`` flag take precedence)
DEFAULT_WORKERS_ENV = "REPRO_WORKERS"

#: seconds between budget/liveness checks while waiting on worker results
_POLL_S = 0.1

#: seconds a cancel/deadline wind-down waits for in-flight shards before
#: abandoning them (a hung worker never acknowledges the cancel Event;
#: this bounds "never hangs past the budget deadline")
_WINDDOWN_GRACE_S = 5.0

#: seconds the shutdown path waits per worker before SIGKILLing it
_SHUTDOWN_GRACE_S = 5.0


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else the CPU count.

    A non-numeric or ``< 1`` value raises a one-line ``ValueError`` (the
    CLI renders it as a usage error instead of an ``int()`` traceback).
    """
    env = os.environ.get(DEFAULT_WORKERS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{DEFAULT_WORKERS_ENV} must be a positive integer, "
                f"got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"{DEFAULT_WORKERS_ENV} must be >= 1, got {value}"
            )
        return value
    return max(1, os.cpu_count() or 1)


def _flush_snapshot() -> dict:
    """This worker's metric increments since the last flush."""
    snapshot = obs.REGISTRY.snapshot()
    obs.REGISTRY.reset()
    return snapshot


def _worker_main(wid, fill, task_q, conn, cancel, kernel=None) -> None:
    """Worker loop: shards in, per-shard completions + metric deltas out.

    ``fill(lo, hi)`` is the parent's successor-range callable, inherited by
    fork (rules never cross a pickle boundary); ``kernel`` is the counts
    kernel (:mod:`repro.perf.counts`) of a counts sweep, inherited the
    same way.  Results go out on ``conn``, this worker's own pipe, so no
    lock is shared with its siblings.  Kernel exceptions are caught and
    shipped as structured ``error`` results — a worker only dies from the
    outside (SIGKILL, OOM) or from a ``worker-crash`` fault.  Metrics are
    flushed alongside every shard completion, so an abnormal death loses
    at most the in-flight shard's increments.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The forked registry starts as a copy of the parent's counts; reset so
    # snapshots hold only this worker's own increments.
    obs.REGISTRY.reset()
    while True:
        task = task_q.get()
        if task is None:
            conn.send(("metrics", os.getpid(), _flush_snapshot()))
            return
        sid, lo, hi, shm_name = task
        pid = os.getpid()
        conn.send(("start", sid, pid))
        try:
            faults.inject(f"perf.worker.w{wid}.dispatch")
            # Forked workers share the parent's resource tracker, so
            # attaching here neither duplicates nor steals ownership.
            shm = shared_memory.SharedMemory(name=shm_name)
            try:
                ok = True
                if kernel is not None:
                    out = np.ndarray(
                        kernel.counts_slots, dtype=np.int64, buffer=shm.buf
                    )
                    # A re-dispatched shard reuses its original buffer:
                    # zero it so a dead worker's partial fold never
                    # double-counts.
                    out[:] = 0
                    chunk = kernel.chunk
                else:
                    out = np.ndarray(hi - lo, dtype=np.int64, buffer=shm.buf)
                    chunk = CHUNK
                for clo in range(lo, hi, chunk):
                    if cancel.is_set():
                        ok = False
                        break
                    faults.inject(f"perf.worker.w{wid}.chunk")
                    chi = min(clo + chunk, hi)
                    if kernel is not None:
                        kernel.merge(out, kernel.census_range(clo, chi))
                    else:
                        out[clo - lo : chi - lo] = fill(clo, chi)
                del out
            finally:
                shm.close()
            faults.inject(f"perf.worker.w{wid}.premerge")
        except Exception as exc:
            conn.send(
                (
                    "error",
                    sid,
                    pid,
                    repr(exc),
                    traceback.format_exc(),
                    _flush_snapshot(),
                )
            )
            continue
        conn.send(("done", sid, pid, ok, _flush_snapshot()))


def _receive(conns: list, timeout: float) -> list:
    """Messages from the result pipes in ``conns`` that are ready within
    ``timeout`` seconds, one per ready pipe.

    A pipe is removed from ``conns`` (and closed) only at its end of file:
    its worker has exited and every message it sent has been read.  A
    message torn by the writer's death reads as that end of file.
    """
    msgs = []
    for conn in wait(conns, timeout=timeout):
        try:
            msgs.append(conn.recv())
        except (EOFError, OSError):
            conns.remove(conn)
            conn.close()
    return msgs


class ProcessBackend(SweepBackend):
    """Shard whole-space sweeps across supervised forked worker processes."""

    name = "process"
    is_sharded = True

    @classmethod
    def supports(cls, ca) -> str | None:
        if "fork" not in mp.get_all_start_methods():  # pragma: no cover
            return "requires the fork start method (POSIX hosts)"
        return None

    def __init__(
        self,
        ca,
        inner: str = "auto",
        workers: int | None = None,
        *,
        max_shard_retries: int | None = None,
        max_worker_deaths: int | None = None,
        shard_timeout_s: float | None = None,
    ):
        super().__init__(ca)
        reason = self.supports(ca)
        if reason is not None:  # pragma: no cover - POSIX-only container
            raise BackendUnsupported(
                f"process backend cannot run {ca.describe()}: {reason}"
            )
        from repro.perf import resolve_serial_backend

        self._inner = resolve_serial_backend(ca, inner)
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.max_shard_retries = (
            max_shard_retries
            if max_shard_retries is not None
            else default_max_shard_retries()
        )
        if self.max_shard_retries < 1:
            raise ValueError(
                f"max_shard_retries must be >= 1, got {max_shard_retries}"
            )
        self.max_worker_deaths = (
            max_worker_deaths
            if max_worker_deaths is not None
            else default_max_worker_deaths(self.workers)
        )
        self.shard_timeout_s = (
            shard_timeout_s
            if shard_timeout_s is not None
            else default_shard_timeout_s()
        )

    def describe(self) -> str:
        return f"process[{self._inner.name} x{self.workers}]"

    # -- serial kernels (delegated) --------------------------------------------
    # Direct range calls (single chunks, small sweeps) skip the pool.

    def step_all_range(self, lo: int, hi: int) -> np.ndarray:
        return self._inner.step_all_range(lo, hi)

    def node_successors_range(self, i: int, lo: int, hi: int) -> np.ndarray:
        return self._inner.node_successors_range(i, lo, hi)

    def sweep_all_nodes_range(self, lo: int, hi: int, out: np.ndarray) -> None:
        self._inner.sweep_all_nodes_range(lo, hi, out)

    def transient_bytes(self) -> int:
        # every worker holds one chunk of inner scratch plus its shard's
        # shared int64 output buffer in flight
        return self.workers * (
            self._inner.transient_bytes() + 8 * self._shard_len()
        )

    # -- sharded governed sweep ------------------------------------------------

    def _shard_len(
        self,
        span: int | None = None,
        parts_per_worker: int = 4,
        align: int = CHUNK,
    ) -> int:
        """Shard size: ~4 shards per worker for load balance, ``align``-ed."""
        if span is None:
            span = 1 << self.ca.n
        per = span // (self.workers * parts_per_worker) or span
        return max(align, (per // align) * align)

    def governed_sweep(
        self,
        out: np.ndarray,
        budget,
        *,
        fill=None,
        start: int = 0,
        per_state: int = 0,
        kernel=None,
        total: int | None = None,
    ) -> tuple[int, str | None]:
        """Fill ``out[start:]`` with ``fill(lo, hi)``, sharded across the
        supervised pool.

        Returns ``(next_lo, reason)``: ``reason`` is None when the sweep
        completed, else the budget trip reason and ``next_lo`` the end of
        the contiguous completed-and-charged prefix — the honest resume
        point.  Workers inherit ``fill`` by fork and call it one ``CHUNK``
        at a time; any worker may compute any shard.

        Given a counts ``kernel`` (:mod:`repro.perf.counts`), the sweep
        shards the range ``[start, total)`` of that kernel instead: ``out``
        is then its counts accumulator, each shard ships a counts vector
        instead of a successor block, shards follow the kernel's
        ``shard_align`` / ``shards_per_worker``, and counts fold in shard
        order as the contiguous prefix advances — so ``next_lo`` keeps
        exactly the serial driver's resume semantics.  Shard admission
        projects each shard's own states as well, so a states cap trips
        at the same code the serial chunk loop trips at.

        Raises :class:`~repro.perf.supervise.ShardFailed` only when a
        poison shard *also* fails the serial inline fallback.
        """
        counts = kernel is not None
        if counts:
            align, parts = kernel.shard_align, kernel.shards_per_worker
            transient = self.workers * kernel.transient_bytes()
        else:
            align, parts = CHUNK, 4
            total = int(out.size)
            transient = self._inner.transient_bytes()
        if start >= total:
            return total, None
        shard_len = self._shard_len(
            total - start, parts_per_worker=parts, align=align
        )
        shards = [
            (lo, min(lo + shard_len, total))
            for lo in range(start, total, shard_len)
        ]
        #: per-shard counts vectors not yet folded into the prefix
        shard_counts: dict[int, np.ndarray] = {}

        # Start the shared-memory resource tracker *before* forking, so the
        # workers inherit it: their attaches then register as no-op
        # duplicates with the parent's tracker instead of each worker
        # spawning a private tracker that "cleans up" blocks it never owned.
        try:  # pragma: no cover - private but stable since 3.8
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:
            pass

        ctx = mp.get_context("fork")
        cancel = ctx.Event()
        nworkers = min(self.workers, len(shards))
        #: read ends of the workers' result pipes, until each reaches EOF
        conns: list = []
        inbox: deque = deque()  # received, not yet handled

        def _spawn(wid: int) -> WorkerHandle:
            task_q = ctx.SimpleQueue()
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, fill, task_q, writer, cancel, kernel),
                daemon=True,
            )
            proc.start()
            # The worker now holds the only write end, so its exit (or
            # death) reads as EOF here.
            writer.close()
            conns.append(reader)
            return WorkerHandle(wid, proc, task_q)

        supervisor = Supervisor(
            _spawn,
            workers=nworkers,
            max_worker_deaths=self.max_worker_deaths,
            lease_timeout_s=self.shard_timeout_s,
        )
        leases = {
            sid: ShardLease(sid, lo, hi) for sid, (lo, hi) in enumerate(shards)
        }

        with obs.span(
            "perf.process.sweep",
            mode="counts" if counts else "fill",
            total=total,
            start=start,
            shards=len(shards),
            workers=nworkers,
            inner=self._inner.name,
        ) as sweep_span:
            supervisor.start()

            pending: deque[int] = deque(range(len(shards)))
            inflight: dict[int, shared_memory.SharedMemory] = {}
            status: dict[int, bool] = {}
            next_merge = 0  # first shard not yet folded into the prefix
            uncharged = 0  # admitted states not yet charged to the budget
            reason: str | None = None
            degraded = False
            winddown_at: float | None = None

            def _advance_prefix() -> None:
                nonlocal next_merge, uncharged
                while next_merge < len(shards) and status.get(next_merge):
                    lo, hi = shards[next_merge]
                    budget.charge(states=hi - lo, bytes_=per_state * (hi - lo))
                    uncharged -= hi - lo
                    if counts:
                        # Fold counts only as the charged prefix advances,
                        # so a truncated accumulator matches what a serial
                        # resume from ``next_lo`` would rebuild exactly.
                        kernel.merge(out, shard_counts.pop(next_merge))
                    next_merge += 1

            def _admit(lo: int, hi: int) -> str | None:
                """Budget check before admitting shard ``[lo, hi)``.

                Projects every admitted-but-uncharged shard too, so
                dispatch-ahead trips at the same accounted footprint the
                serial chunk loop would (which checks with all prior
                chunks already charged).  Counts shards also project their
                own states, as the serial counts loop projects each chunk.
                """
                return budget.over(
                    pending_bytes=transient + per_state * (uncharged + hi - lo),
                    pending_states=uncharged + (hi - lo if counts else 0),
                )

            def _cleanup_shm(sid: int) -> None:
                shm = inflight.pop(sid, None)
                if shm is not None:
                    shm.close()
                    shm.unlink()
                    leases[sid].shm_name = None

            def _serial_shard(sid: int) -> None:
                """Compute shard ``sid`` inline with the serial inner backend.

                The last line of defence: raises :class:`ShardFailed` when
                the serial kernel fails too (with the full attempt history).
                """
                lo, hi = shards[sid]
                lease = leases[sid]
                with obs.span(
                    "perf.process.fallback", **lease.span_attrs()
                ):
                    try:
                        faults.inject("perf.process.fallback")
                        if counts:
                            shard_counts[sid] = kernel.census_range(lo, hi)
                        else:
                            out[lo:hi] = fill(lo, hi)
                    except Exception as exc:
                        lease.fail(None, repr(exc), traceback.format_exc())
                        raise ShardFailed(
                            lo, hi, lease.attempt + 1, lease.errors
                        ) from exc
                status[sid] = True
                _cleanup_shm(sid)
                _advance_prefix()

            def _settle_admitted(sid: int) -> None:
                """Resolve an admitted shard that lost its worker post-trip.

                Memory/state trips let admitted shards *finish* (the serial
                chunk loop would have completed them), so the parent
                computes them inline — keeping the frontier identical to
                the serial backend's.  Cancellation and deadline trips
                abandon them: they sit beyond the charged prefix, so the
                frontier stays honest either way.
                """
                if status.get(sid) is not None:
                    return
                if reason.startswith(("cancelled", "deadline")):
                    status[sid] = False
                    _cleanup_shm(sid)
                else:
                    _serial_shard(sid)

            def _fail_shard(sid: int, pid: int | None, error: str, tb: str) -> None:
                """One failed attempt: re-dispatch, or quarantine as poison."""
                if status.get(sid):
                    return  # a duplicate completion already landed the data
                lease = leases[sid]
                lease.fail(pid, error, tb)
                if reason is not None:
                    _settle_admitted(sid)
                    return
                if lease.failures >= self.max_shard_retries:
                    obs.inc("perf.process.poison_shards")
                    with obs.span(
                        "perf.process.poison", **lease.span_attrs()
                    ):
                        _serial_shard(sid)
                else:
                    obs.inc("perf.process.redispatches")
                    if sid not in pending:
                        pending.appendleft(sid)

            last_supervise = 0.0

            def _supervise() -> None:
                """Reap the dead, heal their shards, respawn, or degrade."""
                nonlocal degraded, last_supervise
                now = time.monotonic()
                if now - last_supervise < _POLL_S:
                    return
                last_supervise = now
                supervisor.kill_stuck(leases)
                orphans = supervisor.reap()
                delta = supervisor.deaths - deaths_seen[0]
                if delta:
                    obs.inc("perf.process.worker_deaths", delta)
                deaths_seen[0] = supervisor.deaths
                for sid, started in orphans:
                    if status.get(sid):
                        continue
                    if started:
                        lease = leases[sid]
                        _fail_shard(
                            sid,
                            lease.pid,
                            "worker died holding the lease",
                            "",
                        )
                    elif reason is None:
                        obs.inc("perf.process.redispatches")
                        if sid not in pending:
                            pending.appendleft(sid)
                    else:
                        _settle_admitted(sid)
                if reason is not None:
                    return
                remaining = len(pending) + len(
                    [s for s in inflight if not status.get(s)]
                )
                if remaining and not supervisor.collapsed:
                    spawned = supervisor.maybe_respawn(remaining)
                    if spawned:
                        obs.inc("perf.process.respawns", spawned)
                elif supervisor.collapsed and not degraded:
                    degraded = True
                    obs.set_gauge("perf.process.degraded", 1)
                    warnings.warn(
                        f"process backend: worker death budget exhausted "
                        f"({supervisor.deaths} deaths > "
                        f"{supervisor.max_worker_deaths}); finishing the "
                        f"remaining {remaining} shard(s) serially",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    cancel.set()  # stop any survivor mid-shard promptly

            deaths_seen = [0]

            try:
                while pending or inflight:
                    _supervise()

                    if degraded and reason is None:
                        # Pool collapsed: finish the pending range serially,
                        # with the same per-shard budget projection the
                        # dispatch path applies.
                        while pending and reason is None:
                            sid = pending[0]
                            lo, hi = shards[sid]
                            if sid not in inflight:
                                reason = _admit(lo, hi)
                                if reason is not None:
                                    break
                                uncharged += hi - lo
                            pending.popleft()
                            _serial_shard(sid)

                    while (
                        not degraded
                        and pending
                        and reason is None
                        and supervisor.has_capacity()
                    ):
                        sid = pending[0]
                        lo, hi = shards[sid]
                        lease = leases[sid]
                        if lease.shm_name is None:
                            # First dispatch: admit against the budget.
                            # Re-dispatches reuse the original admission
                            # and buffer.
                            reason = _admit(lo, hi)
                            if reason is not None:
                                break
                            shm = shared_memory.SharedMemory(
                                create=True,
                                size=8 * (
                                    kernel.counts_slots if counts else hi - lo
                                ),
                            )
                            inflight[sid] = shm
                            lease.shm_name = shm.name
                            uncharged += hi - lo
                        if not supervisor.assign(
                            lease, (sid, lo, hi, lease.shm_name)
                        ):  # pragma: no cover - capacity raced a death
                            break
                        pending.popleft()

                    if reason is not None:
                        # Memory/state trips only stop *dispatch* — shards
                        # already in flight were admitted by the projection
                        # and are allowed to finish (the serial loop would
                        # have completed those chunks too).  Cancellation
                        # and deadline trips interrupt the workers.
                        if reason.startswith(("cancelled", "deadline")):
                            cancel.set()
                            if winddown_at is None:
                                winddown_at = time.monotonic()
                        pending.clear()
                        owned = set(supervisor.outstanding())
                        for sid in list(inflight):
                            if sid not in owned and status.get(sid) is None:
                                # Admitted but no live holder: nothing else
                                # will ever complete it — settle it now.
                                _settle_admitted(sid)
                        if not inflight:
                            break
                        if (
                            winddown_at is not None
                            and time.monotonic() - winddown_at
                            > _WINDDOWN_GRACE_S
                        ):
                            # Hung workers never acknowledge the cancel:
                            # abandon their shards (beyond the charged
                            # prefix) so the trip returns promptly.
                            break

                    if not inbox:
                        inbox.extend(_receive(conns, _POLL_S))
                    if not inbox:
                        # Zero-state ping so an attached progress reporter
                        # keeps emitting heartbeats while shards run
                        # elsewhere and nothing is being charged here.
                        cb = getattr(budget, "on_charge", None)
                        if cb is not None:
                            cb(budget, 0)
                        if reason is None:
                            reason = budget.over()
                        continue

                    msg = inbox.popleft()
                    kind = msg[0]
                    if kind == "start":
                        _, sid, pid = msg
                        supervisor.note_started(leases[sid], pid)
                    elif kind == "done":
                        _, sid, pid, ok, snapshot = msg
                        obs.REGISTRY.merge_snapshot(snapshot)
                        supervisor.release(sid)
                        if status.get(sid):
                            continue  # duplicate completion after a re-dispatch
                        if sid in pending:
                            # A presumed-dead worker finished after all:
                            # accept the data (it is byte-identical by
                            # construction) instead of recomputing.
                            pending.remove(sid)
                        shm = inflight.get(sid)
                        if shm is None:
                            continue  # already cleaned up past a trip
                        lo, hi = shards[sid]
                        if ok:
                            # Merge even past a trip: the data is correct,
                            # and a memmap-backed resume benefits from it;
                            # only prefix shards are *charged* and counted
                            # in the frontier.
                            if counts:
                                # Copy before the shm segment is unlinked.
                                shard_counts[sid] = np.array(
                                    np.ndarray(
                                        kernel.counts_slots,
                                        dtype=np.int64,
                                        buffer=shm.buf,
                                    )
                                )
                            else:
                                out[lo:hi] = np.ndarray(
                                    hi - lo, dtype=np.int64, buffer=shm.buf
                                )
                            status[sid] = True
                            _cleanup_shm(sid)
                            _advance_prefix()
                        elif reason is None:
                            # The worker stopped at the cooperative cancel
                            # poll (pool-collapse wind-down): the shard is
                            # still owed — hand it back for completion.
                            if sid not in pending:
                                pending.append(sid)
                        else:
                            status[sid] = False
                            _cleanup_shm(sid)
                    elif kind == "error":
                        _, sid, pid, exc_repr, tb, snapshot = msg
                        obs.REGISTRY.merge_snapshot(snapshot)
                        supervisor.release(sid)
                        obs.inc("perf.process.shard_errors")
                        _fail_shard(sid, pid, exc_repr, tb)
                    elif kind == "metrics":
                        obs.REGISTRY.merge_snapshot(msg[2])
            finally:
                if reason is not None:
                    cancel.set()
                # Dead workers took their unflushed in-flight increments
                # with them; anything still alive after the shutdown grace
                # is killed and loses its final flush the same way.
                stuck = [
                    h
                    for h in supervisor.handles
                    if h.is_alive() and supervisor.load(h) > 0
                ]
                supervisor.shutdown(grace_s=_SHUTDOWN_GRACE_S)
                lost = supervisor.deaths + sum(
                    1 for h in stuck if h.process.exitcode != 0
                )
                if lost:
                    obs.inc("perf.process.snapshots_lost", lost)
                # Fold the final (and any straggler) snapshots in: every
                # worker has exited, so each pipe reads to its EOF.
                drain_until = time.monotonic() + _SHUTDOWN_GRACE_S
                while conns and time.monotonic() < drain_until:
                    inbox.extend(_receive(conns, _POLL_S))
                for conn in conns:
                    conn.close()
                for msg in inbox:
                    if msg[0] != "start":  # the rest end in a snapshot
                        obs.REGISTRY.merge_snapshot(msg[-1])
                for shm in inflight.values():
                    shm.close()
                    shm.unlink()
            next_lo = shards[next_merge][0] if next_merge < len(shards) else total
            sweep_span.set(
                next_lo=next_lo,
                truncated=reason,
                worker_deaths=supervisor.deaths,
                respawns=supervisor.respawns,
                degraded=degraded,
            )
            obs.inc("perf.process.sweeps")
            obs.inc("perf.process.shards_done", next_merge)
            return next_lo, reason
