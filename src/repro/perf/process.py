"""Multiprocess sharded sweep backend with a supervised, self-healing pool.

Splits ``[start, 2**n)`` (or a counts kernel's range) into contiguous
shards, computes each in a worker process with a serial kernel's chunk
loop, and merges the results into the caller's output (flip words,
successors or counts) through ``multiprocessing.shared_memory`` buffers
— zero-copy on the worker side, one ``memcpy`` per shard on the parent
side (which also works when the parent array is a resumed memmap).

Worker failure never changes an answer, only its latency (shards are
order-independent and recomputable — see :mod:`repro.perf.supervise`):

* each worker holds at most one shard, and talks to the parent over one
  duplex pipe of its own: the shard's task goes down, its ``done`` /
  ``error`` reply with a metric snapshot comes back up.  No lock is
  shared with a worker, so one killed at any instant — mid-message
  included — blocks neither the parent nor its siblings (its pipe simply
  reads to EOF);
* every dispatched shard carries a :class:`~repro.perf.supervise.ShardLease`
  (holder pid, attempt count, stuck deadline armed at dispatch);
* the parent's wait loop reaps dead workers (``is_alive``/``exitcode``),
  fails the shard each one held and returns it to the pending queue,
  SIGKILLs holders past their lease deadline, and respawns replacements
  up to a death budget (``REPRO_MAX_WORKER_DEATHS``, default
  ``max(4, 2*workers)``);
* workers catch kernel exceptions and ship structured
  ``("error", sid, ...)`` results instead of dying; a shard that fails
  ``max_shard_retries`` times (default 2, ``REPRO_MAX_SHARD_RETRIES``)
  across distinct workers is classified *poison* — the parent computes
  it inline with the workers' chunk loop, and if that also raises it
  surfaces a typed :class:`~repro.perf.supervise.ShardFailed` (never a
  hang, never a bare ``RuntimeError``);
* when the pool collapses (death budget exhausted) the sweep degrades
  gracefully: the remaining range is finished serially with a warning
  and a ``perf.process.degraded`` gauge, preserving exact
  governed-prefix accounting and ``next_lo`` resume semantics.

Governance stays honest across the process boundary:

* the parent admits the serial loop's chunks in order, asking the
  :class:`~repro.core.budget.Budget` the serial loop's question (its one
  chunk of scratch) with every admitted-but-uncharged state projected,
  and *charges* shards only as the contiguous completed prefix advances
  — so a trip returns the serial loop's ``next_lo`` frontier and reason;
* a shared cancel byte (``RawValue``, no lock) is polled by every worker
  between chunks, so Ctrl-C / deadline trips wind the pool down
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

import math
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
from repro.perf.base import CHUNK, BackendUnsupported, SweepBackend, sweep_entries
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
#: abandoning them (a hung worker never polls the cancel flag; this
#: bounds "never hangs past the budget deadline")
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


def _compute_shard(out, lo, hi, fill, kernel, cancel=None, site=None) -> bool:
    """Compute ``[lo, hi)`` into ``out`` one serial chunk at a time: fill
    each ``CHUNK`` into ``out``, whose entries start at ``lo``, or fold a
    counts ``kernel``'s counts of each ``kernel.chunk`` into ``out``.

    The pool's one shard body: a worker runs it into its shard's segment,
    polling its ``cancel`` byte (set, it stops and returns False) and
    probing its fault ``site`` before each chunk; the parent's fallback
    runs it into the caller's output.
    """
    chunk = CHUNK if kernel is None else kernel.chunk
    for clo in range(lo, hi, chunk):
        if cancel is not None and cancel.value:
            return False
        if site is not None:
            faults.inject(site)
        chi = min(clo + chunk, hi)
        if kernel is None:
            out[..., sweep_entries(out.dtype, clo - lo, chi - lo)] = fill(clo, chi)
        else:
            kernel.merge(out, kernel.census_range(clo, chi))
    return True


def _worker_main(wid, fill, conn, cancel, kernel, dtype, lead=()) -> None:
    """Worker loop: shards in, per-shard completions + metric deltas out.

    ``fill(lo, hi)`` is the parent's range callable, inherited by fork
    (rules never cross a pickle boundary), whose results land in a shard
    segment of the output's ``dtype`` and leading axes ``lead`` (``(n,)``
    for flip words); ``kernel`` is the counts kernel
    (:mod:`repro.perf.counts`) of a counts sweep, inherited the same way,
    and None otherwise.  Tasks arrive and results leave on ``conn``, this
    worker's own pipe, so no lock is shared with the parent or a sibling;
    the parent sends the next task only after this one's reply.  Kernel
    exceptions are caught and shipped as structured ``error`` results — a
    worker only dies from the outside (SIGKILL, OOM) or from a
    ``worker-crash`` fault.  Metrics are flushed alongside every shard
    completion, so an abnormal death loses at most the in-flight shard's
    increments.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The forked registry starts as a copy of the parent's counts; reset so
    # snapshots hold only this worker's own increments.
    obs.REGISTRY.reset()
    pid = os.getpid()
    site = f"perf.worker.w{wid}.chunk"
    while True:
        task = conn.recv()
        if task is None:
            conn.send(("metrics", pid, _flush_snapshot()))
            return
        sid, lo, hi, segment = task
        try:
            faults.inject(f"perf.worker.w{wid}.dispatch")
            # Forked workers share the parent's resource tracker, so
            # attaching here neither duplicates nor steals ownership.
            shm = shared_memory.SharedMemory(name=segment)
            try:
                if kernel is not None:
                    out = np.ndarray(
                        kernel.counts_slots, dtype=np.int64, buffer=shm.buf
                    )
                    # A re-dispatched shard reuses its original buffer:
                    # zero it so a dead worker's partial fold never
                    # double-counts.
                    out[:] = 0
                else:
                    entries = sweep_entries(dtype, 0, hi - lo).stop
                    out = np.ndarray((*lead, entries), dtype=dtype, buffer=shm.buf)
                ok = _compute_shard(out, lo, hi, fill, kernel, cancel, site)
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
    """Messages from the worker pipes in ``conns`` that are ready within
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

    def __init__(self, ca, workers: int | None = None):
        super().__init__(ca)
        reason = self.supports(ca)
        if reason is not None:  # pragma: no cover - POSIX-only container
            raise BackendUnsupported(
                f"process backend cannot run {ca.describe()}: {reason}"
            )
        from repro.perf import resolve_serial_backend

        self._inner = resolve_serial_backend(ca)
        self.workers = workers if workers is not None else default_workers()
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.max_shard_retries = default_max_shard_retries()
        self.max_worker_deaths = default_max_worker_deaths(self.workers)
        self.shard_timeout_s = default_shard_timeout_s()

    def describe(self) -> str:
        return f"process[{self._inner.name} x{self.workers}]"

    # -- the serial kernel (delegated) -----------------------------------------
    # Direct range calls (single chunks, small sweeps) skip the pool.

    def flips_range(self, lo: int, hi: int) -> np.ndarray:
        return self._inner.flips_range(lo, hi)

    def transient_bytes(self) -> int:
        return self._inner.transient_bytes()

    # -- sharded governed sweep ------------------------------------------------

    def governed_sweep(
        self,
        out: np.ndarray,
        budget,
        *,
        fill=None,
        start: int = 0,
        per_state: float = 0,
        kernel=None,
        total: int | None = None,
    ) -> tuple[int, str | None]:
        """Fill ``out`` from configuration ``start`` on with ``fill(lo, hi)``,
        sharded across the supervised pool.

        Returns ``(next_lo, reason)``: ``reason`` is None when the sweep
        completed, else the budget trip reason and ``next_lo`` the end of
        the contiguous completed-and-charged prefix — the honest resume
        point.  Workers inherit ``fill`` by fork and call it one ``CHUNK``
        at a time into a shard segment of ``out``'s dtype and leading axes
        (an ``(n, shard words)`` block of flip words, see
        :func:`~repro.perf.base.sweep_entries`); any worker may compute
        any shard.  A configuration counts one state per row of ``out``.

        Given a counts ``kernel`` (:mod:`repro.perf.counts`), the sweep
        shards the range ``[start, total)`` of that kernel instead: ``out``
        is then its counts accumulator, each shard ships a counts vector,
        shards follow the kernel's ``shard_align`` / ``shards_per_worker``,
        and counts fold in shard order as the contiguous prefix advances.

        Either way the serial loop's chunks (``CHUNK``, or
        ``kernel.chunk``) are admitted in order and a shard is cut at one
        the budget trips at, so a trip, its reason and ``next_lo`` are the
        serial loop's (:meth:`SweepBackend.governed_sweep`,
        :func:`~repro.perf.counts.run_governed`).

        Raises :class:`~repro.perf.supervise.ShardFailed` only when a
        poison shard *also* fails the serial inline fallback.
        """
        counts = kernel is not None
        lead = out.shape[:-1]  # () for successors and counts
        rows = math.prod(lead)
        # The serial loop's chunk and scratch: the one admission rule.
        if counts:
            chunk, transient = kernel.chunk, kernel.transient_bytes()
            align, parts = kernel.shard_align, kernel.shards_per_worker
        else:
            chunk, transient = CHUNK, self.transient_bytes()
            align, parts = CHUNK, 4
            total = 1 << self.ca.n
        if start >= total:
            return total, None
        # ~``parts`` shards per worker for load balance, ``align``-ed
        per = (total - start) // (self.workers * parts) or total - start
        shard_len = max(align, (per // align) * align)
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
        cancel = ctx.RawValue("b", 0)
        nworkers = min(self.workers, len(shards))
        #: parent ends of the workers' pipes, until each reads to EOF
        conns: list = []
        inbox: deque = deque()  # received, not yet handled

        def _spawn(wid: int) -> WorkerHandle:
            conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(wid, fill, child_conn, cancel, kernel, out.dtype, lead),
                daemon=True,
            )
            proc.start()
            # The worker now holds the only copy of its end, so its exit
            # (or death) reads as EOF here.
            child_conn.close()
            conns.append(conn)
            return WorkerHandle(wid, proc, conn)

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
            #: admitted shards not yet settled, with their output segment
            inflight: dict[int, shared_memory.SharedMemory] = {}
            status: dict[int, bool] = {}
            next_merge = 0  # first shard not yet folded into the prefix
            charged = start  # end of the completed-and-charged prefix
            admitted = start  # end of the serial chunks admitted so far
            reason: str | None = None
            degraded = False
            winddown_at: float | None = None

            def _advance_prefix() -> None:
                nonlocal next_merge, charged
                while next_merge < len(shards) and status.get(next_merge):
                    lo, charged = shards[next_merge]
                    states = rows * (charged - lo)
                    budget.charge(states=states, bytes_=math.ceil(per_state * states))
                    if counts:
                        # Fold counts only as the charged prefix advances,
                        # so a truncated accumulator matches what a serial
                        # resume from ``next_lo`` would rebuild exactly.
                        kernel.merge(out, shard_counts.pop(next_merge))
                    next_merge += 1

            def _admit(hi: int) -> tuple[int, str | None]:
                """``(end, reason)``: admit the serial loop's chunks up to
                ``hi``, or up to ``end`` where one trips with ``reason``.

                Each asks the serial loop's question with every
                admitted-but-uncharged state projected too.
                """
                nonlocal admitted
                while admitted < hi:
                    end = min(admitted + chunk, total)
                    before = rows * (admitted - charged)
                    states = rows * (end - admitted)
                    reason = budget.over(
                        pending_bytes=transient
                        + math.ceil(per_state * (before + states)),
                        pending_states=before + (states if counts else 0),
                    )
                    if reason is not None:
                        return admitted, reason
                    admitted = end
                return hi, None

            def _cleanup_shm(sid: int) -> None:
                shm = inflight.pop(sid, None)
                if shm is not None:
                    shm.close()
                    shm.unlink()

            def _serial_shard(sid: int) -> None:
                """Compute shard ``sid`` inline, with the workers' chunk loop.

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
                            shard_counts[sid] = part = np.zeros_like(out)
                        else:
                            part = out[..., sweep_entries(out.dtype, lo, hi)]
                        _compute_shard(part, lo, hi, fill, kernel)
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
                if status.get(sid) is not None:
                    return  # settled past a trip before its holder was reaped
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
                deaths = supervisor.deaths
                orphans = supervisor.reap()
                if supervisor.deaths > deaths:
                    obs.inc(
                        "perf.process.worker_deaths", supervisor.deaths - deaths
                    )
                for sid in orphans:
                    _fail_shard(
                        sid, leases[sid].pid, "worker died holding the lease", ""
                    )
                if reason is not None:
                    return
                remaining = len(pending) + len(inflight)
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
                    cancel.value = 1  # stop any survivor mid-shard promptly

            try:
                while pending or inflight:
                    _supervise()

                    # Dispatch to idle workers; once the pool has collapsed,
                    # compute inline instead, under the same admission.
                    while (
                        pending
                        and reason is None
                        and (degraded or supervisor.has_capacity())
                    ):
                        sid = pending[0]
                        lo, hi = shards[sid]
                        if sid not in inflight:
                            # First dispatch: admit the chunks the shard
                            # reaches, cutting it at one that trips.
                            # Re-dispatches reuse the admission and buffer.
                            hi, reason = _admit(hi)
                            if hi == lo:
                                break
                            shards[sid] = (lo, hi)
                            leases[sid].hi = hi
                            entries = (
                                kernel.counts_slots
                                if counts
                                else sweep_entries(out.dtype, 0, hi - lo).stop
                            )
                            inflight[sid] = shared_memory.SharedMemory(
                                create=True, size=out.itemsize * rows * entries
                            )
                        if degraded:
                            pending.popleft()
                            _serial_shard(sid)
                        elif supervisor.assign(
                            leases[sid], (sid, lo, hi, inflight[sid].name)
                        ):
                            pending.popleft()
                        else:  # pragma: no cover - capacity raced a death
                            break

                    if reason is not None:
                        # Memory/state trips only stop *dispatch* — shards
                        # already in flight were admitted by the projection
                        # and are allowed to finish (the serial loop would
                        # have completed those chunks too).  Cancellation
                        # and deadline trips interrupt the workers.
                        if reason.startswith(("cancelled", "deadline")):
                            cancel.value = 1
                            if winddown_at is None:
                                winddown_at = time.monotonic()
                        pending.clear()
                        owned = set(supervisor.outstanding())
                        for sid in list(inflight):
                            if sid not in owned:
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
                            # Hung workers never poll the cancel flag:
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
                    obs.REGISTRY.merge_snapshot(msg[-1])
                    if msg[0] == "metrics":
                        continue
                    kind, sid, pid, *body = msg
                    if not supervisor.release(sid, pid):
                        # A reaped worker's late reply: its death already
                        # failed the shard, which may have a new holder.
                        continue
                    if kind == "error":
                        exc_repr, tb, _ = body
                        obs.inc("perf.process.shard_errors")
                        _fail_shard(sid, pid, exc_repr, tb)
                        continue
                    ok, _ = body
                    shm = inflight.get(sid)
                    if shm is None:
                        continue  # settled past a trip after its holder died
                    lo, hi = shards[sid]
                    if ok:
                        # Merge even past a trip: the data is correct, and a
                        # memmap-backed resume benefits from it; only prefix
                        # shards are *charged* and counted in the frontier.
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
                            part = sweep_entries(out.dtype, lo, hi)
                            out[..., part] = np.ndarray(
                                (*lead, part.stop - part.start),
                                dtype=out.dtype,
                                buffer=shm.buf,
                            )
                        status[sid] = True
                        _cleanup_shm(sid)
                        _advance_prefix()
                    elif reason is None:
                        # The worker stopped at the cooperative cancel
                        # poll (pool-collapse wind-down): the shard is
                        # still owed — hand it back for completion.
                        pending.append(sid)
                    else:
                        status[sid] = False
                        _cleanup_shm(sid)
            finally:
                if reason is not None:
                    cancel.value = 1
                # Dead workers took their unflushed in-flight increments
                # with them; anything still alive after the shutdown grace
                # is killed and loses its final flush the same way.
                stuck = [
                    h for h in supervisor.live_handles() if h.sid is not None
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
                    obs.REGISTRY.merge_snapshot(msg[-1])
                for shm in inflight.values():
                    shm.close()
                    shm.unlink()
            sweep_span.set(
                next_lo=charged,
                truncated=reason,
                worker_deaths=supervisor.deaths,
                respawns=supervisor.respawns,
                degraded=degraded,
            )
            obs.inc("perf.process.sweeps")
            obs.inc("perf.process.shards_done", next_merge)
            return charged, reason
