"""One governed driver for counts kernels.

A *counts kernel* reduces any contiguous range ``[lo, hi)`` of its work
units (configuration codes for the attractor census, sample indices for
Monte-Carlo) to a fixed-size int64 counts vector, and counts of disjoint
ranges merge exactly.  That one property is all budget trips, resumable
frontiers and process sharding need, so :func:`run_governed` drives every
such kernel the same way.  The protocol, as plain attributes:

``counts_slots`` / ``count_fields``
    length of the counts vector, and the name of each slot;
``progress_fields``
    slots reported as ``<name>_so_far`` stats on every result;
``merge(acc, delta)``
    fold ``delta`` into ``acc`` in place;
``chunk``
    range width of one serial budget check and of the worker cancel poll;
``shard_align`` / ``shards_per_worker``
    shard boundaries of the ``process`` backend;
``frontier_key()``
    ``(kind, n, automaton)`` stamped into frontiers; a resume must match
    all three;
``census_range(lo, hi)`` / ``transient_bytes()``
    the counts of one range, and its deterministic scratch charge.
"""

from __future__ import annotations

import numpy as np

from repro.core.budget import Budget, Partial, check_frontier
from repro.harness import faults

__all__ = ["run_governed"]


def _resume_point(kernel, total: int, frontier: dict, counts: np.ndarray) -> int:
    """Validate ``frontier`` against this run; load its counts, return next_lo."""
    kind, n, automaton = kernel.frontier_key()
    check_frontier(frontier, kind, n, automaton)
    if int(frontier.get("total", -1)) != total:
        raise ValueError(
            f"{kind} frontier covers {frontier.get('total')} units, "
            f"resumed run wants {total}"
        )
    prior = np.asarray(frontier.get("counts", []), dtype=np.int64)
    if prior.size != kernel.counts_slots:
        raise ValueError(
            f"{kind} frontier has {prior.size} count slots, "
            f"expected {kernel.counts_slots}"
        )
    start = int(frontier["next_lo"])
    if start % kernel.shard_align and start != total:
        raise ValueError(
            f"{kind} frontier resume point {start} is not "
            f"{kernel.shard_align}-aligned"
        )
    counts[:] = prior
    return start


def run_governed(
    kernel,
    total: int,
    budget: Budget,
    frontier: dict[str, object] | None = None,
    backend=None,
) -> Partial[np.ndarray]:
    """Counts of ``kernel`` over ``[0, total)``: complete, or truncated.

    Resumes from ``frontier`` when given.  A sharded ``backend`` spreads
    the range over its supervised workers; anything else runs the serial
    chunk loop, which checks the budget before each ``kernel.chunk`` and
    charges scanned units as states.  Either way a trip returns a
    pure-JSON frontier (the next unscanned unit plus the counts folded so
    far), and resuming from it reproduces the uninterrupted counts.
    """
    kind, n, automaton = kernel.frontier_key()
    counts = np.zeros(kernel.counts_slots, dtype=np.int64)
    start = 0 if frontier is None else _resume_point(kernel, total, frontier, counts)

    def _stats() -> dict[str, int]:
        return {
            f"{name}_so_far": int(counts[kernel.count_fields.index(name)])
            for name in kernel.progress_fields
        }

    def _truncated(reason: str, next_lo: int) -> Partial[np.ndarray]:
        return Partial.truncated(
            reason,
            explored=next_lo,
            total=total,
            stats=_stats(),
            frontier={
                "kind": kind,
                "n": n,
                "automaton": automaton,
                "total": total,
                "next_lo": next_lo,
                "counts": [int(v) for v in counts],
            },
        )

    if backend is not None and backend.is_sharded:
        next_lo, reason = backend.governed_sweep(
            counts, budget, start=start, kernel=kernel, total=total
        )
        if reason is not None:
            return _truncated(reason, next_lo)
    else:
        transient = kernel.transient_bytes()
        for lo in range(start, total, kernel.chunk):
            hi = min(lo + kernel.chunk, total)
            reason = budget.over(pending_bytes=transient, pending_states=hi - lo)
            if reason is not None:
                return _truncated(reason, lo)
            faults.inject("counts.chunk")
            kernel.merge(counts, kernel.census_range(lo, hi))
            budget.charge(states=hi - lo, bytes_=0)
    return Partial.done(counts, explored=total, total=total, stats=_stats())
