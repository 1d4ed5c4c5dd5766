"""Governed streaming Monte-Carlo estimation.

:func:`build_mc_estimate` runs an :class:`~repro.mc.kernel.McKernel`
through the counts-kernel driver the attractor census uses
(:func:`repro.perf.counts.run_governed`) — the same ``Partial`` honesty
contract, pure-JSON frontier, budget-trip / ``--resume`` semantics and
``process``-shard path — but over a *sample* range instead of a code
range: samples ``[lo, hi)`` of the deterministic seeded stream, always in
whole lane-aligned batches, so counts of disjoint ranges merge exactly
and serial / sharded / resumed runs are byte-identical.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.budget import Budget, Partial, resolve_budget
from repro.core.durable import durable_write_json, register_write_site
from repro.obs import inc, set_gauge, span
from repro.perf.counts import run_governed

from repro.mc.estimators import (
    IDX,
    K_MC_COUNTS,
    MC_COUNT_FIELDS,
    mc_estimates,
    merge_mc_counts,  # noqa: F401 - re-exported; McKernel.merge folds with it
)
from repro.mc.kernel import McKernel

__all__ = [
    "MC_SCHEMA",
    "build_mc_estimate",
    "round_samples",
    "write_mc_artifact",
]

MC_SCHEMA = "repro-mc/1"

register_write_site(
    "mc.artifact", "streaming Monte-Carlo estimate artifact (mc.json)"
)


def round_samples(samples: int, lanes: int) -> int:
    """Round a sample request up to whole ``lanes``-wide batches."""
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    return max(lanes, ((samples + lanes - 1) // lanes) * lanes)


def build_mc_estimate(
    kernel: McKernel,
    samples: int,
    budget: Budget | None = None,
    frontier: dict[str, object] | None = None,
    backend=None,
) -> Partial[dict]:
    """Governed MC estimate: complete, or truncated + resumable.

    ``backend`` is an optional sweep backend; a sharded one routes
    batches through the supervised ``process`` worker layer (worker
    death costs only the in-flight batch).  Anything else runs the
    kernel's serial loop — the kernel is already 64-way SWAR-parallel,
    so serial is the default even on multicore hosts.
    """
    budget = resolve_budget(budget)
    total = round_samples(samples, kernel.lanes)
    # The energy stream needs a threshold form, and exact integer power
    # sums that cannot overflow their int64 slots at this sample count.
    # Decided per call, so one oversized request never sticks to the kernel.
    bound = kernel.energy2_bound()
    kernel.energy_enabled = bound is not None and total * (2 * bound) ** 2 < 1 << 62

    with span(
        "mc.estimate",
        n=kernel.n,
        samples=total,
        family=kernel.family,
        schedule=kernel.schedule,
        budget=budget.describe(),
    ) as mc_span:
        partial = run_governed(kernel, total, budget, frontier, backend)
        if not partial.complete:
            mc_span.set(truncated=partial.reason, explored=partial.explored)
            return partial
        counts = partial.value
        fixed_point = int(counts[IDX["fixed_point"]])
        two_cycle = int(counts[IDX["two_cycle"]])
        inc("mc.runs")
        inc("mc.samples", int(counts[IDX["samples"]]) - _prior_samples(frontier))
        set_gauge("mc.fixed_point_rate", fixed_point / total)
        set_gauge("mc.two_cycle_rate", two_cycle / total)
        mc_span.set(
            fixed_point=fixed_point,
            two_cycle=two_cycle,
            undecided=total - fixed_point - two_cycle,
        )
        payload = {
            "schema": MC_SCHEMA,
            "n": kernel.n,
            "samples": total,
            "automaton": kernel.describe(),
            "rule": kernel.rule.name,
            "schedule": kernel.schedule,
            "family": kernel.family,
            "seed": kernel.seed,
            "horizon": kernel.horizon,
            "lanes": kernel.lanes,
            "energy_enabled": bool(kernel.energy_enabled),
            "counts": {
                name: int(counts[i]) for i, name in enumerate(MC_COUNT_FIELDS)
            },
            "estimates": mc_estimates(
                counts, energy_enabled=kernel.energy_enabled
            ),
        }
        return Partial.done(payload, explored=total, total=total, stats=partial.stats)


def _prior_samples(frontier) -> int:
    """Samples already counted by the run a frontier resumes."""
    if not frontier:
        return 0
    prior = frontier.get("counts") or []
    return int(prior[IDX["samples"]]) if len(prior) == K_MC_COUNTS else 0


def write_mc_artifact(path, payload: dict) -> None:
    """Durably write a ``repro-mc/1`` artifact (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    durable_write_json(path, payload, site="mc.artifact", sort_keys=True)
