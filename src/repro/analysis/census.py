"""Phase-space censuses across system sizes.

The paper's companion work ([19], "Complete characterization of phase
spaces of certain types of threshold cellular automata") counts the
structural features of threshold phase spaces.  This module reproduces
the census programme for MAJORITY rings:

* **fixed points** — exactly the configurations with no isolated run
  (every maximal block of equal states has length >= 2), whose count
  satisfies the exact linear recurrence
  ``a(n) = 2 a(n-1) - a(n-2) + a(n-4)`` (discovered and verified here);
* **Gardens of Eden** — unreachable configurations, whose fraction tends
  to 1: almost every configuration is transient *input*, never output;
* **cycle configurations** — exactly two per even ring (the alternating
  pair), zero otherwise.

:func:`find_linear_recurrence` fits minimal-order integer recurrences
exactly (Fraction arithmetic, no floating point), so a reported recurrence
is a proof for the measured range, not an approximation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.core.automaton import CellularAutomaton
from repro.core.budget import Budget, BudgetExceeded, Partial, resolve_budget
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule
from repro.obs import span
from repro.perf.base import MAX_ATTRACTOR_N
from repro.spaces.line import Ring
from repro.util.bitops import int_to_bits

__all__ = [
    "run_lengths_cyclic",
    "has_isolated_run",
    "find_linear_recurrence",
    "CensusRow",
    "majority_ring_census",
    "AttractorCensusRow",
    "build_attractor_census",
    "attractor_ring_census",
]



def run_lengths_cyclic(state: np.ndarray) -> list[int]:
    """Lengths of the maximal constant runs of a cyclic 0/1 string.

    The all-equal string is one run of length ``n``.
    """
    state = np.asarray(state).ravel()
    n = state.size
    if n == 0:
        raise ValueError("empty configuration has no runs")
    if np.all(state == state[0]):
        return [n]
    # Rotate so position 0 starts a run, then split on changes.
    start = 0
    while state[(start - 1) % n] == state[start]:
        start += 1
    rotated = np.roll(state, -start)
    changes = np.flatnonzero(np.diff(rotated)) + 1
    bounds = np.concatenate([[0], changes, [n]])
    return np.diff(bounds).astype(int).tolist()


def has_isolated_run(state: np.ndarray) -> bool:
    """True iff some maximal run has length 1 (an 'isolated' cell)."""
    return min(run_lengths_cyclic(state)) == 1


def find_linear_recurrence(
    seq: Sequence[int], max_order: int = 6
) -> tuple[int, tuple[Fraction, ...]] | None:
    """The minimal-order exact linear recurrence satisfied by ``seq``.

    Returns ``(order, coefficients)`` with
    ``seq[i] = sum(coefficients[k] * seq[i-1-k])``, verified exactly over
    the whole sequence, or ``None`` if no recurrence of order
    ``<= max_order`` fits.  Exact rational Gaussian elimination — a
    returned recurrence genuinely holds for every supplied term.
    """
    values = [Fraction(int(v)) for v in seq]
    for order in range(1, max_order + 1):
        if len(values) < 2 * order:
            break  # need enough terms both to fit and to verify
        rows = [
            [values[i - k] for k in range(1, order + 1)] + [values[i]]
            for i in range(order, 2 * order)
        ]
        coeffs = _solve_exact(rows, order)
        if coeffs is None:
            continue
        if all(
            values[i] == sum(c * values[i - 1 - k] for k, c in enumerate(coeffs))
            for i in range(order, len(values))
        ):
            return order, tuple(coeffs)
    return None


def _solve_exact(rows: list[list[Fraction]], order: int) -> list[Fraction] | None:
    """Gaussian elimination over the rationals; None if singular."""
    mat = [row[:] for row in rows]
    for col in range(order):
        pivot = next(
            (r for r in range(col, len(mat)) if mat[r][col] != 0), None
        )
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for r in range(len(mat)):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return [mat[k][order] for k in range(order)]


@dataclass(frozen=True)
class CensusRow:
    """Phase-space census of one MAJORITY ring."""

    n: int
    configurations: int
    fixed_points: int
    cycle_configs: int
    gardens_of_eden: int
    max_transient: int

    @property
    def garden_fraction(self) -> float:
        """Fraction of configurations that are unreachable."""
        return self.gardens_of_eden / self.configurations


@dataclass(frozen=True)
class AttractorCensusRow:
    """Attractor census of one automaton, computed without a phase space.

    The attractor-direct counterpart of :class:`CensusRow`: everything
    Brent classification over symmetry-orbit representatives can answer
    exactly — which excludes the reachability columns (Gardens of Eden,
    transient depths) that genuinely need the materialized global map.
    """

    n: int
    configurations: int
    orbit_reps: int
    fixed_points: int
    cycle_configs: int
    two_cycle_configs: int
    max_cycle_len: int
    quotient: str

    def summary(self) -> dict[str, int | str]:
        return {
            "configurations": self.configurations,
            "orbit_reps": self.orbit_reps,
            "fixed_points": self.fixed_points,
            "cycle_configs": self.cycle_configs,
            "two_cycle_configs": self.two_cycle_configs,
            "max_cycle_len": self.max_cycle_len,
            "quotient": self.quotient,
        }


def build_attractor_census(
    ca: CellularAutomaton,
    budget: Budget | None = None,
    frontier: dict[str, object] | None = None,
    kernel=None,
) -> Partial[AttractorCensusRow]:
    """Governed attractor-direct census: exact, or truncated + resumable.

    Scans the configuration-code range in bounded chunks through an
    :class:`~repro.perf.attractor.AttractorKernel` — no ``2**n`` array is
    ever held, so the budget charges only the bounded trajectory-lane
    scratch (``kernel.transient_bytes()``) per chunk rather than bytes
    per stored state; the state ledger still counts scanned codes so
    ``--budget-states`` and progress totals keep their meaning.

    On a trip the :class:`~repro.core.budget.Partial` carries a tiny
    pure-JSON frontier (the next unscanned code plus the counts folded so
    far); resuming completes the census byte-identically because counts
    of disjoint code ranges merge exactly
    (:func:`~repro.perf.counts.run_governed`).
    """
    from repro.perf.attractor import AttractorKernel
    from repro.perf.counts import run_governed

    budget = resolve_budget(budget)
    n = ca.n
    if n > MAX_ATTRACTOR_N:
        raise ValueError(
            f"attractor census over 2**{n} configurations is too large"
        )
    if kernel is None:
        kernel = AttractorKernel(ca)
    total = 1 << n
    with span(
        "census.attractor",
        n=n,
        configs=total,
        quotient=kernel.quotient.mode,
        budget=budget.describe(),
    ) as census_span:
        partial = run_governed(kernel, total, budget, frontier, ca.backend)
        if not partial.complete:
            census_span.set(truncated=partial.reason, explored=partial.explored)
            return partial
        counts = partial.value
        if int(counts[2]) != total:
            # The coverage identity (orbit weights sum to 2**n) failed —
            # a quotient bug; never report a wrong census as exact.
            census_span.set(coverage=int(counts[2]))
            return Partial.truncated(
                f"quotient covered {int(counts[2])} of {total} "
                f"configurations",
                explored=total,
                total=total,
                stats=partial.stats,
            )
        census_span.set(
            fixed_points=int(counts[3]), orbit_reps=int(counts[1])
        )
        row = AttractorCensusRow(
            n=n,
            configurations=int(counts[2]),
            orbit_reps=int(counts[1]),
            fixed_points=int(counts[3]),
            cycle_configs=int(counts[4]),
            two_cycle_configs=int(counts[5]),
            max_cycle_len=int(counts[6]),
            quotient=kernel.quotient.mode,
        )
        return Partial.done(row, explored=total, total=total, stats=partial.stats)


def attractor_ring_census(
    sizes: Iterable[int],
    backend: str | None = None,
    workers: int | None = None,
) -> list[AttractorCensusRow]:
    """Attractor-direct census of MAJORITY-with-memory rings.

    The same automata as :func:`majority_ring_census`, classified without
    materializing phase spaces — which is what lets the exact census
    climb past ``MAX_SWEEP_N``.  Raises
    :class:`~repro.core.budget.BudgetExceeded` on truncation (use
    :func:`build_attractor_census` for the resumable form).
    """
    rows = []
    for n in sorted(set(int(m) for m in sizes)):
        ca = CellularAutomaton(
            Ring(n), MajorityRule(), memory=True, backend=backend,
            workers=workers,
        )
        partial = build_attractor_census(ca)
        if not partial.complete:
            raise BudgetExceeded(partial.reason, partial=partial)
        rows.append(partial.value)
    return rows


def majority_ring_census(
    sizes: Iterable[int],
    backend: str | None = None,
    workers: int | None = None,
) -> list[CensusRow]:
    """Exhaustive census of MAJORITY-with-memory rings.

    Also asserts the structural characterisation of fixed points (no
    isolated run) configuration by configuration — a census row is only
    produced if the characterisation holds exactly.  ``backend`` /
    ``workers`` select the sweep backend (see :mod:`repro.perf`).
    """
    rows = []
    for n in sorted(set(int(m) for m in sizes)):
        ca = CellularAutomaton(
            Ring(n), MajorityRule(), memory=True, backend=backend,
            workers=workers,
        )
        ps = PhaseSpace.from_automaton(ca)
        fps = set(ps.fixed_points.tolist())
        for code in range(ps.size):
            is_fp = code in fps
            no_isolated = not has_isolated_run(int_to_bits(code, n))
            if is_fp != no_isolated:
                raise AssertionError(
                    f"fixed-point characterisation fails at n={n}, "
                    f"config {code}: fp={is_fp}, no_isolated={no_isolated}"
                )
        rows.append(
            CensusRow(
                n=n,
                configurations=ps.size,
                fixed_points=len(fps),
                cycle_configs=int(ps.cycle_configs.size),
                gardens_of_eden=int(ps.gardens_of_eden.size),
                max_transient=ps.max_transient(),
            )
        )
    return rows
