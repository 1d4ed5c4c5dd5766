"""Phase-space summary statistics.

Aggregates the quantities the paper talks about qualitatively — how many
fixed points, how many proper cycles, how big the basins, how long the
transients — into one comparable record, so parallel/sequential contrasts
(like the paper's Fig. 1 discussion of the "richer" sequential space) can
be made numerically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace

__all__ = [
    "PhaseSpaceStats",
    "phase_space_stats",
    "nondet_stats",
    "Z95",
    "Z99",
    "wilson_interval",
    "StreamingMoments",
]

#: two-sided normal critical values (scipy.stats.norm.ppf(0.975) / (0.995))
Z95 = 1.959963984540054
Z99 = 2.5758293035489004


def wilson_interval(
    successes: int, trials: int, z: float = Z95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the Wald interval it stays inside ``[0, 1]`` and keeps honest
    coverage at extreme rates — including ``p_hat in {0, 1}``, which the
    paper's dichotomy makes the *common* case (Theorem 1: a sequential
    threshold sweep has fixed-point incidence exactly 1).
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    lo = float(max(0.0, centre - half))
    hi = float(min(1.0, centre + half))
    # At p_hat in {0, 1} the exact bound is the endpoint itself; snap it
    # so float rounding cannot exclude a ground truth of exactly 0 or 1.
    if successes == 0:
        lo = 0.0
    if successes == trials:
        hi = 1.0
    return (lo, hi)


@dataclass
class StreamingMoments:
    """Mergeable streaming mean/variance over integer observations.

    Accumulates exact integer power sums (Python ints — no overflow, no
    rounding), so ``merge`` is associative and commutative *bit-for-bit*:
    a split stream merged in any order yields the same floats as a single
    pass.  ``mean``/``variance`` are algebraically identical to Welford's
    online recurrences; the integer-sum form is what makes shard-parallel
    estimation deterministic.
    """

    count: int = 0
    total: int = 0
    total_sq: int = 0
    maximum: int = 0

    def add(self, value: int) -> None:
        """Observe one integer value."""
        value = int(value)
        self.count += 1
        self.total += value
        self.total_sq += value * value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another stream's sums into this one (associative)."""
        self.count += other.count
        self.total += other.total
        self.total_sq += other.total_sq
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 below two observations)."""
        if self.count < 2:
            return 0.0
        num = self.count * self.total_sq - self.total * self.total
        return max(0, num) / (self.count * (self.count - 1))

    def ci(self, z: float = Z95) -> tuple[float, float]:
        """Normal-approximation confidence interval for the mean."""
        if self.count == 0:
            return (0.0, 0.0)
        half = z * np.sqrt(self.variance / self.count)
        return (float(self.mean - half), float(self.mean + half))


@dataclass(frozen=True)
class PhaseSpaceStats:
    """Headline numbers of one deterministic phase space."""

    configurations: int
    fixed_points: int
    proper_cycles: int
    max_cycle_length: int
    cycle_configs: int
    transient_configs: int
    gardens_of_eden: int
    max_transient: int
    mean_basin_size: float
    largest_basin: int

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (JSON/CLI friendly)."""
        return asdict(self)


def phase_space_stats(ps: PhaseSpace) -> PhaseSpaceStats:
    """Compute :class:`PhaseSpaceStats` for a deterministic phase space."""
    lengths = ps.cycle_lengths()
    basins = ps.basin_sizes()
    return PhaseSpaceStats(
        configurations=ps.size,
        fixed_points=int(ps.fixed_points.size),
        proper_cycles=len(ps.proper_cycles),
        max_cycle_length=max(lengths) if lengths else 0,
        cycle_configs=int(ps.cycle_configs.size),
        transient_configs=int(ps.transient_configs.size),
        gardens_of_eden=int(ps.gardens_of_eden.size),
        max_transient=ps.max_transient(),
        mean_basin_size=float(np.mean(basins)) if basins.size else 0.0,
        largest_basin=int(basins.max()) if basins.size else 0,
    )


@dataclass(frozen=True)
class NondetStats:
    """Headline numbers of one sequential (nondeterministic) phase space."""

    configurations: int
    fixed_points: int
    pseudo_fixed_points: int
    has_proper_cycle: bool
    proper_cycle_components: int
    largest_cycle_component: int
    unreachable_configs: int
    change_edges: int

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (JSON/CLI friendly)."""
        return asdict(self)


def nondet_stats(nps: NondetPhaseSpace) -> NondetStats:
    """Compute :class:`NondetStats` for a sequential phase space."""
    comps = nps.proper_cycle_components()
    return NondetStats(
        **nps.summary(),
        largest_cycle_component=max((len(c) for c in comps), default=0),
        change_edges=nps.change_edge_count(),
    )
