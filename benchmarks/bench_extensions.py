"""E17/E18 — the paper's Section 4 extensions, made concrete.

Paper artifact: the "future directions" the paper sketches — non-
homogeneous threshold CA, and the question of where increasing rule
complexity lets sequential computations catch up with concurrency.
Expected rows: per-node thresholds keep the period<=2 / cycle-free
dichotomy; among the 20 monotone radius-1 rules exactly the two shift
rules admit sequential cycles.
"""

import numpy as np

from repro.core.heterogeneous import HeterogeneousCA
from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule, SimpleThresholdRule, XorRule
from repro.core.theorems import (
    check_monotone_boundary,
    check_nonhomogeneous_threshold,
)
from repro.spaces.line import Ring


def test_nonhomogeneous_threshold_dichotomy(benchmark):
    report = benchmark(
        lambda: check_nonhomogeneous_threshold(
            ring_sizes=(6, 8, 10), assignments_per_size=8
        )
    )
    assert report.holds
    assert report.parameters["assignments_checked"] == 24


def test_monotone_boundary_survey(benchmark):
    report = benchmark(lambda: check_monotone_boundary(ring_sizes=(3, 4, 5, 6)))
    assert report.holds
    # Exactly the two shift rules are the catching-up point.
    assert len(report.witnesses) == 2


def test_heterogeneous_engine_throughput(benchmark, rng):
    """A 4096-node ring with three interleaved rule populations steps in
    a handful of vectorized passes (one per distinct rule)."""
    n = 4096
    # Share rule objects so the engine batches them into 3 groups.
    palette = [MajorityRule(), SimpleThresholdRule(1), XorRule()]
    rules = [palette[i % 3] for i in range(n)]
    het = HeterogeneousCA(Ring(n), rules)
    state = rng.integers(0, 2, n).astype(np.uint8)
    out = benchmark(lambda: het.step(state))
    np.testing.assert_array_equal(out, het.step_naive(state))


def test_heterogeneous_phase_space(benchmark, rng):
    """Whole-space sweep for a random-threshold automaton on a 12-ring."""
    thetas = rng.integers(0, 5, size=12)
    het = HeterogeneousCA(
        Ring(12), [SimpleThresholdRule(int(t)) for t in thetas]
    )

    def build():
        ps = PhaseSpace(het.step_all(), 12)
        nps = NondetPhaseSpace.from_automaton(het)
        return ps, nps

    ps, nps = benchmark(build)
    assert max(ps.cycle_lengths()) <= 2
    assert not nps.has_proper_cycle()
