"""Ablation — whole-space sweeps: vectorized bit-sliced vs. per-config loop.

DESIGN.md Section 5: phase spaces are built by vectorizing the global map
across all 2**n configurations at once.  The per-configuration reference
(unpack, step, pack — the obvious implementation) is the ablation baseline.
"""

import numpy as np
import pytest

from repro.core.automaton import CellularAutomaton
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule
from repro.spaces.line import Ring


def _per_config_step_all(ca: CellularAutomaton) -> np.ndarray:
    succ = np.empty(1 << ca.n, dtype=np.int64)
    for code in range(1 << ca.n):
        succ[code] = ca.pack(ca.step(ca.unpack(code)))
    return succ


@pytest.mark.parametrize("n", [12, 16])
def test_vectorized_step_all(benchmark, n):
    ca = CellularAutomaton(Ring(n), MajorityRule())
    succ = benchmark(ca.step_all)
    assert succ.size == 1 << n


@pytest.mark.parametrize("n", [12])
def test_per_config_step_all_baseline(benchmark, n):
    ca = CellularAutomaton(Ring(n), MajorityRule())
    succ = benchmark(lambda: _per_config_step_all(ca))
    np.testing.assert_array_equal(succ, ca.step_all())


def test_classification_cost(benchmark):
    """FP/CC/TC classification on a 2**16 phase space (jump + label)."""
    ca = CellularAutomaton(Ring(16), MajorityRule())
    succ = ca.step_all()

    def classify():
        ps = PhaseSpace(succ, 16)
        return ps.summary()

    summary = benchmark(classify)
    assert summary["configurations"] == 65536
    assert max(summary["cycle_lengths"]) == 2
