"""E15 — engine throughput, the vectorization ablation, sweep backends.

Implementation artifact (DESIGN.md Section 5): the synchronous step is one
window-gather plus one vectorized rule application.  Expected series: the
vectorized step beats the per-node reference by orders of magnitude and
scales linearly in n; whole-phase-space sweeps stay chunk-bounded in
memory; the compiled ``bitplane`` kernel beats the ``numpy`` reference
by >= 5x on the n=20 MAJORITY sweep (the floor CI enforces),
and process sharding beats the best serial kernel on multi-CPU hosts.
"""

import os

import numpy as np
import pytest

from repro.core.automaton import CellularAutomaton
from repro.core.rules import MajorityRule, WolframRule
from repro.spaces.grid import Grid2D
from repro.spaces.line import Ring


@pytest.mark.parametrize("n", [1 << 12, 1 << 16, 1 << 20])
def test_vectorized_step_scaling(benchmark, rng, n):
    ca = CellularAutomaton(Ring(n, radius=2), MajorityRule())
    state = rng.integers(0, 2, n).astype(np.uint8)
    out = benchmark(lambda: ca.step(state))
    assert out.shape == (n,)


@pytest.mark.parametrize("n", [1 << 12])
def test_naive_step_baseline(benchmark, rng, n):
    """The ablation baseline: same semantics, Python loop per node."""
    ca = CellularAutomaton(Ring(n, radius=2), MajorityRule())
    state = rng.integers(0, 2, n).astype(np.uint8)
    out = benchmark(lambda: ca.step_naive(state))
    np.testing.assert_array_equal(out, ca.step(state))


def test_step_all_whole_space(benchmark):
    """2**18 configurations through the global map in one sweep."""
    ca = CellularAutomaton(Ring(18), MajorityRule())
    succ = benchmark(ca.step_all)
    assert succ.shape == (1 << 18,)
    # Spot-check agreement with the scalar engine.
    rng = np.random.default_rng(0)
    for code in rng.integers(0, 1 << 18, size=5):
        assert int(succ[code]) == ca.pack(ca.step(ca.unpack(int(code))))


def test_wolfram_table_rule_throughput(benchmark, rng):
    """Table rules go through packed-code lookup; same scaling story."""
    n = 1 << 16
    ca = CellularAutomaton(Ring(n), WolframRule(110))
    state = rng.integers(0, 2, n).astype(np.uint8)
    out = benchmark(lambda: ca.step(state))
    assert out.shape == (n,)


def test_grid_step_throughput(benchmark, rng):
    """The generic gather path covers 2-D spaces with no special casing."""
    ca = CellularAutomaton(Grid2D(256, 256), MajorityRule())
    state = rng.integers(0, 2, ca.n).astype(np.uint8)
    out = benchmark(lambda: ca.step(state))
    assert out.shape == (65536,)


# -- sweep backends (PR 4) -----------------------------------------------------
#
# The acceptance series: the compiled kernels against the numpy reference
# on the same n=20 MAJORITY whole-space sweep.  Bit-identical results are
# asserted in-loop, so the timing claim is also a correctness claim.

_N20_REFERENCE = {}


def _n20_reference() -> np.ndarray:
    if "succ" not in _N20_REFERENCE:
        ca = CellularAutomaton(Ring(20), MajorityRule(), backend="bitplane")
        _N20_REFERENCE["succ"] = ca.step_all()
    return _N20_REFERENCE["succ"]


@pytest.mark.parametrize("backend", ["numpy", "bitplane"])
def test_sweep_backend_n20(benchmark, backend):
    """n=20 MAJORITY sweep per serial backend — the 5x acceptance bar."""
    ca = CellularAutomaton(Ring(20), MajorityRule(), backend=backend)
    assert ca.backend.name == backend
    succ = benchmark(ca.step_all)
    np.testing.assert_array_equal(succ, _n20_reference())


@pytest.mark.parametrize("backend", ["bitplane"])
def test_all_node_successors_n16(benchmark, backend):
    """The sequential matrix: n governed flip rows, then one encode."""
    ca = CellularAutomaton(Ring(16), MajorityRule(), backend=backend)
    table = benchmark(ca.all_node_successors)
    assert table.shape == (16, 1 << 16)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="process-backend speedup needs >= 4 physical CPUs to be honest",
)
@pytest.mark.parametrize("backend", ["process"])
def test_sweep_process_n24(benchmark, backend):
    """n=24 MAJORITY sweep, sharded across 4 workers (multi-CPU hosts).

    Compare against the serial bitplane entry of the same module to read
    off the >= 2x acceptance ratio.
    """
    ca = CellularAutomaton(Ring(24), MajorityRule(), backend="process",
                           workers=4)
    succ = benchmark.pedantic(ca.step_all, rounds=3, iterations=1)
    assert succ.shape == (1 << 24,)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="process-backend speedup needs >= 4 physical CPUs to be honest",
)
@pytest.mark.parametrize("backend", ["bitplane"])
def test_sweep_serial_n24(benchmark, backend):
    """The serial n=24 baseline for the process-sharding ratio."""
    ca = CellularAutomaton(Ring(24), MajorityRule(), backend="bitplane")
    succ = benchmark.pedantic(ca.step_all, rounds=3, iterations=1)
    assert succ.shape == (1 << 24,)
