"""Streaming Monte-Carlo throughput (sampled configurations / second).

The scaling series times one governed estimate per ring size — sampler,
64-lane SWAR trajectory driver, classification, streaming moments — so
the committed ``BENCH_montecarlo.json`` median pins the
sampled-configs/sec trajectory that makes n = 10**6 runs practical
(compare_bench gates it at the usual 2x tolerance).  The sweep series
does the same under the sequential schedule, one batch of wavefront-level
sweeps per case: a seeded random order (a handful of wide levels) at
n = 10**4 and 10**5, and the identity order (one chain of n one-node
levels, the slow case) at n = 10**4.  Every run asserts
its own counts ledger in-loop, and the n = 12 series additionally holds
the reported 99% interval to the exactly enumerated basin mass — the
timing claim is also the statistical-correctness claim.
"""

import numpy as np
import pytest

from repro.core.automaton import CellularAutomaton
from repro.core.rules import MajorityRule
from repro.mc import McKernel, build_mc_estimate
from repro.perf.attractor import AttractorKernel
from repro.spaces.line import Ring

_SEED = 1999

_EXACT = {}


def _exact_fp_mass_n12() -> float:
    if "fp12" not in _EXACT:
        ca = CellularAutomaton(Ring(12), MajorityRule(), memory=True)
        lam, _ = AttractorKernel(ca).classify(
            np.arange(1 << 12, dtype=np.int64)
        )
        _EXACT["fp12"] = float(np.mean(lam == 1))
    return _EXACT["fp12"]


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_mc_throughput(benchmark, n):
    """One full batch at scale: the sampled-configs/sec series."""

    def run():
        kernel = McKernel(MajorityRule(), n, seed=_SEED)
        partial = build_mc_estimate(kernel, kernel.lanes)
        assert partial.complete, partial.reason
        counts = partial.value["counts"]
        assert (
            counts["fixed_point"] + counts["two_cycle"] + counts["undecided"]
            == counts["samples"]
        )
        # MAJORITY from uniform initial conditions is overwhelmingly
        # fixed-point bound (Proposition 1 leaves only 2-cycles besides).
        assert partial.value["estimates"]["fixed_point"]["rate"] > 0.9
        return partial.value

    payload = benchmark.pedantic(run, rounds=3, iterations=1)
    assert payload["n"] == n
    assert payload["samples"] == payload["lanes"]


@pytest.mark.parametrize(
    "n, order", [(10_000, "random"), (100_000, "random"), (10_000, "identity")]
)
def test_mc_sweep_throughput(benchmark, n, order):
    """One full batch of sequential sweeps in the given update order."""
    perm = None
    if order == "random":
        perm = np.random.default_rng(_SEED).permutation(n)

    def run():
        kernel = McKernel(
            MajorityRule(), n, schedule="sweep", perm=perm, seed=_SEED
        )
        partial = build_mc_estimate(kernel, kernel.lanes)
        assert partial.complete, partial.reason
        counts = partial.value["counts"]
        assert (
            counts["fixed_point"] + counts["two_cycle"] + counts["undecided"]
            == counts["samples"]
        )
        # Theorem 1: no fixed update order ever cycles.
        assert counts["two_cycle"] == 0
        return partial.value

    payload = benchmark.pedantic(run, rounds=3, iterations=1)
    assert payload["n"] == n
    assert payload["samples"] == payload["lanes"]


def test_mc_interval_vs_exact_n12(benchmark):
    """The oracle workload: 16384 samples against the exact n=12 census."""
    exact = _exact_fp_mass_n12()

    def run():
        kernel = McKernel(MajorityRule(), 12, seed=_SEED)
        partial = build_mc_estimate(kernel, 16384)
        assert partial.complete, partial.reason
        lo, hi = partial.value["estimates"]["fixed_point"]["ci99"]
        assert lo <= exact <= hi
        return partial.value

    payload = benchmark(run)
    assert payload["samples"] == 16384
    assert payload["counts"]["undecided"] == 0
