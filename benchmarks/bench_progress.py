"""Progress heartbeat overhead: the reporter must cost <1% of a build.

The ``--progress`` contract (docs/API.md) is that attaching a
:class:`~repro.obs.progress.ProgressReporter` to the governed budget adds
under one percent to the wall time of a real enumeration — heartbeats are
observability, not a tax.  Two mechanisms keep it cheap, and both are
pinned here:

* whole-space sweeps charge per :data:`~repro.perf.base.CHUNK` (2**16
  states), so an n-node parallel build performs only ``2**n / 2**16``
  hook calls — the overhead bound is *analytic*: measured per-charge hook
  cost times the build's charge count must stay under 1% of the measured
  build median;
* ``states=1`` hot loops (sequential orbits, census, fuzz cases) are
  protected by the reporter's adaptive clock-read stride, benchmarked
  against the bare uninstrumented charge.
"""

import io
import statistics
import time

import pytest

from repro.core.automaton import CellularAutomaton
from repro.core.budget import Budget
from repro.core.phase_space import build_phase_space
from repro.core.rules import MajorityRule
from repro.obs.progress import ProgressReporter
from repro.perf.base import CHUNK
from repro.spaces.line import Ring

#: ring size for the end-to-end build (2**18 configurations — a real
#: sweep, yet quick enough to repeat for stable medians)
N = 18

#: the acceptance criterion is phrased against ``phase-space --n 24``
TARGET_N = 24


def _build(budget: Budget):
    ca = CellularAutomaton(Ring(N), MajorityRule())
    partial = build_phase_space(ca, budget=budget)
    assert partial.complete
    return partial.value


def _null_reporter(total: int) -> ProgressReporter:
    return ProgressReporter("bench", total=total, stream=io.StringIO())


def _median_s(benchmark, fn) -> float:
    """Median seconds per call of ``fn`` under ``benchmark``.

    Under ``--benchmark-disable`` the fixture runs ``fn`` once and keeps
    no stats, so that one call's ``perf_counter`` time stands in.
    """
    t0 = time.perf_counter()
    benchmark(fn)
    if benchmark.stats is None:
        return time.perf_counter() - t0
    return benchmark.stats.stats.median


def test_phase_space_baseline(benchmark):
    ps = benchmark(lambda: _build(Budget()))
    assert ps.size == 1 << N


def test_phase_space_with_progress(benchmark):
    def run():
        budget = Budget()
        reporter = _null_reporter(1 << N)
        budget.on_charge = reporter.on_charge
        ps = _build(budget)
        reporter.finish()
        return ps, reporter

    ps, reporter = benchmark(run)
    assert ps.size == 1 << N
    # Every charged state reached the reporter (the build also charges
    # analysis bytes with states=0, which must not inflate the count).
    assert reporter.done >= 1 << N


def test_progress_overhead_under_one_percent(benchmark):
    """Analytic acceptance bound for ``phase-space --n 24 --progress``.

    Measure the per-charge hook cost over many chunk-sized charges, scale
    to the charge count an n=24 parallel build performs, and require that
    total to be under 1% of the *n=18* build's median wall time over 5
    warm builds — a deliberately stricter denominator, since the n=24
    build is ~64x longer but performs only 64x the (still tiny) hook
    calls.
    """
    rounds = 4096
    budget = Budget()
    reporter = _null_reporter(TARGET_N * rounds * CHUNK)
    budget.on_charge = reporter.on_charge

    def charge_many():
        for _ in range(rounds):
            budget.charge(states=CHUNK)

    per_charge = _median_s(benchmark, charge_many) / rounds

    _build(Budget())  # warm-up: the first build in a process is the slow one
    builds = []
    for _ in range(5):
        t0 = time.perf_counter()
        _build(Budget())
        builds.append(time.perf_counter() - t0)
    build_s = statistics.median(builds)

    charges_n24 = (1 << TARGET_N) // CHUNK  # 256 chunk charges
    overhead_s = per_charge * charges_n24
    assert overhead_s < 0.01 * build_s, (
        f"projected n={TARGET_N} progress overhead {overhead_s:.6f}s is not "
        f"<1% of the median n={N} build ({build_s:.3f}s)"
    )


@pytest.mark.parametrize("hooked", [False, True], ids=["bare", "hooked"])
def test_unit_charge_hot_loop(benchmark, hooked):
    """states=1 loops: the adaptive stride keeps the hook near-free.

    The hooked loop may pay a counter bump and an occasional clock read
    per charge, but never syscalls — so it stays within a small constant
    factor of the bare charge (asserted coarsely; the absolute per-charge
    cost is the recorded number that matters across runs).
    """
    rounds = 200_000
    budget = Budget()
    if hooked:
        reporter = _null_reporter(rounds)
        budget.on_charge = reporter.on_charge

    def charge_units():
        for _ in range(rounds):
            budget.charge(states=1)

    per_charge = _median_s(benchmark, charge_units) / rounds
    # A budget charge is a handful of integer ops; even hooked it must
    # stay well under 10us on any host this suite runs on.
    assert per_charge < 10e-6
