"""The governed counts-kernel driver (repro.perf.counts.run_governed).

Both counts kernels — the attractor census over configuration codes and
Monte-Carlo over sample indices — go through one driver, serially or
sharded over the process backend.  The cases here pin the contract they
share: a budget trip saves a frontier, loading it back resumes to exactly
the uninterrupted counts, and a frontier from a different run is refused.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.census import build_attractor_census
from repro.core.automaton import CellularAutomaton
from repro.core.budget import Budget
from repro.core.rules import MajorityRule, XorRule
from repro.harness.checkpoint import load_frontier, save_frontier
from repro.mc import McKernel, build_mc_estimate
from repro.perf.attractor import AttractorKernel
from repro.perf.counts import run_governed
from repro.spaces.line import Ring


def _ca(n: int, backend: str | None) -> CellularAutomaton:
    workers = 2 if backend == "process" else None
    return CellularAutomaton(
        Ring(n), MajorityRule(), memory=True, backend=backend, workers=workers
    )


def _case(name: str, backend: str | None, seed: int):
    """``(kernel, sharded backend or None, total, states cap)`` of a case.

    The cap trips mid-run: after one of the attractor's two 2**16-code
    chunks, or after one of the four 1024-sample MC chunks.
    """
    if name == "attractor":
        ca = _ca(17, backend)
        kernel, total, cap = AttractorKernel(ca), 1 << 17, 70_000
    else:
        ca = _ca(16, backend)
        kernel = McKernel.from_automaton(ca, seed=seed, lanes=256)
        total, cap = 4096, 1536
    return kernel, ca.backend if backend else None, total, cap


KERNELS = ["attractor", "mc"]


@pytest.mark.parametrize("backend", [None, "process"])
@pytest.mark.parametrize("name", KERNELS)
def test_trip_save_load_resume_equals_uninterrupted(name, backend, mc_seed, tmp_path):
    kernel, sharded, total, cap = _case(name, backend, mc_seed)
    whole = run_governed(kernel, total, Budget(), backend=sharded)
    assert whole.complete and whole.explored == total

    tripped = run_governed(kernel, total, Budget(max_states=cap), backend=sharded)
    assert not tripped.complete and "states" in tripped.reason
    assert 0 < tripped.explored < total
    save_frontier(tmp_path, tripped)
    loaded = load_frontier(tmp_path)
    assert loaded["next_lo"] == tripped.explored

    resumed = run_governed(kernel, total, Budget(), loaded, backend=sharded)
    assert resumed.complete
    assert np.array_equal(resumed.value, whole.value)
    assert resumed.stats == whole.stats


@pytest.mark.parametrize(
    "field, value",
    [
        ("kind", "other"),
        ("n", 5),
        ("total", 64),
        ("counts", [0, 0, 0]),
        ("automaton", "other"),
    ],
)
@pytest.mark.parametrize("name", KERNELS)
def test_mismatched_frontier_rejected(name, field, value, mc_seed):
    kernel, _, total, cap = _case(name, None, mc_seed)
    tripped = run_governed(kernel, total, Budget(max_states=cap))
    frontier = dict(tripped.frontier, **{field: value})
    with pytest.raises(ValueError, match="frontier"):
        run_governed(kernel, total, Budget(), frontier=frontier)


def _sweep_kernel(**changes) -> McKernel:
    kwargs = dict(rule=MajorityRule(), n=16, lanes=256, seed=1, schedule="sweep")
    kwargs.update(changes)
    return McKernel(**kwargs)


#: kernels that differ from ``_sweep_kernel()`` only in what they sample or
#: how they step, so a frontier of one must not resume another
OTHER_RUNS = {
    "parallel": lambda: _sweep_kernel(schedule="parallel"),
    "seed": lambda: _sweep_kernel(seed=2),
    "rule": lambda: _sweep_kernel(rule=XorRule()),
    "order": lambda: _sweep_kernel(perm=range(15, -1, -1)),
    "family": lambda: _sweep_kernel(family="density", density=0.3),
    "horizon": lambda: _sweep_kernel(horizon=100),
}


@pytest.mark.parametrize("other", sorted(OTHER_RUNS))
def test_mc_frontier_of_another_run_rejected(other):
    tripped = build_mc_estimate(_sweep_kernel(), 2048, budget=Budget(max_states=1536))
    assert not tripped.complete
    with pytest.raises(ValueError, match="frontier was saved by"):
        build_mc_estimate(OTHER_RUNS[other](), 2048, frontier=tripped.frontier)
    resumed = build_mc_estimate(_sweep_kernel(), 2048, frontier=tripped.frontier)
    assert resumed.value == build_mc_estimate(_sweep_kernel(), 2048).value


def _frontier_json(tmp_path, partial) -> dict:
    save_frontier(tmp_path, partial)
    meta = json.loads((tmp_path / "frontier.json").read_text())
    meta.pop("saved_ts")
    return meta


def test_sharded_state_cap_matches_serial(tmp_path):
    frontiers = {}
    for backend in (None, "process"):
        partial = build_attractor_census(
            _ca(17, backend), budget=Budget(max_states=70_000)
        )
        assert not partial.complete
        frontiers[backend] = _frontier_json(tmp_path / str(backend), partial)
    assert frontiers["process"] == frontiers[None]
    assert frontiers[None]["next_lo"] == 1 << 16


def test_mc_energy_gate_is_recomputed_per_call():
    kernel = McKernel(MajorityRule(), 1000, seed=0, lanes=64)
    assert build_mc_estimate(kernel, 64).value["energy_enabled"] is True
    huge = build_mc_estimate(kernel, 30_000_000_000, budget=Budget(max_states=1))
    assert not huge.complete
    assert kernel.energy_enabled is False  # the oversized run's own gate
    assert build_mc_estimate(kernel, 64).value["energy_enabled"] is True
