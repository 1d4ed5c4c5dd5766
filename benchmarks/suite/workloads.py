"""The four benchmark workloads: their inputs, one op, and its output checks.

Every workload runs MAJORITY (radius 1, with memory) on a ring.  A workload
object is built in a fresh interpreter, and building it is the set-up the
benchmark times: it imports the ``repro`` modules the op needs and
constructs the kernel or automaton objects.  ``run(i)`` performs op ``i``
(one governed call into the program) and returns its exact counts;
``check(counts)`` returns the failed output checks, empty when correct.

Inputs are generated here from the benchmark seed and passed to the
program: op ``i`` of a Monte-Carlo workload samples with seed
``seed + i``, and the sweep order is a permutation drawn from ``seed``.
"""

from __future__ import annotations

import os

NAMES = ("mc_parallel", "mc_sweep", "census_sharded", "exact_lemma1")

#: fixed points of the MAJORITY-with-memory ring (the configurations with
#: no isolated cell), pinned per ring size
FIXED_POINTS = {12: 324, 14: 842, 20: 15126, 26: 271442}

#: process-backend workers: at most 2, so the census does not change with
#: the size of the host
WORKERS = min(2, len(os.sched_getaffinity(0)))


def _majority():
    from repro.core.rules import MajorityRule

    return MajorityRule()


def _ring_automaton(n: int, backend: str, workers: int | None = None):
    from repro.core.automaton import CellularAutomaton
    from repro.spaces.line import Ring

    ca = CellularAutomaton(
        Ring(n), _majority(), memory=True, backend=backend, workers=workers
    )
    ca.backend  # the backend is built lazily; build it as part of set-up
    return ca


class McWorkload:
    """``build_mc_estimate`` over uniform samples under one schedule."""

    def __init__(self, name: str, seed: int, *, schedule: str, n: int, samples: int):
        import numpy as np

        from repro.mc import engine
        from repro.mc.kernel import McKernel

        self.name = name
        self.seed = seed
        self.schedule = schedule
        self.n = n
        self._engine = engine
        self._kernel_cls = McKernel
        self._rule = _majority()
        # A sweep depends on its order only through the acyclic orientation
        # the order induces (Macauley-McCammond), so sweep a seeded random
        # order rather than only the identity.
        self.perm = (
            np.random.default_rng(seed).permutation(n).tolist()
            if schedule == "sweep"
            else None
        )
        self.lanes = self.kernel(0).lanes
        self.items = engine.round_samples(samples, self.lanes)
        self.pins: dict[str, int] = {}

    def kernel(self, i: int):
        return self._kernel_cls(
            self._rule,
            self.n,
            schedule=self.schedule,
            perm=self.perm,
            seed=self.seed + i,
        )

    def run(self, i: int) -> dict:
        partial = self._engine.build_mc_estimate(self.kernel(i), self.items)
        if not partial.complete:
            raise RuntimeError(f"estimate truncated: {partial.reason}")
        return dict(partial.value["counts"])

    def check(self, counts: dict) -> list[str]:
        fp, two, und = counts["fixed_point"], counts["two_cycle"], counts["undecided"]
        bad = []
        if fp + two + und != counts["samples"] or counts["samples"] != self.items:
            bad.append(f"ledger {fp} + {two} + {und} != {self.items} samples")
        if und:
            bad.append(f"{und} samples undecided at the horizon")
        if fp <= 0.9 * self.items:
            bad.append(f"fixed-point rate {fp / self.items:.4f} <= 0.9")
        if self.schedule == "sweep" and two:
            bad.append(f"{two} sequential two-cycles (Theorem 1 forbids any)")
        return bad + _pin_failures(self.pins, counts)

    def layer_extras(self, counts: dict) -> dict[str, float]:
        """Share of executed lane-steps a lane still needed.

        A lane decided at ``conv_t`` needed ``conv_t + 1`` steps to show a
        fixed point and ``conv_t + 2`` to show a two-cycle.
        """
        needed = counts["conv_sum"] + counts["conv_count"] + counts["two_cycle"]
        return {"mc.kernel.useful_step_frac": needed / (self.lanes * counts["steps"])}


class CensusWorkload:
    """``build_attractor_census`` sharded over the process backend."""

    def __init__(self, name: str, seed: int, *, n: int):
        from repro.analysis import census
        from repro.perf.attractor import AttractorKernel

        self.name = name
        self.n = n
        self._census = census
        self.ca = _ring_automaton(n, "process", WORKERS)
        self.kernel = AttractorKernel(self.ca)
        self.items = 1 << n
        two = 2 if n % 2 == 0 else 0  # the alternating pair on even rings
        self.pins = {
            "configurations": self.items,
            "fixed_points": FIXED_POINTS[n],
            "cycle_configs": two,
            "two_cycle_configs": two,
        }

    def run(self, i: int) -> dict:
        partial = self._census.build_attractor_census(self.ca, kernel=self.kernel)
        if not partial.complete:
            raise RuntimeError(f"census truncated: {partial.reason}")
        return partial.value.summary()

    def check(self, counts: dict) -> list[str]:
        return _pin_failures(self.pins, counts)

    def layer_extras(self, counts: dict) -> dict[str, float]:
        return {"analysis.quotient.reps_per_code": counts["orbit_reps"] / self.items}


class ExactWorkload:
    """Lemma 1 on exact phase spaces: the parallel map against all interleavings."""

    def __init__(self, name: str, seed: int, *, n: int):
        from repro.core import nondet, phase_space

        self.name = name
        self.n = n
        self._phase_space = phase_space
        self._nondet = nondet
        self.ca = _ring_automaton(n, "bitplane")
        self.items = 1 << n
        self.pins = {
            "parallel_fixed_points": FIXED_POINTS[n],
            "sequential_fixed_points": FIXED_POINTS[n],
            "parallel_proper_cycle": True,
            "sequential_proper_cycle": False,
        }

    def run(self, i: int) -> dict:
        built = self._phase_space.build_phase_space(self.ca)
        if not built.complete:
            raise RuntimeError(f"phase space truncated: {built.reason}")
        ps = built.value
        counts = {
            "parallel_proper_cycle": ps.has_proper_cycle(),
            "parallel_fixed_points": int(ps.fixed_points.size),
        }
        del ps, built  # free the parallel space before the sequential one
        built = self._nondet.build_nondet_phase_space(self.ca)
        if not built.complete:
            raise RuntimeError(f"sequential phase space truncated: {built.reason}")
        nps = built.value
        counts["sequential_proper_cycle"] = nps.has_proper_cycle()
        counts["sequential_fixed_points"] = int(nps.fixed_points.size)
        return counts

    def check(self, counts: dict) -> list[str]:
        return _pin_failures(self.pins, counts)

    def layer_extras(self, counts: dict) -> dict[str, float]:
        return {}


def _pin_failures(pins: dict, counts: dict) -> list[str]:
    return [
        f"{key} = {counts.get(key)!r}, pinned {want!r}"
        for key, want in pins.items()
        if counts.get(key) != want
    ]


def make(name: str, seed: int, smoke: bool = False):
    """Build workload ``name``; ``smoke`` shrinks it to a 12-16 node ring."""
    if name == "mc_parallel":
        return McWorkload(
            name, seed, schedule="parallel",
            n=16 if smoke else 100_000, samples=256 if smoke else 2048,
        )
    if name == "mc_sweep":
        return McWorkload(
            name, seed, schedule="sweep",
            n=12 if smoke else 10_000, samples=256 if smoke else 8192,
        )
    if name == "census_sharded":
        return CensusWorkload(name, seed, n=14 if smoke else 26)
    if name == "exact_lemma1":
        return ExactWorkload(name, seed, n=12 if smoke else 20)
    raise ValueError(f"unknown workload {name!r} (want one of {', '.join(NAMES)})")
