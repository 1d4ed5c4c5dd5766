"""Differential harness: every applicable backend against the scalar oracle.

For one :class:`~repro.qa.generators.InstanceSpec` the harness builds the
automaton once per applicable sweep backend and diffs, pairwise against
the ``step_naive`` ground truth:

* ``step_all`` — the full parallel successor array;
* ``all_node_successors`` — the ``(n, 2**n)`` sequential update matrix;
* phase-space digests — :meth:`PhaseSpace.summary` per backend;
* the governed build and the trip/resume path — a frontier computed by
  one backend is resumed by the *next* backend and must land on the same
  phase space as the uninterrupted sweep;
* scalar-vs-swept schedule steps — walking the instance's sequential
  schedule via ``update_node`` must match composing node-successor rows.

On homogeneous rings, ``differential.transfer_counts`` also diffs the
transfer-matrix fixed-point and period-two counts against the oracle; on
every instance ``differential.functional_graph`` diffs the cycle analysis
of the oracle's successor array against the reference peel, and
``differential.sequential_peel`` the flip-word sink peel and popcounts of
the oracle's sequential map against SCC and the change-edge formulas, and
``differential.sequential_reachability`` its word-set searches against
the SCC-condensation closure and scalar ``update_node`` replays.

Each check returns a structured violation dict (or ``None``), keyed in
:data:`CHECKS` so the shrinker and ``finding.json`` replay can re-run a
single named check deterministically.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.budget import Budget
from repro.core.phase_space import PhaseSpace, build_phase_space
from repro.perf import BACKENDS
from repro.qa.generators import InstanceSpec, build_automaton, build_schedule
from repro.util.bitops import int_to_bits

__all__ = [
    "Instance",
    "CHECKS",
    "DIFFERENTIAL_CHECKS",
    "applicable_backends",
    "run_check",
    "run_first_violation",
    "run_all_checks",
]

#: serial backends eligible for auto-selection in the harness (the
#: ``process`` shard layer forks per sweep — include it explicitly via
#: ``backends=[..., "process"]`` when that cost is wanted; the fuzz CLI
#: does so automatically on hosts with >= 2 CPUs)
AUTO_BACKENDS = ("numpy", "bitplane")

#: how many mismatching codes a violation records (enough to eyeball,
#: small enough to keep finding.json readable)
_MAX_DIFF_CODES = 4


def applicable_backends(
    spec: InstanceSpec, requested: list[str] | None = None
) -> list[str]:
    """Backends that support this instance, in deterministic order."""
    ca = build_automaton(spec)
    names = list(requested) if requested else list(AUTO_BACKENDS)
    out = []
    for name in names:
        if name == "auto":
            continue
        cls = BACKENDS[name]
        if cls.supports(ca) is None:
            out.append(name)
    return out


class Instance:
    """One built fuzz case: lazily computed per-backend sweep results."""

    def __init__(self, spec: InstanceSpec, backends: list[str] | None = None):
        self.spec = spec
        self.ca = build_automaton(spec)  # scalar/default-path automaton
        self.backends = applicable_backends(spec, backends)

    @cached_property
    def cas(self) -> dict:
        return {
            name: build_automaton(self.spec, backend=name)
            for name in self.backends
        }

    # -- ground truth ----------------------------------------------------------

    @cached_property
    def oracle_succ(self) -> np.ndarray:
        """Parallel successors via the scalar ``step_naive`` path."""
        n = self.ca.n
        out = np.empty(1 << n, dtype=np.int64)
        for code in range(1 << n):
            out[code] = self.ca.pack(self.ca.step_naive(int_to_bits(code, n)))
        return out

    @cached_property
    def oracle_node_succ(self) -> np.ndarray:
        """Sequential node successors derived from the parallel oracle.

        Updating node ``i`` alone replaces bit ``i`` with bit ``i`` of the
        full parallel image (each node reads only the *current* state).
        """
        n = self.ca.n
        codes = np.arange(1 << n, dtype=np.int64)
        changed = codes ^ self.oracle_succ
        out = np.empty((n, 1 << n), dtype=np.int64)
        for i in range(n):
            out[i] = codes ^ (((changed >> i) & 1) << i)
        return out

    @cached_property
    def oracle_digest(self) -> dict:
        return PhaseSpace(self.oracle_succ, self.ca.n).summary()


def _diff_codes(expected: np.ndarray, got: np.ndarray) -> dict:
    codes = np.flatnonzero(expected != got)[:_MAX_DIFF_CODES]
    return {
        "mismatches": int(np.count_nonzero(expected != got)),
        "codes": [int(c) for c in codes],
        "expected": [int(expected[c]) for c in codes],
        "got": [int(got[c]) for c in codes],
    }


# -- differential checks -------------------------------------------------------


def check_step_all(inst: Instance):
    for name in inst.backends:
        got = inst.cas[name].step_all()
        if not np.array_equal(got, inst.oracle_succ):
            return {
                "backend": name,
                "vs": "step_naive",
                **_diff_codes(inst.oracle_succ, got),
            }
    return None


def check_node_successors(inst: Instance):
    mid = inst.ca.n // 2
    for name in inst.backends:
        ca = inst.cas[name]
        got = ca.all_node_successors()
        if not np.array_equal(got, inst.oracle_node_succ):
            rows = np.flatnonzero(
                (got != inst.oracle_node_succ).any(axis=1)
            )
            i = int(rows[0])
            return {
                "backend": name,
                "vs": "step_naive",
                "path": "all_node_successors",
                "node": i,
                **_diff_codes(inst.oracle_node_succ[i], got[i]),
            }
        # Both paths run the one flip kernel, but encode its rows
        # differently: the matrix above all at once, a row below range
        # by range (``node_successors_range``).  Diff one row through it.
        row = ca.node_successors(mid)
        if not np.array_equal(row, inst.oracle_node_succ[mid]):
            return {
                "backend": name,
                "vs": "step_naive",
                "path": "node_successors_row",
                "node": mid,
                **_diff_codes(inst.oracle_node_succ[mid], row),
            }
    return None


def check_phase_digest(inst: Instance):
    seen: dict[bytes, dict] = {}
    for name in inst.backends:
        succ = np.asarray(inst.cas[name].step_all())
        key = succ.tobytes()
        if key not in seen:
            seen[key] = PhaseSpace(succ, inst.ca.n).summary()
        digest = seen[key]
        if digest != inst.oracle_digest:
            return {
                "backend": name,
                "vs": "step_naive",
                "digest": digest,
                "expected_digest": inst.oracle_digest,
            }
    return None


def check_functional_graph(inst: Instance):
    """Pointer-jumping :class:`FunctionalGraph` vs the reference peel.

    On the scalar oracle's successor array, ``on_cycle`` and ``cycles``
    must match :func:`~repro.analysis.cycles.cycles_python` (Kahn's
    in-degree peel), and ``steps_to_cycle`` and ``attractor_of`` a
    brute-force walk of every orbit to its first reference cycle node.
    The phase digests run the same jumps on both sides of their diff, so
    only this check can see a bug in them (the
    ``cycle-mask-round-early`` mutant).
    """
    from repro.analysis.cycles import FunctionalGraph, cycles_python

    succ = inst.oracle_succ
    cycles = cycles_python(succ)
    index = {v: k for k, cycle in enumerate(cycles) for v in cycle}
    on_cycle = np.zeros(succ.size, dtype=np.int64)
    on_cycle[list(index)] = 1
    steps = np.zeros(succ.size, dtype=np.int64)
    attractor = np.zeros(succ.size, dtype=np.int64)
    for v in range(succ.size):
        w = v
        while w not in index:
            w = int(succ[w])
            steps[v] += 1
        attractor[v] = index[w]
    graph = FunctionalGraph(succ)
    got = graph.on_cycle.astype(np.int64)
    if not np.array_equal(got, on_cycle):
        return {
            "vs": "cycles_python",
            "field": "on_cycle",
            **_diff_codes(on_cycle, got),
        }
    if graph.cycles != cycles:
        k = next(
            k for k in range(max(len(cycles), len(graph.cycles)))
            if graph.cycles[k : k + 1] != cycles[k : k + 1]
        )
        return {
            "vs": "cycles_python",
            "field": "cycles",
            "index": k,
            "expected": cycles[k : k + 1],
            "got": graph.cycles[k : k + 1],
        }
    for field, expected in (("steps_to_cycle", steps), ("attractor_of", attractor)):
        got = getattr(graph, field)
        if not np.array_equal(got, expected):
            return {
                "vs": "orbit_walk",
                "field": field,
                **_diff_codes(expected, got),
            }
    return None


def check_sequential_peel(inst: Instance):
    """The flip-word analysis vs SCC on the oracle's change edges.

    The oracle's sequential map, packed into flip words, must give the
    sink peel's verdict equal to "some SCC of the change-edge digraph
    has size >= 2" (:func:`~repro.analysis.cycles.scc_labels` on edges
    taken straight from ``oracle_node_succ``), and word popcounts equal
    to the edge formulas: fixed points (no change edge out),
    pseudo-fixed points (some self-loop, some change edge) and
    unreachable configurations (no change edge in).  Every phase-space
    summary runs the same peel, so only this check can see a bug in it
    (the ``sequential-peel-round-short`` mutant).
    """
    from repro.analysis.cycles import scc_labels
    from repro.core.nondet import NondetPhaseSpace

    node_succ = inst.oracle_node_succ
    size = node_succ.shape[1]
    moved = node_succ != np.arange(size, dtype=np.int64)
    srcs = np.nonzero(moved)[1]
    dsts = node_succ[moved]
    n_comp, labels = scc_labels(srcs, dsts, size)
    expected = {
        "fixed_points": int(np.count_nonzero(~moved.any(axis=0))),
        "pseudo_fixed_points": int(
            np.count_nonzero(moved.any(axis=0) & ~moved.all(axis=0))
        ),
        "has_proper_cycle": bool(
            (np.bincount(labels, minlength=n_comp) >= 2).any()
        ),
        "unreachable_configs": int(
            np.count_nonzero(np.bincount(dsts, minlength=size) == 0)
        ),
    }
    summary = NondetPhaseSpace(node_succ, inst.ca.n).summary()
    got = {key: summary[key] for key in expected}
    if got != expected:
        return {"vs": "scc_labels", "expected": expected, "got": got}
    return None


def check_sequential_reachability(inst: Instance):
    """Word-set searches vs the SCC-condensation closure.

    For a few sources of the oracle's sequential map (``n <= 14``, the
    closure's cap), ``reachable_from`` and ``coreachable_to`` (breadth-first
    searches that grow sets of flip words) must equal the row and the
    column of :class:`~repro.core.closure.ReachabilityClosure` (SciPy's SCC
    labels plus bitsets accumulated along the condensation: no code shared
    with the searches), ``can_reach`` its entry, and ``shortest_schedule``
    to a reached configuration must get there through scalar
    ``update_node`` steps that each change the configuration.
    """
    from repro.core.closure import ReachabilityClosure
    from repro.core.nondet import NondetPhaseSpace
    from repro.util.bitops import unpack_lanes

    n = inst.ca.n
    if n > 14:
        return None
    nps = NondetPhaseSpace(inst.oracle_node_succ, n)
    closure = ReachabilityClosure(nps)
    rng = np.random.default_rng(inst.spec.seed)
    for code in sorted(set(rng.integers(0, nps.size, 3).tolist())):
        row = np.flatnonzero(unpack_lanes(closure.reachable_row(code), nps.size))
        column = np.flatnonzero(
            [closure.can_reach(a, code) for a in range(nps.size)]
        )
        for query, expected in (
            ("reachable_from", row),
            ("coreachable_to", column),
        ):
            got = getattr(nps, query)(code)
            if not np.array_equal(got, expected):
                return {
                    "vs": "ReachabilityClosure",
                    "query": query,
                    "code": code,
                    "expected": expected[:_MAX_DIFF_CODES].tolist(),
                    "got": got[:_MAX_DIFF_CODES].tolist(),
                    "sizes": [int(expected.size), int(got.size)],
                }
        other = int(rng.integers(nps.size))
        if nps.can_reach(code, other) != closure.can_reach(code, other):
            return {
                "vs": "ReachabilityClosure",
                "query": "can_reach",
                "pair": [code, other],
                "expected": closure.can_reach(code, other),
            }
        target = int(row[rng.integers(row.size)])
        word = nps.shortest_schedule(code, target)
        state, effective = int_to_bits(code, n), True
        for i in word or []:
            moved = inst.ca.update_node(state, i)
            effective &= not np.array_equal(moved, state)
            state = moved
        if word is None or not effective or int(inst.ca.pack(state)) != target:
            return {
                "vs": "update_node",
                "query": "shortest_schedule",
                "pair": [code, target],
                "word": word,
                "reached": int(inst.ca.pack(state)),
            }
    return None


def check_trip_resume(inst: Instance):
    """A frontier cut by one backend, resumed by the next, must agree."""
    n = inst.ca.n
    total = 1 << n
    lo = total // 2
    codes = np.arange(lo, dtype=np.int64)
    for idx, name in enumerate(inst.backends):
        ca_a = inst.cas[name]
        ca_b = inst.cas[inst.backends[(idx + 1) % len(inst.backends)]]
        succ = np.empty(total, dtype=np.int64)
        succ[:lo] = ca_a.step_all_range(0, lo)
        frontier = {
            "kind": "phase_space",
            "n": n,
            "automaton": ca_a.describe(),
            "next_lo": lo,
            "fixed_points_so_far": int(np.count_nonzero(succ[:lo] == codes)),
            "succ": succ,
        }
        partial = build_phase_space(ca_b, budget=Budget(), frontier=frontier)
        if not partial.complete:
            return {
                "backend": name,
                "resumed_by": ca_b.backend.name,
                "error": f"resumed build truncated: {partial.reason}",
            }
        if not np.array_equal(partial.value.succ, inst.oracle_succ):
            return {
                "backend": name,
                "resumed_by": ca_b.backend.name,
                "vs": "step_naive",
                **_diff_codes(inst.oracle_succ, partial.value.succ),
            }
        expect_fp = int(
            np.count_nonzero(
                inst.oracle_succ == np.arange(total, dtype=np.int64)
            )
        )
        if int(partial.stats.get("fixed_points", -1)) != expect_fp:
            return {
                "backend": name,
                "resumed_by": ca_b.backend.name,
                "error": "resumed fixed-point count diverged",
                "expected": expect_fp,
                "got": int(partial.stats.get("fixed_points", -1)),
            }
    return None


def check_schedule_step(inst: Instance):
    """Scalar ``update_node`` walk vs node-successor composition."""
    schedule = build_schedule(inst.spec.schedule, inst.spec.n)
    if not schedule.is_sequential:
        return None
    n = inst.ca.n
    rng = np.random.default_rng(inst.spec.seed)
    state = rng.integers(0, 2, size=n).astype(np.uint8)
    code = int(inst.ca.pack(state))
    node_succ = inst.oracle_node_succ
    blocks = schedule.blocks(n)
    trail = []
    for _ in range(2 * n):
        (i,) = next(blocks)
        state = inst.ca.update_node(state, i)
        code = int(node_succ[i][code])
        trail.append((int(i), code))
        if int(inst.ca.pack(state)) != code:
            return {
                "vs": "update_node",
                "node": int(i),
                "expected": int(inst.ca.pack(state)),
                "got": code,
                "trail": trail[-3:],
            }
    return None


def check_attractor_census(inst: Instance):
    """Attractor-direct census vs the materialized functional graph.

    Runs the SWAR Brent kernel (dihedral/cyclic/trivial quotient as the
    instance admits) and diffs its weighted counts against
    :func:`~repro.analysis.cycles.cycle_length_counts` of the scalar
    oracle's successor array — the two ends of the tentpole equivalence.
    A coverage-identity failure surfaces here as a truncated census, so
    quotient bugs (the ``quotient-reflection-drop`` mutant) are findings,
    not crashes.
    """
    from repro.analysis.census import build_attractor_census
    from repro.analysis.cycles import FunctionalGraph, cycle_length_counts
    from repro.qa.generators import attractor_applicable

    if attractor_applicable(inst.spec) is not None:
        return None  # instance does not lower to bitwise kernels
    partial = build_attractor_census(inst.ca, budget=Budget())
    expected = cycle_length_counts(FunctionalGraph(inst.oracle_succ))
    if not partial.complete:
        return {
            "vs": "cycle_length_counts",
            "error": f"attractor census not exact: {partial.reason}",
            "expected": expected,
        }
    row = partial.value
    got = {
        "fixed_points": row.fixed_points,
        "cycle_configs": row.cycle_configs,
        "two_cycle_configs": row.two_cycle_configs,
        "max_cycle_len": row.max_cycle_len,
    }
    if got != expected:
        return {
            "vs": "cycle_length_counts",
            "quotient": row.quotient,
            "expected": expected,
            "got": got,
        }
    return None


def check_transfer_counts(inst: Instance):
    """Transfer-matrix fixed-point counts vs the scalar oracle's map.

    On a homogeneous ring, ``trace(T**n)`` over the de Bruijn transfer
    matrix of :mod:`repro.analysis.transfer` must count exactly the codes
    ``step_naive`` fixes, and the same trace for ``F∘F`` the codes it
    returns to in two steps.  The matrices come from the rule's lookup
    table alone, so this pins the census's fixed-point and two-cycle
    columns with code the census does not share.
    """
    from repro.analysis.transfer import transfer_counts

    if inst.spec.space != "ring" or len(inst.spec.rules) != 1:
        return None
    succ = inst.oracle_succ
    codes = np.arange(succ.size, dtype=np.int64)
    expected = {
        "fixed_points": int(np.count_nonzero(succ == codes)),
        "period2_points": int(np.count_nonzero(succ[succ] == codes)),
    }
    counts = transfer_counts(inst.ca)
    got = {
        "fixed_points": counts.fixed_points,
        "period2_points": counts.period2_points,
    }
    if got != expected:
        return {"vs": "step_naive", "expected": expected, "got": got}
    return None


def _mc_lane_codes(planes: np.ndarray, n: int, lanes: int) -> np.ndarray:
    """Configuration code of every lane of an ``(n, lanes/64)`` bitplane."""
    bits = np.unpackbits(
        np.ascontiguousarray(planes).view(np.uint8), axis=1, bitorder="little"
    )[:, :lanes].astype(np.int64)
    return (bits << np.arange(n, dtype=np.int64)[:, None]).sum(axis=0)


def check_mc_step(inst: Instance):
    """MC trajectory driver vs the scalar ``step_naive`` oracle.

    Drives one 64-lane batch of sampled configurations three parallel
    macro steps through :class:`~repro.mc.kernel.McKernel` and diffs the
    per-step lane codes against composing ``oracle_succ``; when the
    instance's schedule is a fixed permutation, also diffs one sweep
    macro step against composing the oracle's node-successor rows.
    """
    from repro.mc import sampler
    from repro.mc.kernel import McKernel
    from repro.qa.generators import mc_applicable

    if mc_applicable(inst.spec) is not None:
        return None  # instance does not lower to the MC kernel
    n = inst.ca.n
    lanes = 64
    kernel = McKernel.from_automaton(
        inst.ca, seed=inst.spec.seed, lanes=lanes
    )
    planes = sampler.sample_planes(
        "uniform", n, lanes, inst.spec.seed, 0
    )
    codes = _mc_lane_codes(planes, n, lanes)
    for step in range(3):
        planes = kernel.step(planes)
        codes = inst.oracle_succ[codes]
        got = _mc_lane_codes(planes, n, lanes)
        if not np.array_equal(got, codes):
            return {
                "vs": "step_naive",
                "path": "parallel",
                "step": step + 1,
                **_diff_codes(codes, got),
            }
    if inst.spec.schedule.get("kind") == "perm":
        perm = [int(i) for i in inst.spec.schedule["perm"]]
        sweeper = McKernel.from_automaton(
            inst.ca,
            seed=inst.spec.seed,
            lanes=lanes,
            schedule="sweep",
            perm=perm,
        )
        planes = sampler.sample_planes(
            "uniform", n, lanes, inst.spec.seed, lanes
        )
        codes = _mc_lane_codes(planes, n, lanes)
        for i in perm:
            codes = inst.oracle_node_succ[i][codes]
        got = _mc_lane_codes(sweeper.step(planes), n, lanes)
        if not np.array_equal(got, codes):
            return {
                "vs": "step_naive",
                "path": "sweep",
                "perm": perm,
                **_diff_codes(codes, got),
            }
    return None


def check_mc_sampler(inst: Instance):
    """Uniform sampler vs an inline single-draw reference.

    The uniform family must be *one* raw draw of the batch-keyed rng —
    any post-processing (like the ``mc-sampler-tail-drop`` mutant's
    silent removal of all-ones configurations) biases every downstream
    basin-mass estimate while leaving the step kernels bit-exact, so the
    stream itself is diffed, not just the dynamics.
    """
    from repro.mc import sampler
    from repro.qa.generators import mc_applicable

    if mc_applicable(inst.spec) is not None:
        return None
    n = inst.ca.n
    lanes = 4096
    got = sampler.sample_planes("uniform", n, lanes, inst.spec.seed, 0)
    rng = np.random.default_rng(
        np.random.SeedSequence([int(inst.spec.seed), 0])
    )
    expected = rng.integers(
        0,
        np.iinfo(np.uint64).max,
        size=(n, lanes // 64),
        dtype=np.uint64,
        endpoint=True,
    )
    if not np.array_equal(got, expected):
        words = np.flatnonzero((got != expected).any(axis=0))[:_MAX_DIFF_CODES]
        return {
            "vs": "reference_rng_stream",
            "family": "uniform",
            "mismatching_words": int(
                np.count_nonzero((got != expected).any(axis=0))
            ),
            "words": [int(w) for w in words],
        }
    return None


def check_mc_energy(inst: Instance):
    """MC kernel's integer energy vs the scalar sequential Lyapunov.

    Per lane of one 64-lane uniform batch, ``McKernel.energy2`` must be
    exactly twice :meth:`~repro.core.energy.ThresholdNetwork.sequential_energy`
    of the lane's configuration.  Runs wherever the rule has a count
    threshold.  On the fuzzer's small rings the ``d`` wrap-around rows of
    each neighbour AND ``x & (x shifted by d)`` carry a large share of the
    sum, which is what the ``mc-energy-wrap-drop`` mutant drops.
    """
    from repro.core.energy import ThresholdNetwork
    from repro.mc import sampler
    from repro.mc.kernel import McKernel
    from repro.qa.generators import mc_applicable

    if mc_applicable(inst.spec) is not None:
        return None
    n = inst.ca.n
    lanes = 64
    kernel = McKernel.from_automaton(inst.ca, seed=inst.spec.seed, lanes=lanes)
    if kernel.theta is None:
        return None  # no count threshold, so no energy
    net = ThresholdNetwork.from_automaton(inst.ca)
    planes = sampler.sample_planes("uniform", n, lanes, inst.spec.seed, 0)
    codes = _mc_lane_codes(planes, n, lanes)
    expected = np.array(
        [2 * net.sequential_energy(int_to_bits(int(c), n)) for c in codes],
        dtype=np.int64,
    )
    got = kernel.energy2(planes)
    bad = np.flatnonzero(got != expected)
    if bad.size:
        shown = bad[:_MAX_DIFF_CODES]
        return {
            "vs": "sequential_energy",
            "mismatches": int(bad.size),
            "codes": [int(codes[lane]) for lane in shown],
            "expected": [int(expected[lane]) for lane in shown],
            "got": [int(got[lane]) for lane in shown],
        }
    return None


from repro.qa.oracles import ORACLE_CHECKS  # noqa: E402  (registry assembly)

DIFFERENTIAL_CHECKS = {
    "differential.step_all": check_step_all,
    "differential.node_successors": check_node_successors,
    "differential.phase_digest": check_phase_digest,
    "differential.functional_graph": check_functional_graph,
    "differential.sequential_peel": check_sequential_peel,
    "differential.sequential_reachability": check_sequential_reachability,
    "differential.trip_resume": check_trip_resume,
    "differential.schedule_step": check_schedule_step,
    "differential.attractor_census": check_attractor_census,
    "differential.transfer_counts": check_transfer_counts,
    "differential.mc_step": check_mc_step,
    "differential.mc_sampler": check_mc_sampler,
    "differential.mc_energy": check_mc_energy,
}

#: full registry, in deterministic execution order
CHECKS = {**DIFFERENTIAL_CHECKS, **ORACLE_CHECKS}


def run_check(
    spec: InstanceSpec, name: str, backends: list[str] | None = None
):
    """Run one named check on a fresh instance; violation dict or None."""
    if name not in CHECKS:
        raise ValueError(f"unknown qa check {name!r}")
    inst = Instance(spec, backends)
    if not inst.backends:
        return None
    return CHECKS[name](inst)


def run_first_violation(
    spec: InstanceSpec, backends: list[str] | None = None
):
    """Run all checks in order; return ``(name, violation)`` or None."""
    inst = Instance(spec, backends)
    if not inst.backends:
        return None
    for name, fn in CHECKS.items():
        violation = fn(inst)
        if violation is not None:
            return name, violation
    return None


def run_all_checks(
    spec: InstanceSpec, backends: list[str] | None = None
) -> dict:
    """All checks on one instance: name -> violation|None (tests/debug)."""
    inst = Instance(spec, backends)
    return {name: fn(inst) for name, fn in CHECKS.items()}
