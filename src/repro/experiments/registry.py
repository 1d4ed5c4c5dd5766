"""The experiment registry (one entry per paper artifact).

Experiment ids follow DESIGN.md's per-experiment index (E1-E16).  Each
``run`` callable is self-contained, uses only the public library API, and
returns a flat dict with at least ``{"holds": bool}``; anything else in the
dict is measurement detail recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.aca.subsumption import (
    aca_exceeds_interleavings,
    replay_parallel,
    replay_sequential,
)
from repro.core.automaton import CellularAutomaton
from repro.core.energy import (
    ThresholdNetwork,
    verify_parallel_energy_monotone,
    verify_sequential_energy_decrease,
)
from repro.core.evolution import sequential_converge
from repro.core.interleaving import interleaving_capture_report
from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule, XorRule
from repro.core.schedules import RandomPermutationSweeps, RandomSingleNode
from repro.core.theorems import (
    TheoremReport,
    check_bipartite_two_cycles,
    check_corollary1,
    check_lemma1_parallel,
    check_lemma1_sequential,
    check_lemma2_parallel,
    check_lemma2_sequential,
    check_monotone_boundary,
    check_nonhomogeneous_threshold,
    check_proposition1,
    check_theorem1,
)
from repro.interleave.programs import tosic_agha_example
from repro.obs import timed
from repro.sds.equivalence import verify_orientation_bound
from repro.sds.sds import SDS
from repro.spaces.graph import GraphSpace
from repro.spaces.infinite import SupportConfig, infinite_orbit, infinite_step
from repro.spaces.line import Ring

__all__ = ["Experiment", "EXPERIMENTS", "get_experiment", "run_experiment", "run_all"]


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable reproduction of one paper artifact."""

    id: str
    title: str
    paper_ref: str
    run: Callable[[], dict[str, object]] = field(repr=False)


def _theorem_dict(report: TheoremReport) -> dict[str, object]:
    return {
        "holds": report.holds,
        "statement": report.statement,
        "parameters": report.parameters,
        "witnesses": list(map(str, report.witnesses)),
        "counterexamples": list(map(str, report.counterexamples)),
        "details": {k: str(v) for k, v in report.details.items()},
    }


def _xor_two_node_ca() -> CellularAutomaton:
    """The paper's Fig. 1 automaton: two nodes, XOR of self and neighbor."""
    return CellularAutomaton(GraphSpace(nx.path_graph(2)), XorRule(), memory=True)


# -- E1 / E2: Figure 1 -----------------------------------------------------------


def run_fig1_parallel() -> dict[str, object]:
    """Figure 1(a): phase space of the parallel two-node XOR CA."""
    ca = _xor_two_node_ca()
    ps = PhaseSpace.from_automaton(ca)
    # Codes are little-endian: bit 0 = node 1 of the paper, bit 1 = node 2.
    expected_succ = [0b00, 0b11, 0b11, 0b00]
    succ_ok = ps.succ.tolist() == expected_succ
    sink_ok = (
        ps.fixed_points.tolist() == [0]
        and ps.max_transient() <= 2
        and not ps.has_proper_cycle()
    )
    return {
        "holds": succ_ok and sink_ok,
        "successors": ps.succ.tolist(),
        "expected": expected_succ,
        "fixed_points": ps.fixed_points.tolist(),
        "max_steps_to_sink": ps.max_transient(),
    }


def run_fig1_sequential() -> dict[str, object]:
    """Figure 1(b): phase space of the sequential two-node XOR CA."""
    ca = _xor_two_node_ca()
    nps = NondetPhaseSpace.from_automaton(ca)
    expected = {
        # code -> (successor updating node 0, successor updating node 1)
        0b00: (0b00, 0b00),
        0b01: (0b01, 0b11),  # '10' in paper order: node1=1, node2=0
        0b10: (0b11, 0b10),  # '01' in paper order
        0b11: (0b10, 0b01),
    }
    trans_ok = all(
        tuple(dst for _, dst in nps.transitions(c)) == exp
        for c, exp in expected.items()
    )
    facts = {
        "fixed_points": nps.fixed_points.tolist(),
        "pseudo_fixed_points": sorted(nps.pseudo_fixed_points.tolist()),
        "unreachable": nps.unreachable_configs().tolist(),
        "has_proper_cycle": nps.has_proper_cycle(),
        "two_cycle_witness": nps.find_two_cycle(),
        "reach_00_from_11": nps.can_reach(0b11, 0b00),
    }
    facts_ok = (
        facts["fixed_points"] == [0]
        and facts["pseudo_fixed_points"] == [1, 2]
        and facts["unreachable"] == [0]
        and facts["has_proper_cycle"] is True
        and facts["two_cycle_witness"] is not None
        and facts["reach_00_from_11"] is False
    )
    # Section 3.1's stronger phrasing: no sequential order induces a map
    # even *isomorphic* to the parallel one.
    from repro.analysis.isomorphism import functional_graphs_isomorphic
    from repro.sds.sds import SDS

    parallel_map = ca.step_all()
    sds = SDS(ca.space, ca.rule)
    none_isomorphic = not any(
        functional_graphs_isomorphic(parallel_map, sds.word_map(list(word)))
        for word in ((0,), (1,), (0, 1), (1, 0), (0, 0), (1, 1))
    )
    facts["no_sequential_order_isomorphic_to_parallel"] = none_isomorphic
    return {
        "holds": trans_ok and facts_ok and none_isomorphic,
        "transitions_match": trans_ok,
        **facts,
    }


# -- E3: Section 1.1 granularity example ---------------------------------------------


def run_granularity() -> dict[str, object]:
    """Section 1.1: x+=1 || x+=2 at statement vs. machine granularity."""
    rep = tosic_agha_example()
    values = lambda outs: sorted(dict(o)["x"] for o in outs)  # noqa: E731
    return {
        "holds": (
            rep.parallel_escapes_high_level
            and rep.machine_captures_parallel
            and rep.machine_captures_high_level
        ),
        "high_level_sequential_x": values(rep.high_level_outcomes),
        "parallel_x": values(rep.parallel_outcomes_),
        "machine_x": values(rep.machine_outcomes),
        "machine_interleavings": rep.machine_interleavings,
    }


# -- E4-E10: theorems ------------------------------------------------------------------


def run_lemma1_parallel() -> dict[str, object]:
    """Lemma 1(i)."""
    return _theorem_dict(check_lemma1_parallel())


def run_lemma1_sequential() -> dict[str, object]:
    """Lemma 1(ii)."""
    return _theorem_dict(check_lemma1_sequential())


def run_theorem1() -> dict[str, object]:
    """Theorem 1."""
    return _theorem_dict(check_theorem1())


def run_lemma2() -> dict[str, object]:
    """Lemma 2, both parts."""
    par = check_lemma2_parallel()
    seq = check_lemma2_sequential()
    return {
        "holds": par.holds and seq.holds,
        "parallel": _theorem_dict(par),
        "sequential": _theorem_dict(seq),
    }


def run_corollary1() -> dict[str, object]:
    """Corollary 1."""
    return _theorem_dict(check_corollary1())


def run_proposition1() -> dict[str, object]:
    """Proposition 1 plus the two Lyapunov-energy audits."""
    report = check_proposition1()
    ca = CellularAutomaton(Ring(12), MajorityRule(), memory=True)
    rng = np.random.default_rng(2004)
    inits = rng.integers(0, 2, size=(64, ca.n)).astype(np.uint8)
    seq_audit = verify_sequential_energy_decrease(
        ca, RandomPermutationSweeps(7), inits
    )
    par_audit = verify_parallel_energy_monotone(ca, inits)
    return {
        "holds": report.holds and seq_audit.holds and par_audit.holds,
        "exhaustive": _theorem_dict(report),
        "sequential_energy_strictly_decreases": seq_audit.holds,
        "sequential_min_energy_drop": seq_audit.min_decrease,
        "parallel_energy_monotone": par_audit.holds,
    }


def run_bipartite() -> dict[str, object]:
    """Bipartite two-cycle constructions."""
    return _theorem_dict(check_bipartite_two_cycles())


# -- E11: the headline interleaving failure --------------------------------------------


def run_interleaving_failure() -> dict[str, object]:
    """No sequential interleaving captures the parallel threshold CA.

    Besides the exhaustive 8-ring audit, measures how the capture rates
    *scale*: the interleaving semantics gets monotonically worse as the
    automaton grows.
    """
    ca = CellularAutomaton(Ring(8), MajorityRule(), memory=True)
    rep = interleaving_capture_report(ca)
    step_series: dict[int, float] = {}
    orbit_series: dict[int, float] = {}
    for n in (6, 8, 10, 12):
        r = interleaving_capture_report(
            CellularAutomaton(Ring(n), MajorityRule(), memory=True)
        )
        step_series[n] = round(r.step_capture_rate, 4)
        orbit_series[n] = round(r.orbit_capture_rate, 4)
    sizes = sorted(step_series)
    rates_decay = all(
        step_series[a] > step_series[b] and orbit_series[a] >= orbit_series[b]
        for a, b in zip(sizes, sizes[1:])
    )
    return {
        # The paper's claim *holds* exactly when capture *fails* here.
        "holds": (
            not rep.interleavings_capture_concurrency
            and not rep.sequential_has_cycle
            and len(rep.orbit_capture_failures) > 0
            and rates_decay
        ),
        "automaton": rep.automaton,
        "configurations": rep.total_configs,
        "step_capture_rate": rep.step_capture_rate,
        "orbit_capture_rate": rep.orbit_capture_rate,
        "orbit_failures": len(rep.orbit_capture_failures),
        "parallel_two_cycle_basin": rep.parallel_two_cycle_configs,
        "sequential_has_cycle": rep.sequential_has_cycle,
        "step_capture_by_size": step_series,
        "orbit_capture_by_size": orbit_series,
        "capture_rates_decay_with_n": rates_decay,
    }


# -- E12: fair convergence ---------------------------------------------------------------


def run_fair_convergence() -> dict[str, object]:
    """Fair threshold SCA always converge to a fixed point, within the
    energy bound on effective flips."""
    ca = CellularAutomaton(Ring(12), MajorityRule(), memory=True)
    bound = ThresholdNetwork.from_automaton(ca).max_flip_bound()
    rng = np.random.default_rng(41)
    schedules = [
        RandomPermutationSweeps(11),
        RandomPermutationSweeps(12),
        RandomSingleNode(13),
    ]
    runs = 0
    converged = 0
    worst_flips = 0
    for schedule in schedules:
        for _ in range(32):
            x0 = rng.integers(0, 2, size=ca.n).astype(np.uint8)
            res = sequential_converge(ca, x0, schedule, max_updates=20_000)
            runs += 1
            converged += int(res.converged)
            worst_flips = max(worst_flips, res.effective_flips)
    return {
        "holds": converged == runs and worst_flips <= bound,
        "runs": runs,
        "converged": converged,
        "worst_effective_flips": worst_flips,
        "energy_flip_bound": bound,
    }


# -- E13: ACA subsumption ---------------------------------------------------------------


def run_aca_subsumption() -> dict[str, object]:
    """ACA replay CA and SCA exactly, and exceed both."""
    ca = CellularAutomaton(Ring(9), MajorityRule(), memory=True)
    rng = np.random.default_rng(5)
    x0 = rng.integers(0, 2, size=ca.n).astype(np.uint8)
    par_aca, par_ca = replay_parallel(ca, x0, 8)
    word = rng.integers(0, ca.n, size=40).tolist()
    seq_aca, seq_sca = replay_sequential(ca, x0, word)
    exceeds = aca_exceeds_interleavings()
    return {
        "holds": (
            bool(np.array_equal(par_aca, par_ca))
            and bool(np.array_equal(seq_aca, seq_sca))
            and exceeds.exceeded
        ),
        "parallel_replay_exact": bool(np.array_equal(par_aca, par_ca)),
        "sequential_replay_exact": bool(np.array_equal(seq_aca, seq_sca)),
        "aca_reached": exceeds.reached,
        "sca_reachable_set": list(exceeds.sequentially_reachable),
        "aca_exceeds_sca": exceeds.exceeded,
    }


# -- E14: SDS update-order equivalence ------------------------------------------------------


def run_sds_equivalence() -> dict[str, object]:
    """Distinct SDS maps vs. the acyclic-orientation bound, several graphs."""
    graphs = {
        "cycle5": nx.cycle_graph(5),
        "path5": nx.path_graph(5),
        "star4": nx.star_graph(4),
        "complete4": nx.complete_graph(4),
    }
    results = {}
    holds = True
    for name, g in graphs.items():
        rep = verify_orientation_bound(SDS(g, MajorityRule()))
        results[name] = {
            "distinct_maps": rep.distinct_maps,
            "acyclic_orientations": rep.acyclic_orientations,
            "bound_holds": rep.bound_holds,
        }
        holds &= rep.bound_holds
    return {"holds": holds, **results}


# -- E15: engine throughput ----------------------------------------------------------------


def run_engine_scaling() -> dict[str, object]:
    """Vectorized vs. naive synchronous step (correctness + a quick timing).

    Precise timings live in ``benchmarks/bench_engine_scaling.py``; this
    registry entry checks agreement and reports a coarse speedup.
    """
    ca = CellularAutomaton(Ring(4096), MajorityRule(), memory=True)
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2, size=ca.n).astype(np.uint8)
    fast = ca.step(x)
    slow = ca.step_naive(x)
    agree = bool(np.array_equal(fast, slow))

    with timed("engine.step_vectorized_x20") as fast_sw:
        for _ in range(20):
            ca.step(x)
    fast_t = fast_sw.elapsed / 20
    with timed("engine.step_naive") as slow_sw:
        ca.step_naive(x)
    slow_t = slow_sw.elapsed
    return {
        "holds": agree and fast_t < slow_t,
        "n": ca.n,
        "vectorized_step_s": fast_t,
        "naive_step_s": slow_t,
        "speedup": slow_t / fast_t if fast_t > 0 else float("inf"),
    }


# -- E16: the infinite line ----------------------------------------------------------------


def run_infinite_line() -> dict[str, object]:
    """Exact infinite-line dynamics: witnesses and convergence.

    The alternating background is a genuine two-cycle of the *infinite*
    parallel MAJORITY CA; finite-support perturbations settle into orbits
    of period <= 2 (Proposition 1 in the infinite setting, checked exactly
    on eventually periodic configurations).
    """
    rule = MajorityRule().with_arity(3)
    alt = SupportConfig.periodic("01")
    t_alt, p_alt, _ = infinite_orbit(rule, alt)
    finite = SupportConfig.finite("110100111010011")
    t_fin, p_fin, _ = infinite_orbit(rule, finite)
    # A solid 1-block inside the alternating background *invades* it one
    # cell per side per step: a divergent orbit, possible only on the
    # infinite line ("if computation ... converges at all", Sec. 3).
    bumped = SupportConfig.build("01", "1111", "01", lo=0)
    steps = 12
    current = bumped
    widths = []
    for _ in range(steps):
        current = infinite_step(rule, current)
        widths.append(len(current.core))
    diverges = all(b > a for a, b in zip(widths, widths[1:]))
    return {
        "holds": (t_alt, p_alt) == (0, 2) and p_fin <= 2 and diverges,
        "alternating_orbit": {"transient": t_alt, "period": p_alt},
        "finite_support_orbit": {"transient": t_fin, "period": p_fin},
        "invading_block_core_widths": widths,
        "invading_block_diverges": diverges,
    }


# -- E17/E18: Section 4 extensions ("future work" the paper sketches) ---------------


def run_nonhomogeneous() -> dict[str, object]:
    """Non-homogeneous threshold CA keep the paper's dichotomy."""
    return _theorem_dict(check_nonhomogeneous_threshold())


def run_monotone_boundary() -> dict[str, object]:
    """Where sequential computations catch up: exactly the shift rules."""
    report = check_monotone_boundary()
    out = _theorem_dict(report)
    # The shift CA is also the case where sequential *can* reproduce the
    # parallel orbit structure: its nondeterministic phase space cycles.
    from repro.core.rules import TableRule

    shift = TableRule([0, 1, 0, 1, 0, 1, 0, 1], name="left-shift")
    ca = CellularAutomaton(Ring(6), shift, memory=True)
    nps = NondetPhaseSpace.from_automaton(ca)
    out["shift_sequential_has_cycles"] = bool(nps.has_proper_cycle())
    out["holds"] = bool(out["holds"]) and bool(nps.has_proper_cycle())
    return out


# -- E19/E20: census and synchrony-threshold studies ([19]-style analysis) -----------


def run_block_synchrony() -> dict[str, object]:
    """How much synchrony does oscillation need?  All of it."""
    from repro.core.block_maps import check_block_synchrony

    return _theorem_dict(check_block_synchrony())


def run_phase_space_census() -> dict[str, object]:
    """Census of MAJORITY-ring phase spaces, with an exact FP recurrence."""
    from repro.analysis.census import find_linear_recurrence, majority_ring_census

    rows = majority_ring_census(range(3, 15))
    fps = [r.fixed_points for r in rows]
    recurrence = find_linear_recurrence(fps)
    cycle_ok = all(
        r.cycle_configs == (2 if r.n % 2 == 0 else 0) for r in rows
    )
    fractions = [r.garden_fraction for r in rows]
    gardens_grow = all(a < b for a, b in zip(fractions[2:], fractions[3:]))
    return {
        "holds": recurrence is not None and cycle_ok and gardens_grow,
        "sizes": [r.n for r in rows],
        "fixed_points": fps,
        "fp_recurrence_order": None if recurrence is None else recurrence[0],
        "fp_recurrence": None
        if recurrence is None
        else [str(c) for c in recurrence[1]],
        "cycle_configs": [r.cycle_configs for r in rows],
        "garden_fractions": [round(f, 4) for f in fractions],
        "max_transients": [r.max_transient for r in rows],
    }


# -- E22: alpha-asynchronism ------------------------------------------------------------


def run_alpha_asynchronism() -> dict[str, object]:
    """The synchrony dial, probabilistic version: any alpha < 1 kills the
    oscillation almost surely; alpha = 1 sustains it forever.

    From the alternating configuration of a MAJORITY ring, every
    alpha-asynchronous run (each node fires independently with
    probability alpha per step) hits a fixed point; the pure synchronous
    run (alpha = 1) never does.  Mean survival time of the oscillation is
    reported per alpha.
    """
    from repro.core.schedules import AlphaAsynchronous

    n = 12
    ca = CellularAutomaton(Ring(n), MajorityRule(), memory=True)
    alt = np.arange(n, dtype=np.uint8) % 2
    survival: dict[float, float] = {}
    all_converged = True
    for alpha in (0.3, 0.5, 0.7, 0.9):
        times = []
        for seed in range(40):
            res = sequential_converge(
                ca, alt, AlphaAsynchronous(alpha, seed=seed), max_updates=5_000
            )
            all_converged &= res.converged
            times.append(res.updates_used)
        survival[alpha] = float(np.mean(times))
    sync = sequential_converge(
        ca, alt, AlphaAsynchronous(1.0, seed=0), max_updates=2_000
    )
    return {
        "holds": all_converged and not sync.converged,
        "ring": n,
        "mean_steps_to_fixed_point_by_alpha": survival,
        "alpha_1_converges": sync.converged,
        "runs_per_alpha": 40,
    }


# -- E21: the complete radius-1 picture -----------------------------------------------


def run_elementary_survey() -> dict[str, object]:
    """All 256 elementary rules vs. the paper's dichotomy."""
    from repro.analysis.elementary import survey_all_rules, survey_summary

    summary = survey_summary(survey_all_rules(ring_sizes=(5, 6, 7)))
    summary["holds"] = (
        summary["theorem1_violations"] == []
        and summary["monotone_sequential_cyclers"]
        == summary["expected_monotone_cyclers"]
        and summary["monotone_symmetric"] == 5
    )
    return summary


EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in [
        Experiment("E1", "Figure 1(a): parallel two-node XOR phase space",
                   "Fig. 1(a)", run_fig1_parallel),
        Experiment("E2", "Figure 1(b): sequential two-node XOR phase space",
                   "Fig. 1(b)", run_fig1_sequential),
        Experiment("E3", "x+=1 || x+=2 at two granularities",
                   "Sec. 1.1", run_granularity),
        Experiment("E4", "Parallel MAJORITY r=1 has two-cycles",
                   "Lemma 1(i)", run_lemma1_parallel),
        Experiment("E5", "Sequential MAJORITY r=1 is cycle-free",
                   "Lemma 1(ii)", run_lemma1_sequential),
        Experiment("E6", "All monotone symmetric SCA are cycle-free",
                   "Theorem 1", run_theorem1),
        Experiment("E7", "Radius-2 MAJORITY: cycles in parallel, none sequential",
                   "Lemma 2", run_lemma2),
        Experiment("E8", "Two-cycles exist for every radius",
                   "Corollary 1", run_corollary1),
        Experiment("E9", "Threshold orbits have period <= 2 (+ energy audits)",
                   "Proposition 1", run_proposition1),
        Experiment("E10", "Bipartite spaces give parallel two-cycles",
                   "Sec. 3", run_bipartite),
        Experiment("E11", "Interleavings fail to capture threshold concurrency",
                   "Sec. 3 (main result)", run_interleaving_failure),
        Experiment("E12", "Fair threshold SCA converge to fixed points",
                   "Sec. 3, footnote 2", run_fair_convergence),
        Experiment("E13", "ACA subsume CA and SCA, and exceed them",
                   "Sec. 4", run_aca_subsumption),
        Experiment("E14", "SDS update-order equivalence vs. acyclic orientations",
                   "Sec. 4 / refs [3-6]", run_sds_equivalence),
        Experiment("E15", "Vectorized engine vs. naive reference",
                   "(implementation ablation)", run_engine_scaling),
        Experiment("E16", "Exact infinite-line dynamics",
                   "Sec. 3 (infinite case)", run_infinite_line),
        Experiment("E17", "Non-homogeneous threshold CA keep the dichotomy",
                   "Sec. 4 (extension)", run_nonhomogeneous),
        Experiment("E18", "Monotone boundary: only shift rules cycle sequentially",
                   "Sec. 4 (open question)", run_monotone_boundary),
        Experiment("E19", "Only perfect synchrony oscillates (block-sequential sweep)",
                   "Sec. 4 (synchrony remark)", run_block_synchrony),
        Experiment("E20", "Phase-space census: fixed-point recurrence, Gardens of Eden",
                   "ref [19] programme", run_phase_space_census),
        Experiment("E21", "All 256 elementary rules vs. the paper's dichotomy",
                   "Sec. 3 (rule-class landscape)", run_elementary_survey),
        Experiment("E22", "Alpha-asynchronism: any alpha < 1 kills the oscillation",
                   "Sec. 4 (bounded asynchrony)", run_alpha_asynchronism),
    ]
}


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment by id (case-insensitive)."""
    key = exp_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def run_experiment(exp_id: str) -> dict[str, object]:
    """Run one experiment and return its result dict.

    Every run is timed into the metrics registry as
    ``experiment.<ID>`` so reports and run artifacts can show where the
    reproduction spends its time.  ``inject("experiment.<ID>")`` is the
    fault-injection checkpoint the resilience tests arm (a no-op unless
    ``REPRO_FAULTS`` / :func:`repro.harness.install` said otherwise).
    """
    from repro.harness import faults

    exp = get_experiment(exp_id)
    with timed(f"experiment.{exp.id}"):
        faults.inject(f"experiment.{exp.id}")
        return exp.run()


def run_all(runner=None) -> dict[str, dict[str, object]]:
    """Run the whole registry (the full paper reproduction).

    With no ``runner`` this is the bare historical loop: the first
    exception aborts the batch.  Pass a
    :class:`repro.harness.ExperimentRunner` to get structured error
    capture, timeouts, retries, isolation and checkpoint/resume — one
    broken experiment then costs one ``status: "error"`` row, not the
    reproduction.
    """
    if runner is not None:
        return runner.run_many(EXPERIMENTS)
    return {eid: run_experiment(eid) for eid in EXPERIMENTS}
