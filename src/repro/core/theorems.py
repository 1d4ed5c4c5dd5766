"""Executable versions of the paper's formal results.

Each ``check_*`` function reproduces one lemma/theorem/corollary/proposition
as an exhaustive finite verification plus (where the paper gives one) an
explicit witness construction, and returns a structured
:class:`TheoremReport`.  The benchmark harness runs these checks and
EXPERIMENTS.md records their verdicts against the paper's claims.

Conventions (Section 3 of the paper): Boolean automata, rules *with memory*
unless noted, finite cellular spaces are rings (circular boundary), and the
infinite results are checked exactly on the two-way infinite line via
:mod:`repro.spaces.infinite`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.automaton import CellularAutomaton
from repro.core.boolean import monotone_symmetric_functions
from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule, SimpleThresholdRule, TableRule
from repro.spaces.base import FiniteSpace
from repro.spaces.grid import Grid2D
from repro.spaces.hypercube import Hypercube
from repro.spaces.infinite import SupportConfig, infinite_step
from repro.spaces.line import Ring
from repro.util.bitops import bits_to_int, config_str

__all__ = [
    "TheoremReport",
    "alternating_config",
    "block_config",
    "check_lemma1_parallel",
    "check_lemma1_sequential",
    "check_theorem1",
    "check_lemma2_parallel",
    "check_lemma2_sequential",
    "check_corollary1",
    "check_proposition1",
    "check_bipartite_two_cycles",
    "check_nonhomogeneous_threshold",
    "check_monotone_boundary",
]


@dataclass(frozen=True)
class TheoremReport:
    """Verdict of one executable theorem check.

    ``holds`` is True when every instance checked agrees with the paper;
    ``witnesses`` carries positive evidence (e.g. the two-cycles a lemma
    promises), ``counterexamples`` any violations (always empty when
    ``holds``), and ``details`` per-instance measurements.
    """

    name: str
    statement: str
    holds: bool
    parameters: dict[str, object] = field(default_factory=dict)
    witnesses: tuple[object, ...] = ()
    counterexamples: tuple[object, ...] = ()
    details: dict[str, object] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


# -- witness constructions ----------------------------------------------------


def alternating_config(n: int) -> np.ndarray:
    """The configuration ``0101...`` on ``n`` nodes (node i has state i mod 2).

    The paper's Lemma 1(i) two-cycle witness (for even rings and odd radii).
    """
    return (np.arange(n) % 2).astype(np.uint8)


def block_config(n: int, radius: int) -> np.ndarray:
    """Blocks of ``radius`` zeros then ``radius`` ones, repeated: ``0^r 1^r ...``.

    Corollary 1's two-cycle witness for radius ``r``; needs ``2r | n``.
    """
    if n % (2 * radius):
        raise ValueError(f"block config needs n divisible by {2 * radius}")
    return ((np.arange(n) % (2 * radius)) >= radius).astype(np.uint8)


def _is_two_cycle(ca: CellularAutomaton, state: np.ndarray) -> bool:
    """True iff ``state`` lies on a proper two-cycle of the parallel map."""
    one = ca.step(state)
    two = ca.step(one)
    return (not np.array_equal(one, state)) and np.array_equal(two, state)


# -- Lemma 1 --------------------------------------------------------------------


def check_lemma1_parallel(
    ring_sizes: Iterable[int] = (4, 6, 8, 10, 12, 14),
    exhaustive_limit: int = 14,
) -> TheoremReport:
    """Lemma 1(i): parallel 1-D MAJORITY CA (r=1) have temporal cycles.

    For each even ring size the alternating configuration is verified to be
    a two-cycle; rings up to ``exhaustive_limit`` get a full phase-space
    search confirming the two-cycles found are real and of period exactly 2.
    The infinite-line witness ``...0101...`` is checked exactly via the
    eventually-periodic configuration machinery.
    """
    witnesses: list[object] = []
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    sizes = sorted(set(int(n) for n in ring_sizes))
    for n in sizes:
        if n % 2:
            raise ValueError(f"Lemma 1(i) witness needs even ring size, got {n}")
        ca = CellularAutomaton(Ring(n, radius=1), MajorityRule(), memory=True)
        alt = alternating_config(n)
        if _is_two_cycle(ca, alt):
            witnesses.append((n, config_str(bits_to_int(alt), n)))
        else:
            counterexamples.append((n, "alternating configuration not a two-cycle"))
        if n <= exhaustive_limit:
            ps = PhaseSpace.from_automaton(ca)
            proper = ps.proper_cycles
            details[f"ring{n}_proper_cycles"] = len(proper)
            details[f"ring{n}_cycle_lengths"] = sorted(len(c) for c in proper)
            if not proper:
                counterexamples.append((n, "no proper cycle in exhaustive search"))

    # Infinite line: ...0101... <-> ...1010... is an exact two-cycle.
    rule = MajorityRule().with_arity(3)
    alt_inf = SupportConfig.periodic("01")
    image = infinite_step(rule, alt_inf)
    back = infinite_step(rule, image)
    infinite_ok = image != alt_inf and back == alt_inf
    details["infinite_line_two_cycle"] = infinite_ok
    if infinite_ok:
        witnesses.append(("infinite", "(01)* <-> (10)*"))
    else:
        counterexamples.append(("infinite", "periodic 01 not a two-cycle"))

    return TheoremReport(
        name="Lemma 1(i)",
        statement=(
            "1-D parallel CA with r=1 and the MAJORITY update rule have "
            "finite temporal cycles in the phase space"
        ),
        holds=not counterexamples,
        parameters={"ring_sizes": sizes, "radius": 1},
        witnesses=tuple(witnesses),
        counterexamples=tuple(counterexamples),
        details=details,
    )


def check_lemma1_sequential(
    ring_sizes: Iterable[int] = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
) -> TheoremReport:
    """Lemma 1(ii): sequential 1-D MAJORITY CA (r=1) are cycle-free.

    Exhaustive: the full nondeterministic transition graph over all
    configurations and all node choices is built for each ring size, and
    searched for strongly connected components of size >= 2 — none may
    exist, *irrespective of the update ordering* (the nondeterministic
    graph subsumes every ordering).
    """
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    sizes = sorted(set(int(n) for n in ring_sizes))
    for n in sizes:
        ca = CellularAutomaton(Ring(n, radius=1), MajorityRule(), memory=True)
        nps = NondetPhaseSpace.from_automaton(ca)
        cyc = nps.has_proper_cycle()
        details[f"ring{n}_has_cycle"] = cyc
        details[f"ring{n}_fixed_points"] = int(nps.fixed_points.size)
        if cyc:
            counterexamples.append((n, "proper cycle found in sequential PS"))
    return TheoremReport(
        name="Lemma 1(ii)",
        statement=(
            "1-D sequential CA with r=1 and the MAJORITY update rule have no "
            "finite cycles in the phase space, irrespective of update order"
        ),
        holds=not counterexamples,
        parameters={"ring_sizes": sizes, "radius": 1},
        counterexamples=tuple(counterexamples),
        details=details,
    )


# -- Theorem 1 --------------------------------------------------------------------


def check_theorem1(
    ring_sizes: Iterable[int] = (3, 4, 5, 6, 7, 8, 9, 10),
    radius: int = 1,
) -> TheoremReport:
    """Theorem 1: every monotone symmetric Boolean SCA (r=1) is cycle-free.

    The class of monotone symmetric rules at arity ``2r + 1`` is exactly the
    ``2r + 3`` count-threshold functions; each is checked exhaustively on
    every requested ring size.
    """
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    sizes = sorted(set(int(n) for n in ring_sizes))
    arity = 2 * radius + 1
    rules = list(monotone_symmetric_functions(arity))
    for t, func in enumerate(rules):
        rule = TableRule(func, name=f"threshold>={t}")
        for n in sizes:
            if n < 2 * radius + 1:
                continue
            ca = CellularAutomaton(Ring(n, radius=radius), rule, memory=True)
            nps = NondetPhaseSpace.from_automaton(ca)
            if nps.has_proper_cycle():
                counterexamples.append((n, rule.name))
    details["rules_checked"] = len(rules)
    details["rule_class"] = f"monotone symmetric, arity {arity}"
    return TheoremReport(
        name="Theorem 1",
        statement=(
            "For any monotone symmetric Boolean 1-D sequential CA and any "
            "update order, the phase space is cycle-free"
        ),
        holds=not counterexamples,
        parameters={"ring_sizes": sizes, "radius": radius},
        counterexamples=tuple(counterexamples),
        details=details,
    )


# -- Lemma 2 (radius 2) ------------------------------------------------------------


def check_lemma2_parallel(
    ring_sizes: Iterable[int] = (8, 12, 16),
    exhaustive_limit: int = 12,
) -> TheoremReport:
    """Lemma 2(i): parallel 1-D MAJORITY CA with r=2 have cycles.

    The witness is Corollary 1's block configuration ``0^2 1^2 0^2 1^2 ...``
    (ring sizes divisible by 4), plus exhaustive search at small sizes and
    the exact infinite-line check of the periodic word ``0011``.
    """
    witnesses: list[object] = []
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    sizes = sorted(set(int(n) for n in ring_sizes))
    for n in sizes:
        if n % 4:
            raise ValueError(f"Lemma 2(i) witness needs 4 | n, got {n}")
        ca = CellularAutomaton(Ring(n, radius=2), MajorityRule(), memory=True)
        blocks = block_config(n, radius=2)
        if _is_two_cycle(ca, blocks):
            witnesses.append((n, config_str(bits_to_int(blocks), n)))
        else:
            counterexamples.append((n, "block configuration not a two-cycle"))
        if n <= exhaustive_limit:
            ps = PhaseSpace.from_automaton(ca)
            details[f"ring{n}_proper_cycles"] = len(ps.proper_cycles)
            if not ps.proper_cycles:
                counterexamples.append((n, "no proper cycle in exhaustive search"))

    rule = MajorityRule().with_arity(5)
    blocks_inf = SupportConfig.periodic("0011")
    image = infinite_step(rule, blocks_inf)
    back = infinite_step(rule, image)
    infinite_ok = image != blocks_inf and back == blocks_inf
    details["infinite_line_two_cycle"] = infinite_ok
    if infinite_ok:
        witnesses.append(("infinite", "(0011)* <-> (1100)*"))
    else:
        counterexamples.append(("infinite", "periodic 0011 not a two-cycle"))

    return TheoremReport(
        name="Lemma 2(i)",
        statement=(
            "1-D parallel CA with r=2 and the MAJORITY update rule have "
            "finite cycles in the phase space"
        ),
        holds=not counterexamples,
        parameters={"ring_sizes": sizes, "radius": 2},
        witnesses=tuple(witnesses),
        counterexamples=tuple(counterexamples),
        details=details,
    )


def check_lemma2_sequential(
    ring_sizes: Iterable[int] = (5, 6, 7, 8, 9, 10, 11),
) -> TheoremReport:
    """Lemma 2(ii): sequential 1-D MAJORITY CA with r=2 are cycle-free."""
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    sizes = sorted(set(int(n) for n in ring_sizes))
    for n in sizes:
        ca = CellularAutomaton(Ring(n, radius=2), MajorityRule(), memory=True)
        nps = NondetPhaseSpace.from_automaton(ca)
        cyc = nps.has_proper_cycle()
        details[f"ring{n}_has_cycle"] = cyc
        if cyc:
            counterexamples.append((n, "proper cycle found in sequential PS"))
    return TheoremReport(
        name="Lemma 2(ii)",
        statement=(
            "1-D sequential CA with r=2 and the MAJORITY update rule have a "
            "cycle-free phase space for every sequential update order"
        ),
        holds=not counterexamples,
        parameters={"ring_sizes": sizes, "radius": 2},
        counterexamples=tuple(counterexamples),
        details=details,
    )


# -- Corollary 1 ----------------------------------------------------------------------


def check_corollary1(radii: Iterable[int] = (1, 2, 3, 4, 5, 6)) -> TheoremReport:
    """Corollary 1: for every r >= 1 some threshold CA has a two-cycle.

    For each radius the block configuration ``0^r 1^r ...`` is verified to
    be a two-cycle of MAJORITY on a suitable ring, and for odd radii the
    alternating configuration gives a second, distinct two-cycle (the
    corollary's "at least two distinct two-cycles" refinement).
    """
    witnesses: list[object] = []
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    radii = sorted(set(int(r) for r in radii))
    for r in radii:
        n = max(4 * r, 2 * (2 * r + 1) + 2)
        n += (-n) % (2 * r)  # make 2r | n; 2r is even, so n stays even too
        ca = CellularAutomaton(Ring(n, radius=r), MajorityRule(), memory=True)
        blocks = block_config(n, r)
        block_ok = _is_two_cycle(ca, blocks)
        details[f"r{r}_n"] = n
        details[f"r{r}_block_two_cycle"] = block_ok
        if block_ok:
            witnesses.append((r, n, "block", config_str(bits_to_int(blocks), n)))
        else:
            counterexamples.append((r, n, "block configuration not a two-cycle"))
        if r % 2 == 1:
            alt = alternating_config(n)
            alt_ok = _is_two_cycle(ca, alt)
            details[f"r{r}_alternating_two_cycle"] = alt_ok
            if not alt_ok:
                counterexamples.append(
                    (r, n, "alternating configuration not a two-cycle")
                )
            elif r > 1:
                # For r >= 3 the alternating and block cycles are distinct,
                # giving the corollary's "at least two distinct two-cycles".
                distinct = not np.array_equal(alt, blocks) and not np.array_equal(
                    alt, ca.step(blocks)
                )
                details[f"r{r}_two_distinct_cycles"] = distinct
                if distinct:
                    witnesses.append(
                        (r, n, "alternating", config_str(bits_to_int(alt), n))
                    )
                else:
                    counterexamples.append(
                        (r, n, "odd radius lacks a second distinct two-cycle")
                    )
            else:
                witnesses.append(
                    (r, n, "alternating", config_str(bits_to_int(alt), n))
                )
    return TheoremReport(
        name="Corollary 1",
        statement=(
            "For all r there exists a monotone symmetric (threshold) CA with "
            "finite cycles; odd r gives at least two distinct two-cycles"
        ),
        holds=not counterexamples,
        parameters={"radii": radii},
        witnesses=tuple(witnesses),
        counterexamples=tuple(counterexamples),
        details=details,
    )


# -- Proposition 1 ----------------------------------------------------------------------


def check_proposition1(
    spaces: Sequence[FiniteSpace] | None = None,
    thresholds: Iterable[int] | None = None,
) -> TheoremReport:
    """Proposition 1 (Goles–Martinez): threshold orbits have period <= 2.

    Exhaustively verifies, for every configuration of every (space, rule)
    pair, that the parallel orbit ends in a fixed point or a two-cycle —
    i.e. every attractor cycle of the phase space has length <= 2.
    """
    if spaces is None:
        spaces = [
            Ring(8, radius=1),
            Ring(9, radius=1),
            Ring(10, radius=2),
            Grid2D(3, 4, torus=True),
            Hypercube(3),
            Hypercube(4),
        ]
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    checked = 0
    for space in spaces:
        widths = sorted({len(space.input_window(i, True)) for i in range(space.n)})
        rule_list: list[tuple[str, object]] = [("majority", MajorityRule())]
        ths = (
            sorted(set(int(t) for t in thresholds))
            if thresholds is not None
            else list(range(1, max(widths) + 1))
        )
        for t in ths:
            rule_list.append((f"threshold>={t}", SimpleThresholdRule(t)))
        for rname, rule in rule_list:
            ca = CellularAutomaton(space, rule, memory=True)
            ps = PhaseSpace.from_automaton(ca)
            lengths = ps.cycle_lengths()
            checked += 1
            key = f"{space.describe()}::{rname}"
            details[key] = {
                "max_cycle_length": max(lengths),
                "two_cycles": sum(1 for length in lengths if length == 2),
                "fixed_points": sum(1 for length in lengths if length == 1),
            }
            if max(lengths) > 2:
                counterexamples.append((key, f"cycle of length {max(lengths)}"))
    return TheoremReport(
        name="Proposition 1",
        statement=(
            "For elementary symmetric threshold rules on finite cellular "
            "spaces, F^(t+2) = F^t eventually: every orbit converges to a "
            "fixed point or a two-cycle"
        ),
        holds=not counterexamples,
        parameters={
            "spaces": [s.describe() for s in spaces],
            "pairs_checked": checked,
        },
        counterexamples=tuple(counterexamples),
        details=details,
    )


# -- bipartite two-cycles ------------------------------------------------------------------


def check_bipartite_two_cycles(
    spaces: Sequence[FiniteSpace] | None = None,
) -> TheoremReport:
    """Section 3's remark: bipartite cellular spaces give parallel two-cycles.

    For every bipartite space with minimum degree >= 2 the indicator of one
    side of the bipartition is a two-cycle of MAJORITY-with-memory: each
    1-node sees mostly 0s and flips down, each 0-node sees mostly 1s and
    flips up, so the configuration alternates with its complement.
    """
    if spaces is None:
        spaces = [
            Ring(6, radius=1),
            Ring(10, radius=1),
            Grid2D(4, 4, torus=True),
            Grid2D(4, 6, torus=True),
            Hypercube(2),
            Hypercube(3),
            Hypercube(4),
        ]
    witnesses: list[object] = []
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    for space in spaces:
        if not space.is_bipartite():
            counterexamples.append((space.describe(), "space is not bipartite"))
            continue
        min_deg = min(space.degree(i) for i in range(space.n))
        if min_deg < 2:
            counterexamples.append(
                (space.describe(), f"minimum degree {min_deg} < 2")
            )
            continue
        left, _ = space.bipartition()
        state = np.zeros(space.n, dtype=np.uint8)
        for i in left:
            state[i] = 1
        ca = CellularAutomaton(space, MajorityRule(), memory=True)
        ok = _is_two_cycle(ca, state)
        details[space.describe()] = ok
        if ok:
            witnesses.append((space.describe(), config_str(bits_to_int(state), space.n)))
        else:
            counterexamples.append(
                (space.describe(), "bipartition indicator is not a two-cycle")
            )
    return TheoremReport(
        name="Bipartite two-cycles",
        statement=(
            "For any bipartite cellular space (min degree >= 2), the parallel "
            "threshold CA has temporal two-cycles"
        ),
        holds=not counterexamples,
        parameters={"spaces": [s.describe() for s in (spaces or [])]},
        witnesses=tuple(witnesses),
        counterexamples=tuple(counterexamples),
        details=details,
    )


# -- Section 4 extensions -------------------------------------------------------------------


def check_nonhomogeneous_threshold(
    ring_sizes: Iterable[int] = (6, 8, 10),
    assignments_per_size: int = 8,
    seed: int = 2004,
) -> TheoremReport:
    """Section 4 extension: non-homogeneous threshold CA behave like
    homogeneous ones.

    Every node gets its *own* count threshold (drawn at random, including
    the constant rules); the Goles-Martinez energy argument only needs the
    symmetric unit-weight graph plus per-node thresholds, so the paper's
    dichotomy should persist: parallel orbits of period <= 2, sequential
    phase spaces cycle-free.  Verified exhaustively per sampled assignment.
    """
    from repro.core.heterogeneous import HeterogeneousCA
    from repro.core.rules import SimpleThresholdRule

    rng = np.random.default_rng(seed)
    counterexamples: list[object] = []
    details: dict[str, object] = {}
    sizes = sorted(set(int(n) for n in ring_sizes))
    checked = 0
    for n in sizes:
        space = Ring(n, radius=1)
        width = 3  # with-memory radius-1 windows
        for trial in range(assignments_per_size):
            thetas = rng.integers(0, width + 2, size=n)
            rules = [SimpleThresholdRule(int(t)) for t in thetas]
            ca = HeterogeneousCA(space, rules, memory=True)
            ps = PhaseSpace(ca.step_all(), n)
            max_len = max(ps.cycle_lengths())
            seq_cycles = NondetPhaseSpace.from_automaton(ca).has_proper_cycle()
            checked += 1
            key = f"ring{n}_trial{trial}"
            details[key] = {
                "thetas": thetas.tolist(),
                "max_parallel_cycle": max_len,
                "sequential_cycles": seq_cycles,
            }
            if max_len > 2:
                counterexamples.append((key, f"parallel cycle length {max_len}"))
            if seq_cycles:
                counterexamples.append((key, "sequential proper cycle"))
    return TheoremReport(
        name="Non-homogeneous thresholds (Sec. 4 extension)",
        statement=(
            "Threshold CA with per-node thresholds keep the homogeneous "
            "dichotomy: parallel orbits have period <= 2 and sequential "
            "phase spaces are cycle-free"
        ),
        holds=not counterexamples,
        parameters={
            "ring_sizes": sizes,
            "assignments_per_size": assignments_per_size,
            "assignments_checked": checked,
            "seed": seed,
        },
        counterexamples=tuple(counterexamples),
        details=details,
    )


def check_monotone_boundary(
    ring_sizes: Iterable[int] = (3, 4, 5, 6, 7),
) -> TheoremReport:
    """Section 4's open question, answered at radius 1: where do sequential
    computations "catch up" with concurrency?

    Exhaustive over all 20 monotone 3-input rules (symmetric or not) on the
    given rings: exactly the two *shift* rules — the pure projections onto
    the left or right neighbor, x_i' = x_{i-1} and x_i' = x_{i+1} — have
    proper cycles in their sequential phase spaces (single-node updates can
    rotate a pattern around the ring and return).  Every other monotone
    rule, including every non-symmetric one, remains sequentially
    cycle-free: dropping symmetry alone does NOT let interleavings cycle;
    dropping the self-input (and with it the positive diagonal of the
    energy form) does.
    """
    from repro.core.boolean import all_boolean_functions

    left_shift = tuple((c >> 0) & 1 for c in range(8))   # input 0 = left
    right_shift = tuple((c >> 2) & 1 for c in range(8))  # input 2 = right
    expected_cyclic = {left_shift, right_shift}

    counterexamples: list[object] = []
    details: dict[str, object] = {}
    witnesses: list[object] = []
    sizes = sorted(set(int(n) for n in ring_sizes))
    monotone = [f for f in all_boolean_functions(3) if f.is_monotone()]
    details["monotone_rules"] = len(monotone)
    for func in monotone:
        rule = TableRule(func)
        cyclic_on = []
        for n in sizes:
            ca = CellularAutomaton(Ring(n, radius=1), rule, memory=True)
            if NondetPhaseSpace.from_automaton(ca).has_proper_cycle():
                cyclic_on.append(n)
        table_key = tuple(int(b) for b in func.table)
        label = "".join(map(str, table_key))
        details[label] = {
            "symmetric": func.is_symmetric(),
            "sequential_cycles_on": cyclic_on,
        }
        should_cycle = table_key in expected_cyclic
        if should_cycle and cyclic_on == sizes:
            witnesses.append((label, "shift rule cycles on every ring"))
        elif should_cycle:
            counterexamples.append((label, f"shift rule only cycles on {cyclic_on}"))
        elif cyclic_on:
            counterexamples.append((label, f"unexpected cycles on {cyclic_on}"))
    return TheoremReport(
        name="Monotone boundary (Sec. 4 open question)",
        statement=(
            "Among monotone radius-1 rules, exactly the two neighbor "
            "projections (shifts) admit sequential cycles; all other "
            "monotone rules, symmetric or not, are sequentially cycle-free"
        ),
        holds=not counterexamples,
        parameters={"ring_sizes": sizes},
        witnesses=tuple(witnesses),
        counterexamples=tuple(counterexamples),
        details=details,
    )
