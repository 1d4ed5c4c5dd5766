"""Survey of all 256 elementary CA rules against the paper's dichotomy.

The paper contrasts two rule classes — monotone symmetric (threshold)
rules, whose SCA never cycle, and rules like XOR, whose SCA do.  This
module maps the *entire* elementary rule space (Wolfram rules 0-255 =
every with-memory radius-1 rule) onto that axis: for each rule it records
structural properties (monotone? symmetric? linear threshold? quiescent?)
and measured dynamics (parallel proper cycles? sequential proper cycles?)
over a range of ring sizes, giving the complete radius-1 picture of where
the interleaving semantics survives and where it fails.

Headline facts the survey establishes (experiment E21):

* every monotone *self-dependent* rule is sequentially cycle-free; among
  the 20 monotone rules only the two shifts (Wolfram 170 and 240) cycle;
* sequential cycle-freeness is strictly more common than monotonicity —
  plenty of non-monotone rules (e.g. rule 232's neighbors) also converge;
* parallel cycles are the norm, not the exception: most elementary rules
  oscillate on some small ring, which is exactly why the paper's
  *threshold* convergence results carry information.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from repro.core.automaton import CellularAutomaton
from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace
from repro.core.rules import WolframRule
from repro.spaces.line import Ring

__all__ = [
    "RuleProfile",
    "survey_rule",
    "survey_all_rules",
    "survey_summary",
    "mirror_rule",
    "complement_rule",
    "equivalence_class",
    "elementary_equivalence_classes",
]


@dataclass(frozen=True)
class RuleProfile:
    """Structure and measured dynamics of one elementary rule."""

    number: int
    monotone: bool
    symmetric: bool
    linear_threshold: bool
    preserves_quiescence: bool
    self_dependent: bool
    parallel_max_period: int
    parallel_cycles_somewhere: bool
    sequential_cycles_somewhere: bool

    @property
    def is_paper_class(self) -> bool:
        """Monotone symmetric — the class of the paper's Theorem 1."""
        return self.monotone and self.symmetric


def _self_dependent(rule: WolframRule) -> bool:
    """Does the output ever depend on the centre (self) input?

    The centre cell is input 1 of our little-endian tables.
    """
    table = rule.function.table
    return any(
        table[code] != table[code ^ 0b010] for code in range(8)
    )


@lru_cache(maxsize=None)
def survey_rule(
    number: int,
    ring_sizes: tuple[int, ...] = (5, 6, 7, 8),
    backend: str | None = None,
    workers: int | None = None,
) -> RuleProfile:
    """Full structural + dynamical profile of one elementary rule."""
    rule = WolframRule(number)
    func = rule.function
    parallel_max = 1
    parallel_cycles = False
    sequential_cycles = False
    for n in ring_sizes:
        ca = CellularAutomaton(
            Ring(n, radius=1), rule, memory=True, backend=backend,
            workers=workers,
        )
        ps = PhaseSpace.from_automaton(ca)
        lengths = ps.cycle_lengths()
        parallel_max = max(parallel_max, max(lengths))
        parallel_cycles |= ps.has_proper_cycle()
        if not sequential_cycles:
            nps = NondetPhaseSpace.from_automaton(ca)
            sequential_cycles |= nps.has_proper_cycle()
    return RuleProfile(
        number=number,
        monotone=func.is_monotone(),
        symmetric=func.is_symmetric(),
        linear_threshold=func.is_linear_threshold(),
        preserves_quiescence=func.preserves_quiescence(),
        self_dependent=_self_dependent(rule),
        parallel_max_period=parallel_max,
        parallel_cycles_somewhere=parallel_cycles,
        sequential_cycles_somewhere=sequential_cycles,
    )


def survey_all_rules(
    ring_sizes: Iterable[int] = (5, 6, 7, 8),
    backend: str | None = None,
    workers: int | None = None,
) -> list[RuleProfile]:
    """Profiles of all 256 elementary rules."""
    sizes = tuple(sorted(set(int(n) for n in ring_sizes)))
    return [survey_rule(k, sizes, backend, workers) for k in range(256)]


def survey_summary(profiles: list[RuleProfile]) -> dict[str, object]:
    """Cross-tabulation of the survey against the paper's claims."""
    monotone = [p for p in profiles if p.monotone]
    paper_class = [p for p in profiles if p.is_paper_class]
    seq_quiet = [p for p in profiles if not p.sequential_cycles_somewhere]
    monotone_cyclers = sorted(
        p.number for p in monotone if p.sequential_cycles_somewhere
    )
    return {
        "rules": len(profiles),
        "monotone": len(monotone),
        "monotone_symmetric": len(paper_class),
        "linear_threshold": sum(1 for p in profiles if p.linear_threshold),
        "sequentially_cycle_free": len(seq_quiet),
        "parallel_cyclers": sum(
            1 for p in profiles if p.parallel_cycles_somewhere
        ),
        "monotone_sequential_cyclers": monotone_cyclers,
        # Threshold representability (arbitrary weights) is neither
        # necessary nor sufficient for sequential convergence — the energy
        # argument needs SYMMETRIC weights with positive diagonal, a
        # different slice of the rule space.
        "cycle_free_and_threshold": sum(
            1 for p in seq_quiet if p.linear_threshold
        ),
        "cycle_free_not_threshold": sum(
            1 for p in seq_quiet if not p.linear_threshold
        ),
        "threshold_but_cycling": sum(
            1
            for p in profiles
            if p.linear_threshold and p.sequential_cycles_somewhere
        ),
        # Theorem 1 over the whole rule space: no monotone symmetric rule
        # may ever cycle sequentially.
        "theorem1_violations": sorted(
            p.number for p in paper_class if p.sequential_cycles_somewhere
        ),
        # The E18 boundary, in Wolfram numbering: 170 = right-projection
        # (x_{i+1}), 240 = left-projection (x_{i-1}).
        "expected_monotone_cyclers": [170, 240],
    }


# -- the classical 88 equivalence classes -------------------------------------------


def mirror_rule(number: int) -> int:
    """The rule computing the mirrored dynamics: swap left and right inputs.

    Conjugating a ring CA by the reflection i -> -i replaces rule k by
    mirror_rule(k); dynamical properties are invariant.
    """
    if not 0 <= number <= 255:
        raise ValueError(f"rule number out of range: {number}")
    out = 0
    for left in range(2):
        for centre in range(2):
            for right in range(2):
                if (number >> (4 * left + 2 * centre + right)) & 1:
                    out |= 1 << (4 * right + 2 * centre + left)
    return out


def complement_rule(number: int) -> int:
    """The rule conjugate under global complementation x -> 1 - x.

    F_c(x) = NOT F_k(NOT x): the table is negated and read at negated
    inputs.  Dynamics are again invariant (phase spaces are conjugate by
    the complement involution).
    """
    if not 0 <= number <= 255:
        raise ValueError(f"rule number out of range: {number}")
    out = 0
    for idx in range(8):
        if not (number >> (7 - idx)) & 1:
            out |= 1 << idx
    return out


def equivalence_class(number: int) -> tuple[int, ...]:
    """The orbit of a rule under mirror and complement (size 1, 2, or 4)."""
    m = mirror_rule(number)
    c = complement_rule(number)
    mc = mirror_rule(c)
    return tuple(sorted({number, m, c, mc}))


def elementary_equivalence_classes() -> list[tuple[int, ...]]:
    """All equivalence classes of the 256 elementary rules.

    The classical count is 88; dynamical invariants (cycle structure,
    transient depths) are constant on each class, which
    ``test_elementary.py`` verifies against the survey.
    """
    seen: set[int] = set()
    classes: list[tuple[int, ...]] = []
    for k in range(256):
        if k in seen:
            continue
        cls = equivalence_class(k)
        seen.update(cls)
        classes.append(cls)
    return classes
