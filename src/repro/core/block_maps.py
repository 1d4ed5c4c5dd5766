"""Block-sequential global maps: dialing synchrony between SCA and CA.

A block-sequential schedule updates one block of nodes simultaneously, the
blocks in a fixed order — singleton blocks give an SCA sweep, the single
full block gives the classical CA.  Because the schedule is deterministic,
one macro-sweep induces a deterministic *global map* on configurations,
and the paper's cycle question can be asked of every ordered partition:
**how much simultaneity does a threshold CA need before it can oscillate?**

The answer, measured by :func:`check_block_synchrony` (experiment E19), is
stark: for MAJORITY rings, *every* ordered partition except the single
full block yields a cycle-free global map — exhaustively over all 4683
ordered partitions of the 6-ring, and over structured families on larger
rings.  Perfect synchrony is not just sufficient for the paper's
two-cycles; it is (empirically) necessary, sharpening Section 4's remark
that the cycles "can be ascribed directly to the assumption of perfect
synchrony".
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.core.automaton import CellularAutomaton
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule
from repro.core.theorems import TheoremReport
from repro.spaces.line import Ring
from repro.util.bitops import xor_flip

__all__ = [
    "block_sequential_map",
    "ordered_partitions",
    "structured_partitions",
    "check_block_synchrony",
]


def block_sequential_map(
    ca: CellularAutomaton, partition: Sequence[Sequence[int]]
) -> np.ndarray:
    """Global map of one block-sequential macro-sweep, over all ``2**n``
    configurations.

    Within a block, every node reads the same pre-block configuration
    (logical simultaneity); successive blocks see the updates of earlier
    ones.  Composed from the nodes' flip words (one sweep): ``x ^=
    flip_i(source) << i`` per node of a block, from its pre-block source.
    """
    n = ca.n
    flat = sorted(i for block in partition for i in block)
    if flat != list(range(n)):
        raise ValueError(f"blocks {partition} do not partition 0..{n - 1}")
    flips = ca.flips()
    result = np.arange(1 << n, dtype=np.int64)
    for block in partition:
        source = result.copy()
        for i in block:
            xor_flip(result, flips[i], i, source)
    return result


def ordered_partitions(n: int) -> Iterator[list[list[int]]]:
    """All ordered set partitions of ``0..n-1`` (Fubini-number many).

    Fubini numbers grow fast (4683 at n = 6, 47292 at n = 7); exhaustive
    sweeps should stay at n <= 6.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")

    def rec(items: list[int]) -> Iterator[list[list[int]]]:
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in rec(rest):
            for k in range(len(sub) + 1):
                yield sub[:k] + [[first]] + sub[k:]
            for k in range(len(sub)):
                yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]

    return rec(list(range(n)))


def structured_partitions(n: int) -> dict[str, list[list[int]]]:
    """A named family of structured ordered partitions of an ``n``-ring.

    Used on rings too large for exhaustion: the partitions that "almost"
    restore synchrony (one straggler node, two halves, matched pairs, the
    bipartition sweep) — the natural candidates for recovering the
    synchronous two-cycle, all of which fail.
    """
    if n < 4 or n % 2:
        raise ValueError(f"structured partitions need even n >= 4, got {n}")
    return {
        "full-sync": [list(range(n))],
        "straggler-last": [list(range(n - 1)), [n - 1]],
        "straggler-first": [[n - 1], list(range(n - 1))],
        "two-halves": [list(range(n // 2)), list(range(n // 2, n))],
        "evens-then-odds": [list(range(0, n, 2)), list(range(1, n, 2))],
        "adjacent-pairs": [[i, i + 1] for i in range(0, n, 2)],
        "singletons": [[i] for i in range(n)],
    }


def check_block_synchrony(
    exhaustive_n: int = 6,
    structured_sizes: Iterable[int] = (8, 10),
) -> TheoremReport:
    """E19: only perfect synchrony lets a MAJORITY ring oscillate.

    Exhaustive over every ordered partition of the ``exhaustive_n``-ring,
    plus the structured families on larger rings: the full block must be
    the *only* schedule with a proper cycle in its global map.
    """
    counterexamples: list[object] = []
    witnesses: list[object] = []
    details: dict[str, object] = {}

    ca = CellularAutomaton(Ring(exhaustive_n), MajorityRule(), memory=True)
    total = 0
    cyclic = 0
    for part in ordered_partitions(exhaustive_n):
        total += 1
        succ = block_sequential_map(ca, part)
        if PhaseSpace(succ, exhaustive_n).has_proper_cycle():
            cyclic += 1
            if part == [list(range(exhaustive_n))]:
                witnesses.append(("full-sync", exhaustive_n))
            else:
                counterexamples.append(
                    (exhaustive_n, [list(b) for b in part], "unexpected cycle")
                )
    details[f"ring{exhaustive_n}_ordered_partitions"] = total
    details[f"ring{exhaustive_n}_cyclic_partitions"] = cyclic
    if cyclic != 1:
        counterexamples.append(
            (exhaustive_n, f"{cyclic} cyclic partitions, expected exactly 1")
        )

    for n in sorted(set(int(m) for m in structured_sizes)):
        ca_n = CellularAutomaton(Ring(n), MajorityRule(), memory=True)
        for name, part in structured_partitions(n).items():
            succ = block_sequential_map(ca_n, part)
            has_cycle = PhaseSpace(succ, n).has_proper_cycle()
            details[f"ring{n}_{name}"] = has_cycle
            if name == "full-sync":
                if has_cycle:
                    witnesses.append((name, n))
                else:
                    counterexamples.append((n, name, "synchronous cycle missing"))
            elif has_cycle:
                counterexamples.append((n, name, "proper schedule has a cycle"))

    return TheoremReport(
        name="Block-sequential synchrony threshold (E19)",
        statement=(
            "For MAJORITY rings, the fully synchronous schedule is the only "
            "ordered partition whose global map has a proper cycle: any "
            "loss of simultaneity restores convergence"
        ),
        holds=not counterexamples,
        parameters={
            "exhaustive_n": exhaustive_n,
            "structured_sizes": sorted(set(int(m) for m in structured_sizes)),
        },
        witnesses=tuple(witnesses),
        counterexamples=tuple(counterexamples),
        details=details,
    )
