"""Isomorphism of deterministic phase spaces (functional graphs).

The paper's Section 3.1 observes that for the two-node XOR automaton, "no
sequential CA with the same underlying cellular space and the same node
update rule can reproduce identical **or even isomorphic** computation"
as the parallel CA.  Making that checkable needs functional-graph
isomorphism, which — unlike general graph isomorphism — has an efficient
canonical form:

* every functional graph is a disjoint union of cycles with rooted trees
  ("rho" components) hanging off the cycle nodes;
* rooted trees canonicalise by the classic AHU encoding (sorted tuples of
  child encodings);
* each component canonicalises as the lexicographically least rotation of
  its cycle's sequence of tree encodings;
* the whole graph canonicalises as the sorted multiset of components.

Two deterministic phase spaces are isomorphic as dynamical systems
(conjugate up to state relabelling) iff their canonical forms are equal.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cycles import FunctionalGraph
from repro.core.phase_space import PhaseSpace

__all__ = [
    "canonical_form",
    "functional_graphs_isomorphic",
    "phase_spaces_isomorphic",
]


def _tree_encodings(fg: FunctionalGraph) -> list[tuple]:
    """AHU code of the transient tree rooted at every node.

    Node ``v``'s tree consists of all transient nodes whose forward orbit
    first meets the cycles at ``v``; children are the *predecessors* of
    ``v`` that are not themselves on a cycle.  Computed bottom-up by an
    iterative post-order walk, so every child is encoded before its
    parent.
    """
    size = fg.size
    children: list[list[int]] = [[] for _ in range(size)]
    on_cycle = fg.on_cycle
    for v in range(size):
        if not on_cycle[v]:
            children[int(fg.succ[v])].append(v)

    codes: list[tuple | None] = [None] * size

    def encode(v: int) -> tuple:
        # Iterative post-order to avoid recursion limits on deep tails.
        stack = [(v, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                codes[node] = tuple(
                    sorted(codes[c] for c in children[node])  # type: ignore[arg-type]
                )
            else:
                stack.append((node, True))
                for c in children[node]:
                    if codes[c] is None:
                        stack.append((c, False))
        return codes[v]  # type: ignore[return-value]

    return [encode(v) if codes[v] is None else codes[v] for v in range(size)]  # type: ignore[return-value,misc]


def _least_rotation(seq: tuple) -> tuple:
    """Lexicographically least rotation (Booth's algorithm would be O(n);
    the simple O(n^2) scan is fine at phase-space cycle lengths)."""
    n = len(seq)
    best = seq
    for k in range(1, n):
        rotated = seq[k:] + seq[:k]
        if rotated < best:
            best = rotated
    return best


def canonical_form(succ: np.ndarray) -> tuple:
    """Canonical invariant of a functional graph: equal iff isomorphic."""
    fg = FunctionalGraph(np.asarray(succ, dtype=np.int64))
    tree_codes = _tree_encodings(fg)
    components = []
    for cycle in fg.cycles:
        ring = tuple(tree_codes[v] for v in cycle)
        components.append((len(cycle), _least_rotation(ring)))
    return tuple(sorted(components))


def functional_graphs_isomorphic(a: np.ndarray, b: np.ndarray) -> bool:
    """Are two maps on finite sets conjugate (isomorphic as dynamics)?"""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size != b.size:
        return False
    return canonical_form(a) == canonical_form(b)


def phase_spaces_isomorphic(ps1: PhaseSpace, ps2: PhaseSpace) -> bool:
    """Are two deterministic phase spaces isomorphic dynamical systems?"""
    return functional_graphs_isomorphic(ps1.succ, ps2.succ)
