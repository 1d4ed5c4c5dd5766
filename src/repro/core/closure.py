"""Transitive closure of sequential phase spaces, as packed bitsets.

The interleaving audit asks many reachability queries against the same
nondeterministic transition graph — per-source BFS repeats work
quadratically.  This module computes the *full* reachability relation
once: condense the change-edge digraph by strongly connected components
(configurations in one SCC reach exactly the same set), process the
condensation in reverse topological order, and accumulate per-component
reachable sets as packed ``uint64`` bitsets — the union of two reachable
sets is then a vectorized OR over ``2**n / 64`` words.

Memory is ``n_components * 2**n / 8`` bytes: ~2 MB at n = 12, ~32 MB at
n = 14 (the enforced cap).  Above that, fall back to per-query BFS
(:meth:`repro.core.nondet.NondetPhaseSpace.reachable_from`).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cycles import scc_labels
from repro.core.nondet import NondetPhaseSpace

__all__ = ["ReachabilityClosure"]

_MAX_NODES = 14  # 2**14 configs -> 32 MB of bitsets; quadratic beyond


class ReachabilityClosure:
    """All-pairs reachability over a sequential phase space.

    ``closure.can_reach(a, b)`` answers "does some interleaving drive
    ``a`` to ``b``" in O(1) after the one-time construction.
    """

    def __init__(self, nps: NondetPhaseSpace):
        if nps.n_nodes > _MAX_NODES:
            raise ValueError(
                f"closure over 2**{nps.n_nodes} configurations needs "
                f"{(1 << (2 * nps.n_nodes)) // 8 / 1e9:.1f}+ GB; "
                f"use per-query BFS beyond n = {_MAX_NODES}"
            )
        self.nps = nps
        size = nps.size
        srcs, dsts = nps._change_edges

        n_comp, labels = scc_labels(srcs, dsts, size)
        self.labels = labels
        self.n_components = n_comp

        # Condensation edges (deduplicated, self-edges dropped).
        if srcs.size:
            comp_edges = np.unique(
                np.stack([labels[srcs], labels[dsts]], axis=1), axis=0
            )
            comp_edges = comp_edges[comp_edges[:, 0] != comp_edges[:, 1]]
        else:
            comp_edges = np.empty((0, 2), dtype=np.int64)

        # Kahn topological order of the condensation.
        indeg = np.zeros(n_comp, dtype=np.int64)
        np.add.at(indeg, comp_edges[:, 1], 1)
        adj_order = np.argsort(comp_edges[:, 0], kind="stable")
        sorted_edges = comp_edges[adj_order]
        starts = np.searchsorted(
            sorted_edges[:, 0], np.arange(n_comp + 1)
        )
        topo: list[int] = []
        queue = list(np.flatnonzero(indeg == 0))
        while queue:
            v = int(queue.pop())
            topo.append(v)
            for k in range(starts[v], starts[v + 1]):
                w = int(sorted_edges[k, 1])
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if len(topo) != n_comp:  # pragma: no cover - SCC condensation is a DAG
            raise AssertionError("condensation is not acyclic")

        # Membership bitsets: bit c of row k <=> config c in component k.
        words = (size + 63) // 64
        bits = np.zeros((n_comp, words), dtype=np.uint64)
        codes = np.arange(size, dtype=np.int64)
        np.bitwise_or.at(
            bits,
            (labels[codes], codes >> 6),
            np.uint64(1) << (codes & 63).astype(np.uint64),
        )

        # Reverse topological accumulation: R(v) = members(v) | U R(succ).
        for v in reversed(topo):
            for k in range(starts[v], starts[v + 1]):
                bits[v] |= bits[int(sorted_edges[k, 1])]
        self._bits = bits

    # -- queries -----------------------------------------------------------------

    def reachable_row(self, code: int) -> np.ndarray:
        """Packed bitset of configurations reachable from ``code``."""
        return self._bits[int(self.labels[code])]

    def can_reach(self, source: int, target: int) -> bool:
        """True iff some update sequence drives ``source`` to ``target``."""
        row = self.reachable_row(source)
        return bool(
            (row[target >> 6] >> np.uint64(target & 63)) & np.uint64(1)
        )

    def can_reach_all(self, source: int, targets: list[int]) -> bool:
        """True iff every target is reachable from ``source``."""
        row = self.reachable_row(source)
        return all(
            (row[t >> 6] >> np.uint64(t & 63)) & np.uint64(1) for t in targets
        )

    def reachable_count(self, code: int) -> int:
        """Number of configurations reachable from ``code`` (incl. itself)."""
        row = self.reachable_row(code)
        return int(np.bitwise_count(row).sum()) if hasattr(np, "bitwise_count") \
            else int(sum(bin(int(w)).count("1") for w in row))
