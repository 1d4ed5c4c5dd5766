"""Transitive closure of sequential phase spaces, as packed bitsets.

The interleaving audit asks many reachability queries against the same
nondeterministic transition graph — per-source BFS repeats work
quadratically.  This module computes the *full* reachability relation
once: condense the change-edge digraph by strongly connected components
(configurations in one SCC reach exactly the same set) and accumulate
per-component reachable sets as packed ``uint64`` bitsets in increasing
label order — :func:`~repro.analysis.cycles.scc_labels` numbers the
components reverse-topologically, so every component a label reaches has
a smaller label and is complete before it.  The union of two reachable
sets is a vectorized OR over ``2**n / 64`` words.

Memory is ``n_components * 2**n / 8`` bytes: ~2 MB at n = 12, ~32 MB at
n = 14 (the enforced cap).  Above that, fall back to per-query searches
(:meth:`repro.core.nondet.NondetPhaseSpace.reachable_from`).
"""

from __future__ import annotations

import numpy as np

from repro.core.nondet import NondetPhaseSpace
from repro.util.bitops import popcount_words

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
        n_comp, labels = nps._scc
        self.labels = labels
        self.n_components = n_comp

        # Condensation edges, deduplicated and sorted by source label.
        src_comp, dst_comp = labels[srcs], labels[dsts]
        cross = src_comp != dst_comp
        comp_edges = np.unique(
            np.stack([src_comp[cross], dst_comp[cross]], axis=1), axis=0
        )
        assert (comp_edges[:, 0] > comp_edges[:, 1]).all(), (
            "SCC labels are not in reverse topological order"
        )

        # Membership bitsets: bit c of row k <=> config c in component k.
        words = (size + 63) // 64
        bits = np.zeros((n_comp, words), dtype=np.uint64)
        codes = np.arange(size, dtype=np.int64)
        np.bitwise_or.at(
            bits,
            (labels[codes], codes >> 6),
            np.uint64(1) << (codes & 63).astype(np.uint64),
        )

        # R(v) = members(v) | U R(w) over the edges v -> w, where w < v is
        # complete by the time the sorted edges reach v.
        for v, w in comp_edges.tolist():
            bits[v] |= bits[w]
        self._bits = bits

    # -- queries -----------------------------------------------------------------

    def reachable_row(self, code: int) -> np.ndarray:
        """Packed bitset of configurations reachable from ``code``."""
        return self._bits[int(self.labels[code])]

    def can_reach(self, source: int, target: int) -> bool:
        """True iff some update sequence drives ``source`` to ``target``."""
        return self.can_reach_all(source, [target])

    def can_reach_all(self, source: int, targets: list[int]) -> bool:
        """True iff every target is reachable from ``source``."""
        row = self.reachable_row(source)
        return all(
            (row[t >> 6] >> np.uint64(t & 63)) & np.uint64(1) for t in targets
        )

    def reachable_count(self, code: int) -> int:
        """Number of configurations reachable from ``code`` (incl. itself)."""
        return popcount_words(self.reachable_row(code))
