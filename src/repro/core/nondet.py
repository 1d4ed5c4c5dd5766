"""Nondeterministic phase spaces of sequential cellular automata.

An SCA from a given configuration may update any node next, so its phase
space is a node-labelled nondeterministic transition graph — Figure 1(b) of
the paper.  :class:`NondetPhaseSpace` materialises it from the per-node
successor arrays and answers the paper's questions:

* Is the phase space *cycle-free*?  (Lemma 1(ii), Theorem 1.)  A *proper
  cycle* is a closed walk through at least two distinct configurations;
  updates that do not change the configuration are self-loops and never
  count.  Proper cycles exist iff the "change-edge" digraph has a strongly
  connected component of size >= 2.
* Which configurations are genuine fixed points, and which merely
  *pseudo-fixed points* — non-fixed configurations that some update orders
  keep revisiting because one of their single-node updates is a self-loop?
* What is sequentially reachable from where? (Used by the interleaving
  experiments: e.g. ``00`` in Fig. 1(b) is a fixed point that no other
  configuration can reach.)
"""

from __future__ import annotations

from functools import cached_property

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.analysis.cycles import scc_labels
from repro.core.automaton import CellularAutomaton
from repro.core.budget import (
    NONDET_BYTES_PER_STATE,
    SUCC_BYTES_PER_STATE,
    Budget,
    BudgetExceeded,
    Partial,
    check_frontier,
    resolve_budget,
)
from repro.obs import span
from repro.perf.base import MAX_SWEEP_N
from repro.util.bitops import config_str

__all__ = ["NondetPhaseSpace", "build_nondet_phase_space"]

#: extra per-(configuration, node) bytes the SCC analysis holds beyond the
#: successor matrix (worst-case change-edge src + dst arrays, int64 each).
_EDGE_EXTRA_PER_STATE = NONDET_BYTES_PER_STATE - SUCC_BYTES_PER_STATE


class NondetPhaseSpace:
    """The full sequential (one-node-at-a-time) phase space of an automaton."""

    def __init__(self, node_succ: np.ndarray, n_nodes: int):
        node_succ = np.asarray(node_succ, dtype=np.int64)
        if node_succ.shape != (n_nodes, 1 << n_nodes):
            raise ValueError(
                f"node successor matrix has shape {node_succ.shape}, "
                f"expected ({n_nodes}, {1 << n_nodes})"
            )
        self.node_succ = node_succ
        self.n_nodes = n_nodes

    @classmethod
    def from_automaton(
        cls, ca: CellularAutomaton, budget: Budget | None = None
    ) -> "NondetPhaseSpace":
        """Build the sequential phase space of an automaton.

        Governed by ``budget`` (or the ambient budget); raises
        :class:`~repro.core.budget.BudgetExceeded` carrying the partial on
        a trip.  Use :func:`build_nondet_phase_space` to receive the
        truncated result as a value instead.
        """
        partial = build_nondet_phase_space(ca, budget=budget)
        if not partial.complete:
            raise BudgetExceeded(partial.reason, partial=partial)
        return partial.value

    @property
    def size(self) -> int:
        """Number of configurations (``2**n``)."""
        return 1 << self.n_nodes

    # -- basic structure -----------------------------------------------------

    def transitions(self, code: int) -> list[tuple[int, int]]:
        """All ``(node, successor)`` pairs from a configuration
        (self-loops included)."""
        return [(i, int(self.node_succ[i, code])) for i in range(self.n_nodes)]

    @cached_property
    def _change_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges that actually change the configuration: (src, dst)."""
        srcs, dsts = [], []
        codes = np.arange(self.size, dtype=np.int64)
        for i in range(self.n_nodes):
            succ = self.node_succ[i]
            mask = succ != codes
            srcs.append(codes[mask])
            dsts.append(succ[mask])
        return (
            np.concatenate(srcs) if srcs else np.empty(0, dtype=np.int64),
            np.concatenate(dsts) if dsts else np.empty(0, dtype=np.int64),
        )

    @cached_property
    def _union_csr(self) -> sparse.csr_matrix:
        srcs, dsts = self._change_edges
        return sparse.csr_matrix(
            (np.ones(srcs.size, dtype=np.int8), (srcs, dsts)),
            shape=(self.size, self.size),
        )

    # -- fixed points ----------------------------------------------------------

    @cached_property
    def fixed_points(self) -> np.ndarray:
        """Configurations fixed under *every* single-node update.

        For with-memory rules these coincide with the parallel CA's fixed
        points — one of the structural facts the integration tests check.
        """
        codes = np.arange(self.size, dtype=np.int64)
        stable = np.ones(self.size, dtype=bool)
        for i in range(self.n_nodes):
            stable &= self.node_succ[i] == codes
        return np.flatnonzero(stable)

    @cached_property
    def pseudo_fixed_points(self) -> np.ndarray:
        """Non-fixed configurations with at least one self-loop update.

        The paper's Fig. 1(b) calls these (unstable) pseudo-fixed points:
        under some update orders they look fixed, yet other orders leave
        them.
        """
        codes = np.arange(self.size, dtype=np.int64)
        any_loop = np.zeros(self.size, dtype=bool)
        all_loop = np.ones(self.size, dtype=bool)
        for i in range(self.n_nodes):
            loop = self.node_succ[i] == codes
            any_loop |= loop
            all_loop &= loop
        return np.flatnonzero(any_loop & ~all_loop)

    # -- cycles ------------------------------------------------------------------

    @cached_property
    def _scc(self) -> tuple[int, np.ndarray]:
        srcs, dsts = self._change_edges
        return scc_labels(srcs, dsts, self.size)

    def has_proper_cycle(self) -> bool:
        """True iff some update order revisits a configuration after leaving it."""
        n_comp, labels = self._scc
        return bool(np.any(np.bincount(labels, minlength=n_comp) >= 2))

    def proper_cycle_components(self) -> list[np.ndarray]:
        """The SCCs of size >= 2 of the change-edge digraph.

        Every proper cycle lies inside one of these components, and every
        component of size >= 2 contains a proper cycle.
        """
        n_comp, labels = self._scc
        sizes = np.bincount(labels, minlength=n_comp)
        return [np.flatnonzero(labels == k) for k in np.flatnonzero(sizes >= 2)]

    def find_two_cycle(self) -> tuple[int, int, int, int] | None:
        """A witness two-cycle ``(a, node_ab, b, node_ba)`` if one exists.

        Looks for configurations ``a != b`` with an update taking ``a`` to
        ``b`` and an update taking ``b`` back to ``a`` (the kind of cycle
        Fig. 1(b) exhibits for the XOR SCA).
        """
        for comp in self.proper_cycle_components():
            comp_set = set(int(c) for c in comp)
            for a in comp_set:
                for i in range(self.n_nodes):
                    b = int(self.node_succ[i, a])
                    if b == a or b not in comp_set:
                        continue
                    for j in range(self.n_nodes):
                        if int(self.node_succ[j, b]) == a:
                            return a, i, b, j
        return None

    # -- reachability ---------------------------------------------------------

    def reachable_from(self, code: int) -> np.ndarray:
        """All configurations reachable from ``code`` by some update sequence.

        ``code`` itself is included (the empty sequence).
        """
        order = csgraph.breadth_first_order(
            self._union_csr, int(code), directed=True, return_predecessors=False
        )
        mask = np.zeros(self.size, dtype=bool)
        mask[order] = True
        mask[code] = True
        return np.flatnonzero(mask)

    def can_reach(self, source: int, target: int) -> bool:
        """True iff some sequential interleaving drives source to target."""
        if source == target:
            return True
        mask = np.zeros(self.size, dtype=bool)
        order = csgraph.breadth_first_order(
            self._union_csr, int(source), directed=True, return_predecessors=False
        )
        mask[order] = True
        return bool(mask[target])

    def coreachable_to(self, code: int) -> np.ndarray:
        """All configurations from which ``code`` is reachable (incl. itself)."""
        order = csgraph.breadth_first_order(
            self._union_csr.T.tocsr(),
            int(code),
            directed=True,
            return_predecessors=False,
        )
        mask = np.zeros(self.size, dtype=bool)
        mask[order] = True
        mask[code] = True
        return np.flatnonzero(mask)

    def shortest_schedule(self, source: int, target: int) -> list[int] | None:
        """An explicit update word driving ``source`` to ``target``, if any.

        Returns the node indices of a shortest sequence of *effective*
        single-node updates (the constructive witness behind "there exists
        an interleaving"), ``[]`` when source == target, or ``None`` when
        no interleaving reaches the target.
        """
        if not 0 <= source < self.size or not 0 <= target < self.size:
            raise ValueError("configuration code out of range")
        if source == target:
            return []
        order, predecessors = csgraph.breadth_first_order(
            self._union_csr, int(source), directed=True, return_predecessors=True
        )
        del order
        if predecessors[target] < 0:
            return None
        # Walk predecessors back to the source, then label each edge.
        path = [int(target)]
        while path[-1] != source:
            path.append(int(predecessors[path[-1]]))
        path.reverse()
        word: list[int] = []
        for a, b in zip(path, path[1:]):
            for i in range(self.n_nodes):
                if int(self.node_succ[i, a]) == b:
                    word.append(i)
                    break
            else:  # pragma: no cover - BFS edge must exist
                raise AssertionError(f"no node labels edge {a} -> {b}")
        return word

    def unreachable_configs(self) -> np.ndarray:
        """Configurations with no incoming change edge from any other config.

        The SCA analogue of Gardens of Eden; in Fig. 1(b), ``00`` is one.
        """
        srcs, dsts = self._change_edges
        indeg = np.bincount(dsts, minlength=self.size)
        return np.flatnonzero(indeg == 0)

    # -- export ------------------------------------------------------------------

    def to_networkx(self, include_self_loops: bool = False) -> nx.MultiDiGraph:
        """Node-labelled transition graph (edge attribute ``node`` = updater)."""
        g = nx.MultiDiGraph()
        for code in range(self.size):
            g.add_node(code, label=config_str(code, self.n_nodes))
        for code in range(self.size):
            for i in range(self.n_nodes):
                dst = int(self.node_succ[i, code])
                if dst != code or include_self_loops:
                    g.add_edge(code, dst, node=i)
        return g

    def summary(self) -> dict[str, object]:
        """Headline statistics, mirroring :meth:`PhaseSpace.summary`."""
        return {
            "configurations": self.size,
            "fixed_points": int(self.fixed_points.size),
            "pseudo_fixed_points": int(self.pseudo_fixed_points.size),
            "has_proper_cycle": self.has_proper_cycle(),
            "proper_cycle_components": len(self.proper_cycle_components()),
            "unreachable_configs": int(self.unreachable_configs().size),
        }


def build_nondet_phase_space(
    ca: CellularAutomaton,
    budget: Budget | None = None,
    frontier: dict[str, object] | None = None,
) -> Partial[NondetPhaseSpace]:
    """Governed sequential phase-space build, resumable at row granularity.

    The ``(n, 2**n)`` node-successor matrix is filled one node row at a
    time; the budget is consulted before each row (projecting the row's
    :data:`~repro.core.budget.NONDET_BYTES_PER_STATE` footprint, which
    also covers the change-edge arrays the SCC analysis later holds), and
    its cancel token and deadline inside the row's chunked sweep.  Each
    row is charged once, here, so a states cap stops every backend at the
    same row.  On a trip the returned
    :class:`~repro.core.budget.Partial` carries a ``frontier`` with the
    completed rows; resumed frontiers are disk-backed memmaps charged only
    for chunk transients, exactly like
    :func:`repro.core.phase_space.build_phase_space`.

    ``explored``/``total`` count (configuration, node) transition units,
    i.e. ``rows_done * 2**n`` of ``n * 2**n``.
    """
    budget = resolve_budget(budget)
    n = ca.n
    if n > MAX_SWEEP_N:
        raise ValueError(
            f"sequential phase space over 2**{n} configurations is too large"
        )
    size = 1 << n
    total = n * size
    from repro.harness import faults

    if frontier is not None:
        check_frontier(frontier, "nondet", n, ca.describe())
        node_succ = frontier["succ"]
        start_row = int(frontier["next_row"])
    else:
        node_succ = np.empty((n, size), dtype=np.int64)
        start_row = 0
    per_state = 0 if isinstance(node_succ, np.memmap) else NONDET_BYTES_PER_STATE
    transient = ca.sweep_transient_bytes()

    def _frontier(next_row: int) -> dict[str, object]:
        return {
            "kind": "nondet",
            "n": n,
            "automaton": ca.describe(),
            "total": total,
            "next_row": next_row,
            "succ": node_succ,
        }

    def _truncated(reason: str, rows_done: int) -> Partial[NondetPhaseSpace]:
        return Partial.truncated(
            reason,
            explored=rows_done * size,
            total=total,
            stats={"rows_done": rows_done, "rows_total": n},
            frontier=_frontier(rows_done),
        )

    with span(
        "nondet.build", n=n, configs=size, budget=budget.describe()
    ) as build_span:
        with span("nondet.node_successors", n=n, resumed_from=start_row):
            for i in range(start_row, n):
                reason = budget.over(pending_bytes=transient + per_state * size)
                if reason is not None:
                    build_span.set(truncated=reason, rows_done=i)
                    return _truncated(reason, i)
                faults.inject("nondet.row")
                try:
                    node_succ[i] = ca.node_successors(i, budget=budget)
                except BudgetExceeded as err:
                    # The row's chunked sweep tripped mid-row; resume
                    # granularity is whole rows, so the partial row is
                    # discarded and the frontier restarts at row ``i``.
                    build_span.set(truncated=err.reason, rows_done=i)
                    return _truncated(err.reason, i)
                budget.charge(states=size, bytes_=per_state * size)
        edge_pending = _EDGE_EXTRA_PER_STATE * total if per_state == 0 else 0
        reason = budget.over(pending_bytes=edge_pending)
        if reason is not None:
            build_span.set(truncated=reason, rows_done=n)
            return _truncated(reason, n)
        budget.charge(bytes_=edge_pending)
        nps = NondetPhaseSpace(node_succ, n)
        return Partial.done(nps, explored=total, total=total)
