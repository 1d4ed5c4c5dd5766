"""Nondeterministic phase spaces of sequential cellular automata.

An SCA from a given configuration may update any node next, so its phase
space is a node-labelled nondeterministic transition graph — Figure 1(b) of
the paper.  Updating node ``i`` changes at most bit ``i``, so the whole
graph is an ``(n, 2**n)`` bool *flip matrix*: ``flips[i, x]`` says whether
updating node ``i`` moves ``x`` to ``x ^ 2**i``.  :class:`NondetPhaseSpace`
holds that matrix and answers the paper's questions:

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
    NONDET_CONFIG_BYTES,
    NONDET_EDGE_BYTES,
    Budget,
    BudgetExceeded,
    Partial,
    check_frontier,
    resolve_budget,
)
from repro.obs import span
from repro.perf.base import MAX_SWEEP_N
from repro.util.bitops import config_str, flip_successors

__all__ = ["NondetPhaseSpace", "build_nondet_phase_space"]


class NondetPhaseSpace:
    """The full sequential (one-node-at-a-time) phase space of an automaton.

    ``flips`` is the bool flip matrix, or an integer successor matrix
    (rows :meth:`CellularAutomaton.node_successors`) that is converted once
    row ``i`` is checked to change no bit but bit ``i``.
    """

    def __init__(self, flips: np.ndarray, n_nodes: int):
        flips = np.asarray(flips)
        if flips.shape != (n_nodes, 1 << n_nodes):
            raise ValueError(
                f"flip or successor matrix has shape {flips.shape}, "
                f"expected ({n_nodes}, {1 << n_nodes})"
            )
        if flips.dtype != bool:
            changed = flips.astype(np.int64)
            changed ^= np.arange(1 << n_nodes, dtype=np.int64)
            own_bit = np.int64(1) << np.arange(n_nodes, dtype=np.int64)[:, None]
            stray = np.flatnonzero((changed & ~own_bit).any(axis=1))
            if stray.size:
                raise ValueError(
                    f"row {stray[0]} of the node successor matrix changes a "
                    f"bit other than bit {stray[0]}"
                )
            flips = changed != 0
        self.flips = flips
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

    @cached_property
    def node_succ(self) -> np.ndarray:
        """The ``(n, 2**n)`` int64 successor matrix, derived from the flips
        on first use (read-only; eight bytes per entry, so small spaces)."""
        succ = flip_successors(self.flips)
        succ.flags.writeable = False
        return succ

    def transitions(self, code: int) -> list[tuple[int, int]]:
        """All ``(node, successor)`` pairs from a configuration
        (self-loops included)."""
        flips = self.flips[:, code]
        return [(i, int(code) ^ (int(f) << i)) for i, f in enumerate(flips)]

    @cached_property
    def _change_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges that actually change the configuration: (src, dst)."""
        nodes, srcs = np.nonzero(self.flips)
        # dst = src ^ 2**node, in place: these arrays dominate the analysis
        dsts = np.left_shift(1, nodes, out=nodes)
        dsts ^= srcs
        return srcs, dsts

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
        return np.flatnonzero(~self.flips.any(axis=0))

    @cached_property
    def pseudo_fixed_points(self) -> np.ndarray:
        """Non-fixed configurations with at least one self-loop update.

        The paper's Fig. 1(b) calls these (unstable) pseudo-fixed points:
        under some update orders they look fixed, yet other orders leave
        them.
        """
        return np.flatnonzero(self.flips.any(axis=0) & ~self.flips.all(axis=0))

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
            for a in set(int(c) for c in comp):
                for i in range(self.n_nodes):
                    # Only node i's update can undo a flip of bit i.
                    b = a ^ (1 << i)
                    if self.flips[i, a] and self.flips[i, b]:
                        return a, i, b, i
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
        # Walk predecessors back to the source, then label each edge by
        # the one bit it flips: the updated node.
        path = [int(target)]
        while path[-1] != source:
            path.append(int(predecessors[path[-1]]))
        path.reverse()
        return [(a ^ b).bit_length() - 1 for a, b in zip(path, path[1:])]

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
            for i, dst in self.transitions(code):
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

    The ``(n, 2**n)`` bool flip matrix is filled in place one node row at
    a time (:meth:`CellularAutomaton.node_flips`); the budget is
    consulted before each row (projecting its byte per configuration),
    and its cancel token and deadline inside the row's chunked sweep.
    Each row is charged once, here, so a states cap stops every backend
    at the same row.  After the last row the analysis is charged from the
    change-edge count (:data:`~repro.core.budget.NONDET_EDGE_BYTES` each,
    plus :data:`~repro.core.budget.NONDET_CONFIG_BYTES` per
    configuration).  On a trip the returned
    :class:`~repro.core.budget.Partial` carries a ``frontier`` with the
    completed rows; resumed frontiers are disk-backed memmaps whose rows
    are charged nothing, exactly like
    :func:`repro.core.phase_space.build_phase_space`.  A frontier whose
    rows are not bool (int64 successors) is refused.

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
        flips = frontier["succ"]
        if flips.dtype != bool:
            raise ValueError(
                f"sequential frontier holds {flips.dtype} successor rows, "
                f"the format before bool flip rows; it cannot be resumed"
            )
        start_row = int(frontier["next_row"])
    else:
        flips = np.empty((n, size), dtype=bool)
        start_row = 0
    per_state = 0 if isinstance(flips, np.memmap) else flips.itemsize
    transient = ca.sweep_transient_bytes()

    def _frontier(next_row: int) -> dict[str, object]:
        return {
            "kind": "nondet",
            "n": n,
            "automaton": ca.describe(),
            "total": total,
            "next_row": next_row,
            "succ": flips,
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
                    ca.node_flips(i, flips[i], budget=budget)
                except BudgetExceeded as err:
                    # The row's chunked sweep tripped mid-row; resume
                    # granularity is whole rows, so the partial row is
                    # discarded and the frontier restarts at row ``i``.
                    build_span.set(truncated=err.reason, rows_done=i)
                    return _truncated(err.reason, i)
                budget.charge(states=size, bytes_=per_state * size)
        edges = int(np.count_nonzero(flips))
        analysis = NONDET_EDGE_BYTES * edges + NONDET_CONFIG_BYTES * size
        reason = budget.over(pending_bytes=analysis)
        if reason is not None:
            build_span.set(truncated=reason, rows_done=n)
            return _truncated(reason, n)
        budget.charge(bytes_=analysis)
        nps = NondetPhaseSpace(flips, n)
        return Partial.done(nps, explored=total, total=total)
