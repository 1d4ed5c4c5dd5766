"""Nondeterministic phase spaces of sequential cellular automata.

An SCA from a given configuration may update any node next, so its phase
space is a node-labelled nondeterministic transition graph — Figure 1(b) of
the paper.  Updating node ``i`` changes at most bit ``i``, so the whole
graph is ``n`` sets of configurations, held as packed *flip words*: an
``(n, max(1, 2**n / 64))`` ``uint64`` array whose row ``i`` has bit ``x``
set iff updating node ``i`` moves ``x`` to ``x ^ 2**i`` (the padding bits
of a space smaller than one word are zero).  :class:`NondetPhaseSpace`
holds those words and answers the paper's questions:

* Is the phase space *cycle-free*?  (Lemma 1(ii), Theorem 1.)  A *proper
  cycle* is a closed walk through at least two distinct configurations;
  updates that do not change the configuration are self-loops and never
  count.  Proper cycles exist iff the "change-edge" digraph has a cycle,
  which a word-parallel sink peel (:func:`sink_peel`) decides; its
  strongly connected components of size >= 2 are computed only when the
  peel finds one.
* Which configurations are genuine fixed points, and which merely
  *pseudo-fixed points* — non-fixed configurations that some update orders
  keep revisiting because one of their single-node updates is a self-loop?
* What is sequentially reachable from where? (Used by the interleaving
  experiments: e.g. ``00`` in Fig. 1(b) is a fixed point that no other
  configuration can reach.)  A search grows a set of configurations held
  as words one breadth-first level at a time: the successors of a set
  ``S`` are ``OR_i flip_i(S & U_i)`` and its predecessors
  ``OR_i (U_i & flip_i(S))``, ``U_i`` the flip words of node ``i``.
"""

from __future__ import annotations

from functools import cached_property

import networkx as nx
import numpy as np

from repro.analysis.cycles import scc_labels
from repro.core.automaton import CellularAutomaton
from repro.core.budget import (
    NONDET_CONFIG_BYTES,
    NONDET_EDGE_BYTES,
    NONDET_PEEL_ROWS,
    Budget,
    BudgetExceeded,
    Partial,
    check_frontier,
    resolve_budget,
)
from repro.obs import span
from repro.perf.base import MAX_SWEEP_N, flip_row_words
from repro.util.bitops import (
    config_str,
    flip_lanes,
    popcount_words,
    unpack_lanes,
)

__all__ = ["NondetPhaseSpace", "build_nondet_phase_space", "sink_peel"]


def sink_peel(words: np.ndarray, budget: Budget | None = None) -> bool:
    """Whether the change-edge graph of the flip ``words`` has a cycle.

    Starting from every configuration, each round keeps the ones with a
    change edge into the kept set, ``alive = OR_i (U_i & flip_i(alive))``,
    until the set stops changing or empties.  A configuration on a cycle
    is never dropped, and in a non-empty fixpoint every member has a
    successor inside it, so the fixpoint is non-empty iff there is a
    cycle.  On an acyclic space the peel takes one round more than the
    longest change path: O(n) for threshold rules, whose every effective
    flip lowers the Goles–Martinez energy.  The first round needs no
    flips (``flip_i`` of every configuration is every configuration), and
    as the kept set only shrinks, a round that keeps as many
    configurations as the last has reached the fixpoint.

    ``budget`` (else the ambient one) is polled once per round, raising
    :class:`~repro.core.budget.BudgetExceeded` on a trip; the
    ``nondet.peel`` span's ``rounds`` attribute counts the rounds.  Besides
    ``words`` the peel holds the live set, the kept set and a flipped copy
    with its temporary: the word rows the build charges as
    :data:`~repro.core.budget.NONDET_PEEL_ROWS`.
    """
    budget = resolve_budget(budget)
    n = words.shape[0]
    with span("nondet.peel", n=n) as peel_span:
        budget.check()
        rounds = 1
        alive = np.bitwise_or.reduce(words, axis=0)
        count = popcount_words(alive)
        while count:
            budget.check()
            rounds += 1
            kept = flip_lanes(alive, 0)
            kept &= words[0]
            for i in range(1, n):
                moved = flip_lanes(alive, i)
                moved &= words[i]
                kept |= moved
                del moved  # freed before the next flip allocates
            alive, last = kept, count
            count = popcount_words(alive)
            if count == last:
                break
        peel_span.set(rounds=rounds, cyclic=count > 0)
    return count > 0


def _check_code(code: int, size: int) -> None:
    if not 0 <= int(code) < size:
        raise ValueError("configuration code out of range")


def _has(words: np.ndarray, code: int) -> bool:
    """Whether lane ``code`` of ``words`` is set."""
    return bool(words[code >> 6] >> np.uint64(code & 63) & np.uint64(1))


class NondetPhaseSpace:
    """The full sequential (one-node-at-a-time) phase space of an automaton.

    ``flips`` is the ``(n, max(1, 2**n / 64))`` ``uint64`` flip words
    (:meth:`CellularAutomaton.flips`), padding bits zero.
    """

    def __init__(self, flips: np.ndarray, n_nodes: int):
        flips = np.asarray(flips)
        size, nwords = 1 << n_nodes, flip_row_words(n_nodes)
        if flips.dtype != np.uint64 or flips.shape != (n_nodes, nwords):
            raise ValueError(
                f"flip words have dtype {flips.dtype} and shape {flips.shape}, "
                f"expected ({n_nodes}, {nwords}) uint64"
            )
        if size < 64 and (flips >> np.uint64(size)).any():
            raise ValueError(
                f"flip words set padding bits past configuration {size - 1}"
            )
        self.words = flips
        self.n_nodes = n_nodes
        #: the peel's verdict, once decided (:meth:`has_proper_cycle`)
        self._cyclic: bool | None = None

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

    def _flips_at(self, code: int) -> np.ndarray:
        """``bool[n]``: does updating node ``i`` change ``code``?"""
        word = self.words[:, int(code) >> 6]
        return (word >> np.uint64(int(code) & 63)) & np.uint64(1) != 0

    def _lanes(self, words: np.ndarray) -> np.ndarray:
        """The configurations whose bit is set in ``words``."""
        return np.flatnonzero(unpack_lanes(words, self.size))

    def _changed(self) -> np.ndarray:
        """Words of the configurations some update changes."""
        return np.bitwise_or.reduce(self.words, axis=0)

    def _reached(self) -> np.ndarray:
        """Words of the configurations some change edge enters."""
        reached = np.zeros_like(self.words[0])
        for i in range(self.n_nodes):
            reached |= flip_lanes(self.words[i], i)  # x's edge enters x ^ 2**i
        return reached

    def transitions(self, code: int) -> list[tuple[int, int]]:
        """All ``(node, successor)`` pairs from a configuration
        (self-loops included)."""
        flips = self._flips_at(code)
        return [(i, int(code) ^ (int(f) << i)) for i, f in enumerate(flips)]

    def change_edge_count(self) -> int:
        """Number of change edges (updates that change their
        configuration), counted row by row: its scratch is one row's."""
        return sum(popcount_words(row) for row in self.words)

    @cached_property
    def _change_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges that actually change the configuration: (src, dst), node
        by node, each node's in ascending ``src`` order (derived from the
        words on first use)."""
        counts = [popcount_words(row) for row in self.words]
        srcs = np.empty(sum(counts), dtype=np.int64)
        dsts = np.empty_like(srcs)
        at = 0
        for i, count in enumerate(counts):
            part = slice(at, at + count)
            srcs[part] = self._lanes(self.words[i])
            np.bitwise_xor(srcs[part], 1 << i, out=dsts[part])
            at += count
        return srcs, dsts

    # -- fixed points ----------------------------------------------------------

    @cached_property
    def fixed_points(self) -> np.ndarray:
        """Configurations fixed under *every* single-node update.

        For with-memory rules these coincide with the parallel CA's fixed
        points — one of the structural facts the integration tests check.
        """
        return self._lanes(~self._changed())

    @cached_property
    def pseudo_fixed_points(self) -> np.ndarray:
        """Non-fixed configurations with at least one self-loop update.

        The paper's Fig. 1(b) calls these (unstable) pseudo-fixed points:
        under some update orders they look fixed, yet other orders leave
        them.
        """
        pseudo = np.bitwise_and.reduce(self.words, axis=0)
        pseudo ^= self._changed()  # changed & ~always, as always ⊆ changed
        return self._lanes(pseudo)

    # -- cycles ------------------------------------------------------------------

    def _peel(self, budget: Budget | None = None) -> bool:
        """The sink peel's verdict, decided under ``budget`` once and
        cached."""
        if self._cyclic is None:
            self._cyclic = sink_peel(self.words, budget)
        return self._cyclic

    @cached_property
    def _scc(self) -> tuple[int, np.ndarray]:
        srcs, dsts = self._change_edges
        return scc_labels(srcs, dsts, self.size)

    def has_proper_cycle(self) -> bool:
        """True iff some update order revisits a configuration after leaving it."""
        return self._peel()

    def proper_cycle_components(self) -> list[np.ndarray]:
        """The SCCs of size >= 2 of the change-edge digraph.

        Every proper cycle lies inside one of these components, and every
        component of size >= 2 contains a proper cycle.  Computed only on
        a space the peel found cyclic.
        """
        if not self.has_proper_cycle():
            return []
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
                flips_a = self._flips_at(a)
                for i in range(self.n_nodes):
                    # Only node i's update can undo a flip of bit i.
                    b = a ^ (1 << i)
                    if flips_a[i] and self._flips_at(b)[i]:
                        return a, i, b, i
        return None

    # -- reachability ---------------------------------------------------------

    def _levels(self, code: int, forward: bool = True):
        """Yield ``(seen, level)`` word rows round by round: ``level`` the
        configurations first met ``k`` change edges after (``forward``) or
        before ``code``, ``seen`` all met so far (grown in place; each
        level is a new row).  Six rows at most are live: those two, the
        next level, and a masked copy, a flipped copy and its temporary.
        """
        _check_code(code, self.size)
        level = np.zeros_like(self.words[0])
        level[int(code) >> 6] = np.uint64(1) << np.uint64(int(code) & 63)
        seen = level.copy()
        while True:
            yield seen, level
            grown = np.zeros_like(seen)
            for i, row in enumerate(self.words):
                if forward:  # x -> x ^ 2**i for x in level & U_i
                    grown |= flip_lanes(level & row, i)
                else:  # x in U_i with x ^ 2**i in level
                    moved = flip_lanes(level, i)
                    moved &= row
                    grown |= moved
            grown |= seen
            grown ^= seen  # the configurations not met before
            if not grown.any():
                return
            seen |= grown
            level = grown

    def reachable_from(self, code: int) -> np.ndarray:
        """All configurations reachable from ``code`` by some update sequence.

        ``code`` itself is included (the empty sequence).
        """
        for seen, _ in self._levels(code):
            pass
        return self._lanes(seen)

    def can_reach(self, source: int, target: int) -> bool:
        """True iff some sequential interleaving drives source to target."""
        _check_code(target, self.size)
        return any(_has(level, target) for _, level in self._levels(source))

    def coreachable_to(self, code: int) -> np.ndarray:
        """All configurations from which ``code`` is reachable (incl. itself)."""
        for seen, _ in self._levels(code, forward=False):
            pass
        return self._lanes(seen)

    def shortest_schedule(self, source: int, target: int) -> list[int] | None:
        """An explicit update word driving ``source`` to ``target``, if any.

        Returns the node indices of a shortest sequence of *effective*
        single-node updates (the constructive witness behind "there exists
        an interleaving"), ``[]`` when source == target, or ``None`` when
        no interleaving reaches the target.  The search keeps one word row
        per level; walking back from the target, each step takes the
        smallest node whose update enters it from the level before, so the
        word is deterministic.
        """
        _check_code(target, self.size)
        levels = []
        for _, level in self._levels(source):
            levels.append(level)
            if _has(level, target):
                break
        else:
            return None
        word, code = [], int(target)
        for before in reversed(levels[:-1]):
            node = next(
                i
                for i, row in enumerate(self.words)
                if _has(before, code ^ 1 << i) and _has(row, code ^ 1 << i)
            )
            word.append(node)
            code ^= 1 << node
        return word[::-1]

    def unreachable_configs(self) -> np.ndarray:
        """Configurations with no incoming change edge from any other config.

        The SCA analogue of Gardens of Eden; in Fig. 1(b), ``00`` is one.
        """
        return self._lanes(~self._reached())

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
        """Headline statistics, mirroring :meth:`PhaseSpace.summary`; the
        counts are popcounts of flip words, so no per-configuration list
        is built."""
        changed = self._changed()
        fixed = self.size - popcount_words(changed)
        # Every update changing x implies some update does: the
        # pseudo-fixed words are ``changed & ~always``, i.e. the XOR.
        always = np.bitwise_and.reduce(self.words, axis=0)
        always ^= changed
        pseudo = popcount_words(always)
        del changed, always
        return {
            "configurations": self.size,
            "fixed_points": fixed,
            "pseudo_fixed_points": pseudo,
            "has_proper_cycle": self.has_proper_cycle(),
            "proper_cycle_components": len(self.proper_cycle_components()),
            "unreachable_configs": self.size - popcount_words(self._reached()),
        }


def build_nondet_phase_space(
    ca: CellularAutomaton,
    budget: Budget | None = None,
    frontier: dict[str, object] | None = None,
) -> Partial[NondetPhaseSpace]:
    """Governed sequential phase-space build, resumable at chunk granularity.

    The ``(n, max(1, 2**n / 64))`` ``uint64`` flip words are filled in
    place by one governed sweep, every node's words of a chunk at once,
    as :func:`repro.core.phase_space.build_phase_space` fills its map: a
    chunk of ``k`` configurations is ``n * k`` states and ``n * k / 8``
    bytes, so a states cap stops at the same chunk on every backend.  Then
    the analysis is charged once: the sink peel (:func:`sink_peel`, its
    :data:`~repro.core.budget.NONDET_PEEL_ROWS` word rows or the sweep's
    scratch, whichever is larger, projected first; the budget polled once
    per round) decides whether the space has a proper cycle, and only a
    cyclic space is also charged for its SCC,
    :data:`~repro.core.budget.NONDET_EDGE_BYTES` per change edge plus
    :data:`~repro.core.budget.NONDET_CONFIG_BYTES` per configuration.  On
    a trip the returned :class:`~repro.core.budget.Partial` carries a
    ``frontier`` with the words below ``next_lo``; a resumed frontier's
    words are a disk-backed memmap, charged nothing.  When the analysis
    charge trips the memory ceiling, the stats name the bytes it needs
    (``analysis_bytes``).  A frontier whose array is not flip words (bool
    flip rows or int64 successors) is refused.

    ``explored``/``total`` count (configuration, node) transition units,
    i.e. ``n * next_lo`` of ``n * 2**n``.
    """
    budget = resolve_budget(budget)
    n = ca.n
    if n > MAX_SWEEP_N:
        raise ValueError(
            f"sequential phase space over 2**{n} configurations is too large"
        )
    size, nwords = 1 << n, flip_row_words(n)
    total = n * size
    if frontier is not None:
        check_frontier(frontier, "nondet", n, ca.describe())
        words = frontier["succ"]
        if words.dtype != np.uint64 or words.shape != (n, nwords):
            raise ValueError(
                f"sequential frontier holds {words.dtype} rows of "
                f"{words.shape[-1]} entries, not {nwords} uint64 flip words "
                f"per row; it cannot be resumed"
            )
        start = int(frontier["next_lo"])
    else:
        words = np.empty((n, nwords), dtype=np.uint64)
        start = 0
    # one flip bit per (configuration, node), nothing for a disk-backed resume
    per_state = 0 if isinstance(words, np.memmap) else 1 / 8

    def _truncated(
        reason: str, next_lo: int, analysis: int | None = None
    ) -> Partial[NondetPhaseSpace]:
        stats = {}
        if analysis is not None and reason.startswith("memory"):
            stats["analysis_bytes"] = analysis
        return Partial.truncated(
            reason,
            explored=n * next_lo,
            total=total,
            stats=stats,
            frontier={
                "kind": "nondet",
                "n": n,
                "automaton": ca.describe(),
                "total": total,
                "next_lo": next_lo,
                "succ": words,
            },
        )

    with span(
        "nondet.build", n=n, configs=size, budget=budget.describe()
    ) as build_span:
        with span("nondet.node_successors", n=n, resumed_from=start):
            next_lo, reason = ca.backend.governed_sweep(
                words,
                budget,
                fill=ca.backend.flips_range,
                start=start,
                per_state=per_state,
            )
        if reason is not None:
            build_span.set(truncated=reason, explored=n * next_lo)
            return _truncated(reason, next_lo)
        nps = NondetPhaseSpace(words, n)
        # The build's peak beside its words is the sweep's scratch (each
        # chunk's check projected it) or the peel's word rows, whichever
        # is larger: charged here, with a cyclic space's SCC on top.
        analysis = max(ca.backend.transient_bytes(), NONDET_PEEL_ROWS * words[0].nbytes)
        reason = budget.over(pending_bytes=analysis)
        if reason is None:
            try:
                if nps._peel(budget):
                    analysis += (
                        NONDET_EDGE_BYTES * nps.change_edge_count()
                        + NONDET_CONFIG_BYTES * size
                    )
                    reason = budget.over(pending_bytes=analysis)
            except BudgetExceeded as err:
                build_span.set(truncated=err.reason, explored=total)
                return _truncated(err.reason, size)
        if reason is not None:
            build_span.set(truncated=reason, explored=total)
            return _truncated(reason, size, analysis)
        budget.charge(bytes_=analysis)
        return Partial.done(nps, explored=total, total=total)
