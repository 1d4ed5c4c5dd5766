"""Cycle structure of functional graphs and general digraphs.

A deterministic phase space is a *functional graph*: every configuration has
exactly one successor, so the graph decomposes into disjoint cycles with
trees hanging off them ("rho" shapes).  :class:`FunctionalGraph` extracts
the full decomposition — cycle membership, attractor labels, distance to the
attractor, basins — by pointer jumping (Wyllie-style doubling) over whole
arrays: each round squares a map with one numpy gather, so a graph whose
deepest transient is ``T`` steps long needs ⌈log2 T⌉ + 1 rounds, and the
optional budget is polled once per round.  :func:`cycles_python`, Kahn's
in-degree peel one node at a time, is kept as the reference it is tested
against.

For the nondeterministic sequential phase spaces we need strongly connected
components of a sparse digraph; :func:`strongly_connected_sizes` wraps
SciPy's compiled Tarjan implementation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "FunctionalGraph",
    "cycle_length_counts",
    "cycles_python",
    "strongly_connected_sizes",
    "scc_labels",
    "scc_labels_python",
]

#: nodes between budget checks in the Python walk that lists the cycles
#: (a check is a few attribute reads; 2**16 keeps the overhead invisible
#: while bounding cancellation latency to well under a second).
_CHECK_EVERY = 1 << 16


def _cycle_mask(succ: np.ndarray, budget=None) -> np.ndarray:
    """Cycle nodes of ``succ``: the image of ``succ**(2**k)`` once it stops
    shrinking.

    The images of ``succ**m`` are nested and equal the cycle nodes exactly
    when ``m >= T``.  Two consecutive ones of equal size are equal sets,
    which ``succ`` then permutes, so the first round whose squared map has
    an image no smaller than the last one's stops the loop: after
    ⌈log2 T⌉ + 1 rounds of one gather and one scatter each.  At most two
    int64 powers and the mask are live.
    """
    image = np.zeros(succ.size, dtype=bool)
    image[succ] = True
    count = np.count_nonzero(image)
    power = succ
    while True:
        if budget is not None:
            budget.check()
        power = power[power]
        image.fill(False)
        image[power] = True
        shrunk = np.count_nonzero(image)
        if shrunk == count:
            return image
        count = shrunk


def _descend(
    succ: np.ndarray, on_cycle: np.ndarray, budget=None
) -> tuple[np.ndarray, np.ndarray]:
    """``(entry, dist)``: each node's first cycle node and the steps to it.

    Pointer jumping that stops at cycle nodes: ``entry`` starts as ``succ``
    with every cycle node pointing at itself and ``dist`` as 1 off the
    cycles, 0 on them.  Each round adds the distance still to go from
    ``entry`` and squares ``entry``; once that distance is 0 everywhere,
    every ``entry`` is a cycle node, after ⌈log2 T⌉ + 1 rounds.  At most
    three int64 arrays are live.
    """
    entry = succ.copy()
    cycle_nodes = np.flatnonzero(on_cycle)
    entry[cycle_nodes] = cycle_nodes
    del cycle_nodes
    dist = (~on_cycle).astype(np.int64)
    while True:
        if budget is not None:
            budget.check()
        ahead = dist[entry]
        if not ahead.any():
            return entry, dist
        dist += ahead
        del ahead  # freed before the squaring allocates the next entry
        entry = entry[entry]


class FunctionalGraph:
    """Analysis of a map ``succ: {0..N-1} -> {0..N-1}`` given as an array.

    :attr:`on_cycle`, :attr:`steps_to_cycle` and :attr:`attractor_of` are
    pointer jumps of ⌈log2 T⌉ + 1 numpy rounds each, ``T`` the deepest
    transient.  An optional :class:`~repro.core.budget.Budget` is polled
    once per round, and every ``2**16`` nodes of the Python walk that lists
    :attr:`cycles`; a passed deadline or a cancelled token raises
    :class:`~repro.core.budget.BudgetExceeded` there.
    """

    def __init__(self, succ: np.ndarray, budget=None):
        succ = np.asarray(succ, dtype=np.int64).ravel()
        if succ.size == 0:
            raise ValueError("functional graph must have at least one node")
        if succ.min() < 0 or succ.max() >= succ.size:
            raise ValueError("successor indices out of range")
        self.succ = succ
        self.size = succ.size
        self._budget = budget

    def _check_budget(self, tick: int) -> None:
        if self._budget is not None and tick % _CHECK_EVERY == 0:
            self._budget.check()

    # -- core decomposition ---------------------------------------------------

    @cached_property
    def on_cycle(self) -> np.ndarray:
        """Boolean mask: node lies on a cycle (fixed points included)."""
        return _cycle_mask(self.succ, self._budget)

    @cached_property
    def fixed_points(self) -> np.ndarray:
        """Nodes with ``succ[v] == v``."""
        return np.flatnonzero(self.succ == np.arange(self.size))

    @cached_property
    def cycles(self) -> list[list[int]]:
        """All cycles (fixed points included), ordered by their smallest
        node, each listed in successor order from that node."""
        on_cycle = self.on_cycle
        visited = np.zeros(self.size, dtype=bool)
        out: list[list[int]] = []
        tick = 0
        for start in np.flatnonzero(on_cycle):
            if visited[start]:
                continue
            cyc = []
            v = int(start)
            while not visited[v]:
                tick += 1
                self._check_budget(tick)
                visited[v] = True
                cyc.append(v)
                v = int(self.succ[v])
            out.append(cyc)
        return out

    @cached_property
    def proper_cycles(self) -> list[list[int]]:
        """Cycles of length >= 2 (the paper's nontrivial temporal cycles)."""
        return [c for c in self.cycles if len(c) >= 2]

    @cached_property
    def attractor_of(self) -> np.ndarray:
        """Index (into :attr:`cycles`) of the attractor each node falls into."""
        entry = _descend(self.succ, self.on_cycle, self._budget)[0]
        label = np.empty(self.size, dtype=np.int64)  # read at cycle nodes only
        for k, cycle in enumerate(self.cycles):
            label[cycle] = k
        return label[entry]

    @cached_property
    def steps_to_cycle(self) -> np.ndarray:
        """Number of steps from each node to the first on-cycle node."""
        return _descend(self.succ, self.on_cycle, self._budget)[1]

    # -- derived views ----------------------------------------------------------

    @cached_property
    def in_degrees(self) -> np.ndarray:
        """In-degree of every node in the functional graph."""
        return np.bincount(self.succ, minlength=self.size)

    @cached_property
    def gardens_of_eden(self) -> np.ndarray:
        """Nodes with no predecessor — unreachable configurations.

        The "Garden of Eden" configurations of the CA literature (and of the
        paper's reference [3]).
        """
        return np.flatnonzero(self.in_degrees == 0)

    def basin_sizes(self) -> np.ndarray:
        """Number of nodes draining into each attractor (cycle included)."""
        return np.bincount(self.attractor_of, minlength=len(self.cycles))

    def max_transient(self) -> int:
        """Length of the longest transient tail."""
        return int(self.steps_to_cycle.max())


def cycle_length_counts(graph: FunctionalGraph) -> dict[str, int]:
    """Attractor census of a materialized functional graph.

    The comparator for the attractor-direct kernel
    (:mod:`repro.perf.attractor`): the same four counts — fixed points,
    configurations on proper cycles, configurations on two-cycles, and
    the longest cycle length — computed the classical way, by
    :func:`cycles_python` over the stored successor array, so the two
    paths can be diffed byte for byte.
    """
    lengths = [len(cycle) for cycle in cycles_python(graph.succ)]
    return {
        "fixed_points": lengths.count(1),
        "cycle_configs": sum(length for length in lengths if length >= 2),
        "two_cycle_configs": 2 * lengths.count(2),
        "max_cycle_len": max(lengths),
    }


def scc_labels(
    rows: np.ndarray, cols: np.ndarray, num_nodes: int
) -> tuple[int, np.ndarray]:
    """Strongly connected component labels of a sparse digraph.

    ``rows -> cols`` are the directed edges.  Wraps SciPy's compiled
    implementation; returns ``(n_components, labels)``.  Components are
    numbered in reverse topological order, as each completes: every edge
    between two components runs from the higher label to the lower
    (:class:`~repro.core.closure.ReachabilityClosure` relies on it).
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have equal length")
    mat = sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)),
        shape=(num_nodes, num_nodes),
    )
    n_comp, labels = csgraph.connected_components(
        mat, directed=True, connection="strong"
    )
    return int(n_comp), labels


def strongly_connected_sizes(
    rows: np.ndarray, cols: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Sizes of all SCCs of the digraph with the given edge list."""
    n_comp, labels = scc_labels(rows, cols, num_nodes)
    return np.bincount(labels, minlength=n_comp)


def scc_labels_python(
    rows: np.ndarray, cols: np.ndarray, num_nodes: int
) -> tuple[int, np.ndarray]:
    """Reference SCC implementation: iterative Tarjan in pure Python.

    Same contract as :func:`scc_labels`, label order included: Tarjan
    labels a component when it completes.  Kept as the correctness oracle
    and the ablation baseline for the compiled SciPy path (see
    ``benchmarks/bench_ablation_scc.py``); use :func:`scc_labels` in
    production code.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have equal length")
    # CSR-style adjacency built with NumPy, traversal in Python.
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    sorted_cols = cols[order]
    starts = np.searchsorted(sorted_rows, np.arange(num_nodes + 1))

    index = np.full(num_nodes, -1, dtype=np.int64)
    lowlink = np.zeros(num_nodes, dtype=np.int64)
    on_stack = np.zeros(num_nodes, dtype=bool)
    labels = np.full(num_nodes, -1, dtype=np.int64)
    stack: list[int] = []
    next_index = 0
    n_components = 0

    for root in range(num_nodes):
        if index[root] != -1:
            continue
        # Iterative Tarjan: work items are (vertex, next-edge-offset).
        work = [(root, 0)]
        while work:
            v, edge_pos = work[-1]
            if edge_pos == 0:
                index[v] = lowlink[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(starts[v] + edge_pos, starts[v + 1]):
                w = int(sorted_cols[k])
                if index[w] == -1:
                    work[-1] = (v, k - starts[v] + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    labels[w] = n_components
                    if w == v:
                        break
                n_components += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return n_components, labels


def cycles_python(succ: np.ndarray) -> list[list[int]]:
    """Reference cycle listing: Kahn's in-degree peel in pure Python.

    Same contract as :attr:`FunctionalGraph.cycles`.  Repeatedly deletes an
    in-degree-0 node (Kahn's algorithm specialised to out-degree 1), one
    node per Python iteration; the survivors are exactly the cycle nodes,
    each cycle then walked in successor order from its smallest node.  It
    shares no code with :class:`FunctionalGraph`: it is the oracle the
    pointer jumps are tested against (``tests/test_cycles.py``,
    ``differential.functional_graph``) and, through
    :func:`cycle_length_counts`, the classical baseline the
    attractor-direct census is diffed and timed against
    (``benchmarks/bench_attractor_census.py``).
    """
    succ = np.asarray(succ, dtype=np.int64).ravel()
    size = succ.size
    indeg = np.bincount(succ, minlength=size)
    order = np.empty(size, dtype=np.int64)
    zero = np.flatnonzero(indeg == 0)
    order[: zero.size] = zero
    head = 0
    tail = zero.size
    while head < tail:
        v = order[head]
        head += 1
        w = succ[v]
        indeg[w] -= 1
        if indeg[w] == 0:
            order[tail] = w
            tail += 1
    visited = indeg == 0  # peeled nodes count as visited
    out: list[list[int]] = []
    for start in np.flatnonzero(~visited):
        if visited[start]:
            continue
        cyc = []
        v = int(start)
        while not visited[v]:
            visited[v] = True
            cyc.append(v)
            v = int(succ[v])
        out.append(cyc)
    return out
