"""Tests for functional-graph machinery (repro.analysis.cycles)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cycles import (
    FunctionalGraph,
    cycles_python,
    scc_labels,
    scc_labels_python,
    strongly_connected_sizes,
)
from repro.core.budget import Budget, BudgetExceeded


def _orbit_walk(succ, cycles):
    """Brute force: every node's steps to its first listed cycle node, and
    that cycle's index, by walking its orbit one step at a time."""
    index = {v: k for k, cycle in enumerate(cycles) for v in cycle}
    steps, attractor = [], []
    for v in range(len(succ)):
        w, d = v, 0
        while w not in index:
            w, d = int(succ[w]), d + 1
        steps.append(d)
        attractor.append(index[w])
    return steps, attractor


def _assert_matches_reference(succ) -> FunctionalGraph:
    """The jumps equal the reference peel plus a brute-force orbit walk."""
    fg = FunctionalGraph(succ)
    cycles = cycles_python(succ)
    steps, attractor = _orbit_walk(succ, cycles)
    on_cycle = np.zeros(len(succ), dtype=bool)
    on_cycle[[v for cycle in cycles for v in cycle]] = True
    np.testing.assert_array_equal(fg.on_cycle, on_cycle)
    assert fg.cycles == cycles
    assert fg.steps_to_cycle.tolist() == steps
    assert fg.attractor_of.tolist() == attractor
    return fg


class _CountingBudget:
    """Stands in for a Budget: counts the analysis's polls."""

    def __init__(self):
        self.polls = 0

    def check(self):
        self.polls += 1


def _assert_rounds(succ):
    """Each jump polls once per round: ⌈log2 T⌉ + 1, one when T <= 1."""
    depth = max(_orbit_walk(succ, cycles_python(succ))[0])
    rounds = max(depth - 1, 0).bit_length() + 1
    budget = _CountingBudget()
    fg = FunctionalGraph(succ, budget=budget)
    fg.on_cycle
    assert budget.polls == rounds
    fg.steps_to_cycle
    assert budget.polls == 2 * rounds


def _relabel(succ, seed):
    """The same graph with its nodes renumbered at random."""
    perm = np.random.default_rng(seed).permutation(len(succ))
    out = np.empty(len(succ), dtype=np.int64)
    out[perm] = perm[np.asarray(succ)]
    return out


def _tree(depth, extra, seed):
    """A 3-cycle whose in-tree is exactly ``depth`` deep: a chain of
    ``depth`` nodes into the cycle, and ``extra`` nodes hung at random on
    nodes less than ``depth`` deep (a bare chain when ``extra`` is 0)."""
    rng = np.random.default_rng(seed)
    succ = [1, 2, 0]
    level = [0, 0, 0]
    for d in range(1, depth + 1):
        succ.append(0 if d == 1 else len(succ) - 1)
        level.append(d)
    for _ in range(extra):
        parent = int(rng.choice([v for v in range(len(succ)) if level[v] < depth]))
        succ.append(parent)
        level.append(level[parent] + 1)
    return _relabel(succ, seed)


#: transient depths around each power of two, where the round count steps
_DEPTHS = sorted({d for k in (1, 2, 3, 5, 7) for d in (2**k - 1, 2**k, 2**k + 1)})


class TestFunctionalGraph:
    def test_identity_map_all_fixed(self):
        fg = FunctionalGraph(np.arange(5))
        assert fg.fixed_points.tolist() == [0, 1, 2, 3, 4]
        assert fg.on_cycle.all()
        assert len(fg.cycles) == 5
        assert fg.proper_cycles == []

    def test_single_cycle(self):
        # 0 -> 1 -> 2 -> 0
        fg = FunctionalGraph(np.array([1, 2, 0]))
        assert len(fg.cycles) == 1
        assert sorted(fg.cycles[0]) == [0, 1, 2]
        assert fg.proper_cycles == fg.cycles

    def test_rho_shape(self):
        # 3 -> 2 -> 0 <-> 1 (two-cycle with a tail)
        succ = np.array([1, 0, 0, 2])
        fg = FunctionalGraph(succ)
        assert sorted(fg.cycles[0]) == [0, 1]
        assert fg.on_cycle.tolist() == [True, True, False, False]
        assert fg.steps_to_cycle.tolist() == [0, 0, 1, 2]
        assert fg.attractor_of.tolist() == [0, 0, 0, 0]
        assert fg.max_transient() == 2

    def test_two_attractors_and_basins(self):
        # 0 fixed; 1 fixed; 2->0, 3->1, 4->3
        succ = np.array([0, 1, 0, 1, 3])
        fg = FunctionalGraph(succ)
        assert len(fg.cycles) == 2
        basins = fg.basin_sizes()
        assert sorted(basins.tolist()) == [2, 3]

    def test_gardens_of_eden(self):
        succ = np.array([0, 0, 1, 1])
        fg = FunctionalGraph(succ)
        assert fg.gardens_of_eden.tolist() == [2, 3]

    def test_in_degrees(self):
        succ = np.array([0, 0, 0, 1])
        fg = FunctionalGraph(succ)
        assert fg.in_degrees.tolist() == [3, 1, 0, 0]

    def test_cycle_listed_in_successor_order(self):
        succ = np.array([2, 0, 1])  # 0 -> 2 -> 1 -> 0
        fg = FunctionalGraph(succ)
        cyc = fg.cycles[0]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert succ[a] == b

    def test_rejects_bad_successors(self):
        with pytest.raises(ValueError):
            FunctionalGraph(np.array([0, 5]))
        with pytest.raises(ValueError):
            FunctionalGraph(np.array([], dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=32,
                    max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_invariants_random_maps(self, succ_list):
        fg = _assert_matches_reference(np.array(succ_list))
        # The reference's cycle nodes are exactly the nodes whose orbit
        # returns to them.
        recurrent = set()
        for v in range(32):
            w = succ_list[v]
            for _ in range(32):
                if w == v:
                    recurrent.add(v)
                    break
                w = succ_list[w]
        assert recurrent == set(np.flatnonzero(fg.on_cycle).tolist())
        # Partition: every node is on a cycle or a transient tree node.
        cyc_nodes = {v for c in fg.cycles for v in c}
        assert cyc_nodes == set(np.flatnonzero(fg.on_cycle).tolist())
        # Walking steps_to_cycle steps lands on a cycle node.
        for v in range(32):
            w = v
            for _ in range(int(fg.steps_to_cycle[v])):
                w = succ_list[w]
            assert fg.on_cycle[w]
        # Attractor labels are consistent along edges.
        for v in range(32):
            assert fg.attractor_of[v] == fg.attractor_of[succ_list[v]]
        # Basin sizes sum to the number of nodes.
        assert fg.basin_sizes().sum() == 32


class TestPointerJumps:
    @pytest.mark.parametrize("size", [1, 2, 3, 16, 100, 1000, 4096])
    def test_random_maps(self, size):
        succ = np.random.default_rng(size).integers(0, size, size)
        _assert_matches_reference(succ)
        _assert_rounds(succ)

    @pytest.mark.parametrize("size", [1, 2, 64, 4096])
    def test_permutations(self, size):
        succ = np.random.default_rng(size).permutation(size)
        fg = _assert_matches_reference(succ)
        assert fg.on_cycle.all()
        _assert_rounds(succ)

    @pytest.mark.parametrize("extra", [0, 40], ids=["chain", "tree"])
    @pytest.mark.parametrize("depth", _DEPTHS)
    def test_depths_around_powers_of_two(self, depth, extra):
        succ = _tree(depth, extra, seed=depth)
        fg = _assert_matches_reference(succ)
        assert fg.max_transient() == depth
        _assert_rounds(succ)

    def test_cancelled_budget_stops_each_jump(self):
        succ = np.array([1, 0, 0, 2])
        budget = Budget()
        budget.token.cancel("test")
        with pytest.raises(BudgetExceeded):
            FunctionalGraph(succ, budget=budget).on_cycle
        budget = Budget()
        fg = FunctionalGraph(succ, budget=budget)
        fg.on_cycle
        budget.token.cancel("test")
        with pytest.raises(BudgetExceeded):
            fg.steps_to_cycle


class TestSCC:
    def test_two_cycle(self):
        sizes = strongly_connected_sizes(
            np.array([0, 1]), np.array([1, 0]), 3
        )
        assert sorted(sizes.tolist()) == [1, 2]

    def test_dag_all_singletons(self):
        rows = np.array([0, 1, 2])
        cols = np.array([1, 2, 3])
        sizes = strongly_connected_sizes(rows, cols, 4)
        assert sizes.tolist() == [1, 1, 1, 1]

    def test_labels_count(self):
        n_comp, labels = scc_labels(np.array([0, 1, 2]), np.array([1, 2, 0]), 4)
        assert n_comp == 2  # the triangle plus the isolated node
        assert len(set(labels[:3].tolist())) == 1

    def test_empty_edges(self):
        sizes = strongly_connected_sizes(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 5
        )
        assert sizes.tolist() == [1] * 5

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            scc_labels(np.array([0]), np.array([0, 1]), 2)

    @pytest.mark.parametrize("impl", [scc_labels, scc_labels_python])
    def test_labels_are_reverse_topological(self, impl):
        """Every edge between two components runs from the higher label to
        the lower (the order ``ReachabilityClosure`` accumulates in), and
        the partition is the same for both implementations."""
        rng = np.random.default_rng(1999)
        for _ in range(100):
            nodes = int(rng.integers(1, 60))
            edges = int(rng.integers(0, 4 * nodes))
            rows = rng.integers(0, nodes, edges)
            cols = rng.integers(0, nodes, edges)
            n_comp, labels = impl(rows, cols, nodes)
            assert sorted(set(labels.tolist())) == list(range(n_comp))
            cross = labels[rows] != labels[cols]
            assert (labels[rows][cross] > labels[cols][cross]).all()
            _, ref = scc_labels(rows, cols, nodes)
            pairs = set(zip(labels.tolist(), ref.tolist()))
            assert len(pairs) == n_comp == len(set(ref.tolist()))
