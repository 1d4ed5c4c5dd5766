"""Tests for non-homogeneous CA (repro.core.heterogeneous) and the
Section 4 extension theorems."""

import networkx as nx
import numpy as np
import pytest

from repro.core.automaton import CellularAutomaton
from repro.core.heterogeneous import HeterogeneousCA
from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace
from repro.core.rules import (
    MajorityRule,
    SimpleThresholdRule,
    TableRule,
    XorRule,
)
from repro.core.theorems import (
    check_monotone_boundary,
    check_nonhomogeneous_threshold,
)
from repro.spaces.graph import GraphSpace, star_space
from repro.spaces.line import Line, Ring


class TestConstruction:
    def test_rule_count_must_match(self):
        with pytest.raises(ValueError):
            HeterogeneousCA(Ring(5), [MajorityRule()] * 4)

    def test_arity_checked_per_node(self):
        rules = [MajorityRule().with_arity(5)] * 5
        with pytest.raises(ValueError):
            HeterogeneousCA(Ring(5), rules)  # windows have width 3

    def test_describe_single_vs_many(self):
        same = HeterogeneousCA(Ring(4, radius=1), [MajorityRule()] * 4)
        assert "Majority" in same.describe()
        mixed = HeterogeneousCA(
            Ring(4, radius=1),
            [MajorityRule(), XorRule(), MajorityRule(), XorRule()],
        )
        assert "2 rules" in mixed.describe()


class TestSemantics:
    def test_homogeneous_degenerate_case_matches_plain_ca(self):
        rng = np.random.default_rng(0)
        het = HeterogeneousCA(Ring(7), [MajorityRule()] * 7)
        homo = CellularAutomaton(Ring(7), MajorityRule())
        for _ in range(10):
            x = rng.integers(0, 2, 7).astype(np.uint8)
            np.testing.assert_array_equal(het.step(x), homo.step(x))
        np.testing.assert_array_equal(het.step_all(), homo.step_all())

    def test_step_matches_naive(self):
        rng = np.random.default_rng(1)
        rules = [
            MajorityRule(), XorRule(), SimpleThresholdRule(1),
            SimpleThresholdRule(3), MajorityRule(), XorRule(),
        ]
        het = HeterogeneousCA(Ring(6), rules)
        for _ in range(20):
            x = rng.integers(0, 2, 6).astype(np.uint8)
            np.testing.assert_array_equal(het.step(x), het.step_naive(x))

    def test_mixed_fixed_arity_rules(self):
        # Per-node table rules of differing arity on an irregular graph.
        space = star_space(3)  # centre degree 3, leaves degree 1
        rules = []
        for i in range(space.n):
            width = len(space.input_window(i, True))
            rules.append(MajorityRule().with_arity(width))
        het = HeterogeneousCA(space, rules)
        homo = CellularAutomaton(space, MajorityRule())
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.integers(0, 2, space.n).astype(np.uint8)
            np.testing.assert_array_equal(het.step(x), homo.step(x))

    def test_node_successors_per_rule(self):
        rules = [SimpleThresholdRule(1), SimpleThresholdRule(3),
                 MajorityRule(), MajorityRule(), MajorityRule()]
        het = HeterogeneousCA(Ring(5), rules)
        for i in range(5):
            succ = het.node_successors(i)
            for code in range(32):
                expected = het.pack(het.update_node(het.unpack(code), i))
                assert int(succ[code]) == expected

    def test_line_boundary(self):
        rules = [SimpleThresholdRule(1)] * 4
        het = HeterogeneousCA(Line(4), rules)
        # OR over the window: a lone interior 1 spreads both ways.
        x = np.array([0, 1, 0, 0], dtype=np.uint8)
        np.testing.assert_array_equal(het.step(x), [1, 1, 1, 0])


class TestNonHomogeneousDichotomy:
    def test_mixed_thresholds_parallel_period_le_2(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            thetas = rng.integers(0, 5, size=8)
            het = HeterogeneousCA(
                Ring(8), [SimpleThresholdRule(int(t)) for t in thetas]
            )
            ps = PhaseSpace(het.step_all(), 8)
            assert max(ps.cycle_lengths()) <= 2

    def test_mixed_thresholds_sequential_cycle_free(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            thetas = rng.integers(0, 5, size=7)
            het = HeterogeneousCA(
                Ring(7), [SimpleThresholdRule(int(t)) for t in thetas]
            )
            nps = NondetPhaseSpace.from_automaton(het)
            assert not nps.has_proper_cycle()

    def test_theorem_check(self):
        report = check_nonhomogeneous_threshold(
            ring_sizes=(6, 8), assignments_per_size=4
        )
        assert report.holds

    def test_mixed_monotone_and_xor_can_cycle(self):
        # Heterogeneity with a NON-monotone rule in the mix breaks the
        # guarantee: XOR nodes can oscillate sequentially.
        g = GraphSpace(nx.path_graph(2))
        het = HeterogeneousCA(g, [XorRule(), XorRule()])
        nps = NondetPhaseSpace.from_automaton(het)
        assert nps.has_proper_cycle()


class TestMonotoneBoundary:
    def test_boundary_report_holds(self):
        report = check_monotone_boundary(ring_sizes=(3, 4, 5))
        assert report.holds
        assert report.details["monotone_rules"] == 20

    def test_shift_rule_sequential_cycle_witness(self):
        # x_i' = x_{i-1}: sequentially walk a lone 1 around the 4-ring.
        shift = TableRule([0, 1] * 4, name="left-shift")
        ca = CellularAutomaton(Ring(4), shift, memory=True)
        state = np.array([1, 0, 0, 0], dtype=np.uint8)
        code0 = ca.pack(state)
        # Update order 1,0,2,1,3,2,0,3 rotates the 1 fully around.
        for node in (1, 0, 2, 1, 3, 2, 0, 3):
            ca.update_node_inplace(state, node)
        assert ca.pack(state) == code0

    def test_shift_rule_is_monotone_not_symmetric(self):
        shift = TableRule([0, 1] * 4)
        assert shift.is_monotone()
        assert not shift.is_symmetric()

    def test_nonsymmetric_self_dependent_rules_stay_cycle_free(self):
        # "left AND self" is monotone, non-symmetric, self-dependent:
        # still sequentially cycle-free (positive energy diagonal).
        land_self = TableRule([0, 0, 0, 1, 0, 0, 0, 1], name="left-and-self")
        assert land_self.is_monotone() and not land_self.is_symmetric()
        for n in (3, 4, 5, 6):
            ca = CellularAutomaton(Ring(n), land_self, memory=True)
            assert not NondetPhaseSpace.from_automaton(ca).has_proper_cycle()
