"""Tests for ring symmetry (the dihedral group action in repro.util.bitops
and the equivariance of the global map) and the constructive interleaving
witnesses (NondetPhaseSpace.shortest_schedule)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.automaton import CellularAutomaton
from repro.core.nondet import NondetPhaseSpace
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule, TableRule, WolframRule, XorRule
from repro.spaces.line import Ring
from repro.util.bitops import (
    canonical_ring_form,
    reverse_bits,
    rotate_bits,
    rotate_bits_array,
)


def canonical(code: int, n: int) -> int:
    return int(canonical_ring_form(np.array([code], dtype=np.uint64), n)[0])


def translation_equivariant(ca, exhaustive_limit=14, samples=64, seed=0):
    """Does the global map commute with rotation?  (It must, on a ring.)

    Exhaustive up to ``exhaustive_limit`` nodes, sampled above.
    """
    n = ca.n
    if n <= exhaustive_limit:
        codes = np.arange(1 << n, dtype=np.uint64)
        succ = ca.step_all().astype(np.uint64)
        return all(
            np.array_equal(
                succ[rotate_bits_array(codes, n, shift).astype(np.int64)],
                rotate_bits_array(succ, n, shift),
            )
            for shift in range(1, n)
        )
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        state = rng.integers(0, 2, n).astype(np.uint8)
        shift = int(rng.integers(1, n))
        direct = ca.step(np.roll(state, shift))
        if not np.array_equal(direct, np.roll(ca.step(state), shift)):
            return False
    return True


def reflection_equivariant(ca, samples=64, seed=0):
    """Does the global map commute with mirroring?  True exactly when the
    local rule is mirror-symmetric in its window."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        state = rng.integers(0, 2, ca.n).astype(np.uint8)
        if not np.array_equal(ca.step(state[::-1].copy())[::-1], ca.step(state)):
            return False
    return True


class TestGroupAction:
    def test_rotate_and_reflect(self):
        assert rotate_bits(0b0001, 4, 1) == 0b0010
        assert reverse_bits(0b0011, 4) == 0b1100

    def test_canonical_is_orbit_minimum(self):
        n = 6
        code = 0b010110
        orbit = set()
        for s in range(n):
            r = rotate_bits(code, n, s)
            orbit.add(r)
            orbit.add(reverse_bits(r, n))
        assert canonical(code, n) == min(orbit)

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=50)
    def test_canonical_invariant_under_action(self, code, shift):
        n = 8
        assert canonical(rotate_bits(code, n, shift), n) == canonical(code, n)
        assert canonical(reverse_bits(code, n), n) == canonical(code, n)

    def test_symmetry_classes_partition(self):
        canon = canonical_ring_form(np.arange(64, dtype=np.uint64), 6)
        reps, sizes = np.unique(canon, return_counts=True)
        assert sizes.sum() == 64
        # Necklace + reflection count for n=6: 13 binary bracelets.
        assert reps.size == 13


class TestEquivariance:
    def test_majority_translation_equivariant_exhaustive(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        assert translation_equivariant(ca)

    def test_majority_translation_equivariant_sampled(self):
        ca = CellularAutomaton(Ring(64), MajorityRule())
        assert translation_equivariant(ca, exhaustive_limit=10)

    def test_all_wolfram_rules_translation_equivariant(self):
        # Spot-check a spread of elementary rules exhaustively on a 7-ring.
        for number in (30, 90, 110, 150, 184, 232):
            ca = CellularAutomaton(Ring(7), WolframRule(number))
            assert translation_equivariant(ca)

    def test_majority_reflection_equivariant(self):
        ca = CellularAutomaton(Ring(10), MajorityRule())
        assert reflection_equivariant(ca)

    def test_shift_rule_not_reflection_equivariant(self):
        shift = TableRule([0, 1] * 4, name="left-shift")
        ca = CellularAutomaton(Ring(10), shift)
        assert translation_equivariant(ca)
        assert not reflection_equivariant(ca)

    def test_phase_space_features_closed_under_rotation(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        ps = PhaseSpace.from_automaton(ca)
        fps = set(ps.fixed_points.tolist())
        for code in list(fps):
            for s in range(8):
                assert rotate_bits(code, 8, s) in fps

    def test_two_cycle_is_one_symmetry_class(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        ps = PhaseSpace.from_automaton(ca)
        canon = canonical_ring_form(ps.cycle_configs.astype(np.uint64), 8)
        assert np.unique(canon).size == 1  # 01010101 and 10101010: one bracelet


class TestShortestSchedule:
    @pytest.fixture(scope="class")
    def majority6(self):
        ca = CellularAutomaton(Ring(6), MajorityRule())
        return ca, NondetPhaseSpace.from_automaton(ca)

    def test_empty_for_self(self, majority6):
        _, nps = majority6
        assert nps.shortest_schedule(5, 5) == []

    def test_none_for_unreachable(self, majority6):
        _, nps = majority6
        # 0 is a fixed point: nothing else reachable from it.
        assert nps.shortest_schedule(0, 1) is None

    def test_witness_replays(self, majority6):
        ca, nps = majority6
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(40):
            src = int(rng.integers(64))
            reach = nps.reachable_from(src)
            dst = int(reach[rng.integers(len(reach))])
            word = nps.shortest_schedule(src, dst)
            assert word is not None
            state = ca.unpack(src)
            for node in word:
                ca.update_node_inplace(state, node)
            assert ca.pack(state) == dst
            checked += 1
        assert checked == 40

    def test_every_step_is_effective(self, majority6):
        ca, nps = majority6
        word = nps.shortest_schedule(0b010101, 0b111111)
        if word is not None:
            state = ca.unpack(0b010101)
            for node in word:
                assert ca.update_node_inplace(state, node)  # all effective

    def test_xor_witness_to_cycle(self):
        import networkx as nx

        from repro.spaces.graph import GraphSpace

        ca = CellularAutomaton(GraphSpace(nx.path_graph(2)), XorRule())
        nps = NondetPhaseSpace.from_automaton(ca)
        # Reach 01 from 11 by updating node 0 (paper's node 1).
        word = nps.shortest_schedule(0b11, 0b10)
        assert word == [0]

    def test_rejects_out_of_range(self, majority6):
        _, nps = majority6
        with pytest.raises(ValueError):
            nps.shortest_schedule(0, 1 << 10)
