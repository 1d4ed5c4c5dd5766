"""Tests for the CellularAutomaton engine (repro.core.automaton)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.automaton import CellularAutomaton
from repro.core.rules import (
    MajorityRule,
    SimpleThresholdRule,
    WolframRule,
    XorRule,
    majority_table_rule,
)
from repro.spaces.grid import Grid2D
from repro.spaces.hypercube import Hypercube
from repro.spaces.line import Line, Ring


class TestConstruction:
    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CellularAutomaton(Ring(7, radius=2), majority_table_rule(3))

    def test_symmetric_rule_fits_any_space(self):
        for space in (Ring(5), Line(5), Grid2D(3, 3), Hypercube(3)):
            CellularAutomaton(space, MajorityRule())

    def test_describe_mentions_parts(self):
        ca = CellularAutomaton(Ring(5), MajorityRule())
        assert "Ring" in ca.describe() and "Majority" in ca.describe()


class TestSynchronousStep:
    def test_majority_smooths_isolated_one(self):
        ca = CellularAutomaton(Ring(7), MajorityRule())
        state = np.zeros(7, dtype=np.uint8)
        state[3] = 1
        np.testing.assert_array_equal(ca.step(state), np.zeros(7))

    def test_majority_keeps_solid_block(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        state = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=np.uint8)
        np.testing.assert_array_equal(ca.step(state), state)

    def test_alternating_flips(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        alt = (np.arange(8) % 2).astype(np.uint8)
        np.testing.assert_array_equal(ca.step(alt), 1 - alt)

    def test_step_does_not_mutate_input(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        alt = (np.arange(8) % 2).astype(np.uint8)
        before = alt.copy()
        ca.step(alt)
        np.testing.assert_array_equal(alt, before)

    def test_line_boundary_quiescent(self):
        # On the line, the leftmost node sees a quiescent 0 beyond the edge:
        # MAJORITY(0, 1, 0) = 0.
        ca = CellularAutomaton(Line(3), MajorityRule())
        state = np.array([1, 0, 0], dtype=np.uint8)
        assert ca.step(state)[0] == 0

    def test_memoryless_window(self):
        # Memoryless XOR on a ring: next = left XOR right.
        ca = CellularAutomaton(Ring(5), XorRule(), memory=False)
        state = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
        expected = np.array([0, 1, 0, 0, 1], dtype=np.uint8)
        np.testing.assert_array_equal(ca.step(state), expected)

    def test_rejects_wrong_length(self):
        ca = CellularAutomaton(Ring(5), MajorityRule())
        with pytest.raises(ValueError):
            ca.step(np.zeros(4, dtype=np.uint8))


class TestStepNaiveAgreement:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vectorized_equals_naive_majority(self, seed):
        rng = np.random.default_rng(seed)
        ca = CellularAutomaton(Ring(11, radius=2), MajorityRule())
        state = rng.integers(0, 2, ca.n).astype(np.uint8)
        np.testing.assert_array_equal(ca.step(state), ca.step_naive(state))

    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_vectorized_equals_naive_wolfram(self, rule_number, seed):
        rng = np.random.default_rng(seed)
        ca = CellularAutomaton(Ring(9), WolframRule(rule_number))
        state = rng.integers(0, 2, ca.n).astype(np.uint8)
        np.testing.assert_array_equal(ca.step(state), ca.step_naive(state))

    def test_agreement_on_irregular_graph(self):
        from repro.spaces.graph import star_space

        ca = CellularAutomaton(star_space(5), MajorityRule())
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = rng.integers(0, 2, ca.n).astype(np.uint8)
            np.testing.assert_array_equal(ca.step(state), ca.step_naive(state))


class TestSequentialPrimitive:
    def test_node_next(self):
        ca = CellularAutomaton(Ring(5), MajorityRule())
        state = np.array([1, 1, 0, 0, 0], dtype=np.uint8)
        assert ca.node_next(state, 0) == 1  # window (0,1,1)
        assert ca.node_next(state, 2) == 0  # window (1,0,0)

    def test_update_node_copies(self):
        ca = CellularAutomaton(Ring(5), MajorityRule())
        # Node 1 reads window (x0, x1, x2) = (1, 0, 1) -> majority 1.
        state = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
        new = ca.update_node(state, 1)
        assert new[1] == 1 and state[1] == 0

    def test_update_node_inplace_reports_change(self):
        ca = CellularAutomaton(Ring(5), MajorityRule())
        state = np.array([1, 0, 1, 0, 0], dtype=np.uint8)
        assert ca.update_node_inplace(state, 1) is True
        assert state[1] == 1
        assert ca.update_node_inplace(state, 1) is False

    def test_fixed_point_predicate(self):
        ca = CellularAutomaton(Ring(8), MajorityRule())
        assert ca.is_fixed_point(np.zeros(8, dtype=np.uint8))
        assert ca.is_fixed_point(np.ones(8, dtype=np.uint8))
        alt = (np.arange(8) % 2).astype(np.uint8)
        assert not ca.is_fixed_point(alt)

    def test_with_memory_fp_iff_all_node_updates_fixed(self):
        ca = CellularAutomaton(Ring(7), MajorityRule())
        rng = np.random.default_rng(5)
        for _ in range(30):
            state = rng.integers(0, 2, 7).astype(np.uint8)
            parallel_fp = ca.is_fixed_point(state)
            node_fp = all(
                ca.node_next(state, i) == state[i] for i in range(7)
            )
            assert parallel_fp == node_fp


class TestWholeSpaceSweeps:
    def test_step_all_matches_step(self):
        ca = CellularAutomaton(Ring(6), MajorityRule())
        succ = ca.step_all()
        for code in range(64):
            expected = ca.pack(ca.step(ca.unpack(code)))
            assert int(succ[code]) == expected

    def test_step_all_wolfram(self):
        ca = CellularAutomaton(Ring(5), WolframRule(110))
        succ = ca.step_all()
        for code in range(32):
            assert int(succ[code]) == ca.pack(ca.step(ca.unpack(code)))

    def test_node_successors_match_update_node(self):
        ca = CellularAutomaton(Ring(5), MajorityRule())
        for i in range(5):
            succ = ca.node_successors(i)
            for code in range(32):
                expected = ca.pack(ca.update_node(ca.unpack(code), i))
                assert int(succ[code]) == expected

    def test_node_successors_touch_only_their_bit(self):
        ca = CellularAutomaton(Ring(6), MajorityRule())
        codes = np.arange(64)
        for i in range(6):
            diff = ca.node_successors(i) ^ codes
            assert np.all((diff == 0) | (diff == (1 << i)))

    def test_all_node_successors_shape(self):
        ca = CellularAutomaton(Ring(4, radius=1), MajorityRule())
        mat = ca.all_node_successors()
        assert mat.shape == (4, 16)

    def test_step_all_spans_chunks(self, monkeypatch):
        # Force the chunked path (> CHUNK configs) of the one successor
        # loop, for both sweeps the engine runs through it.
        import repro.perf.base as base_mod

        ref = CellularAutomaton(Ring(9), MajorityRule())
        want_step, want_node = ref.step_all(), ref.node_successors(4)
        monkeypatch.setattr(base_mod, "CHUNK", 64)
        ca = CellularAutomaton(Ring(9), MajorityRule())
        calls: list[str] = []
        for name in ("step_all_range", "node_successors_range"):
            kernel = getattr(ca.backend, name)

            def counted(*args, kernel=kernel, name=name):
                calls.append(name)
                return kernel(*args)

            monkeypatch.setattr(ca.backend, name, counted)
        np.testing.assert_array_equal(ca.step_all(), want_step)
        np.testing.assert_array_equal(ca.node_successors(4), want_node)
        assert calls.count("step_all_range") == 512 // 64
        assert calls.count("node_successors_range") == 512 // 64

    def test_step_all_refuses_huge(self):
        ca = CellularAutomaton(Ring(5), MajorityRule())
        ca.space._n = 30  # simulate a huge space without allocating
        with pytest.raises(ValueError):
            ca.step_all()


class TestPackUnpack:
    def test_roundtrip(self):
        ca = CellularAutomaton(Ring(6), MajorityRule())
        for code in (0, 1, 21, 63):
            assert ca.pack(ca.unpack(code)) == code

    def test_threshold_rule_on_hypercube(self):
        ca = CellularAutomaton(Hypercube(3), SimpleThresholdRule(1))
        # Threshold 1 (OR): a single 1 spreads to its neighbors.
        state = np.zeros(8, dtype=np.uint8)
        state[0] = 1
        out = ca.step(state)
        assert out[0] == 1
        assert all(out[j] == 1 for j in Hypercube(3).neighbors(0))
