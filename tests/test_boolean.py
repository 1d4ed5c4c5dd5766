"""Tests for the Boolean-function toolkit (repro.core.boolean)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boolean import (
    BooleanFunction,
    all_boolean_functions,
    majority_function,
    monotone_symmetric_functions,
    symmetric_functions,
    threshold_count_function,
    wolfram_table,
    xor_function,
)


class TestBooleanFunction:
    def test_and_evaluation(self):
        f = BooleanFunction([0, 0, 0, 1])
        assert f.evaluate([0, 0]) == 0
        assert f.evaluate([1, 0]) == 0
        assert f.evaluate([1, 1]) == 1

    def test_call_syntax(self):
        f = BooleanFunction([0, 1, 1, 0])  # XOR
        assert f(1, 0) == 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BooleanFunction([0, 1, 0])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BooleanFunction([0, 2])

    def test_rejects_wrong_input_count(self):
        with pytest.raises(ValueError):
            BooleanFunction([0, 1]).evaluate([0, 1])

    def test_table_is_readonly(self):
        f = BooleanFunction([0, 1])
        with pytest.raises(ValueError):
            f.table[0] = 1

    def test_equality_and_hash(self):
        f = BooleanFunction([0, 1, 1, 0])
        g = BooleanFunction([0, 1, 1, 0])
        assert f == g and hash(f) == hash(g)
        assert f != BooleanFunction([0, 1, 1, 1])

    def test_apply_codes(self):
        f = xor_function(3)
        codes = np.array([0b000, 0b001, 0b011, 0b111])
        np.testing.assert_array_equal(f.apply_codes(codes), [0, 1, 0, 1])


class TestStructuralProperties:
    def test_majority_is_monotone_symmetric(self):
        f = majority_function(3)
        assert f.is_monotone()
        assert f.is_symmetric()
        assert not f.is_constant()

    def test_xor_is_symmetric_not_monotone(self):
        f = xor_function(3)
        assert f.is_symmetric()
        assert not f.is_monotone()

    def test_constants(self):
        zero = threshold_count_function(3, 4)
        one = threshold_count_function(3, 0)
        assert zero.is_constant() and one.is_constant()
        assert zero.is_monotone() and one.is_monotone()

    def test_projection_is_monotone_not_symmetric(self):
        # f(x0, x1) = x0
        f = BooleanFunction([0, 1, 0, 1])
        assert f.is_monotone()
        assert not f.is_symmetric()

    def test_count_profile_majority(self):
        assert majority_function(3).count_profile() == (0, 0, 1, 1)

    def test_count_profile_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            BooleanFunction([0, 1, 0, 1]).count_profile()

    def test_as_count_threshold(self):
        assert majority_function(3).as_count_threshold() == 2
        assert majority_function(5).as_count_threshold() == 3
        assert xor_function(3).as_count_threshold() is None
        assert threshold_count_function(4, 1).as_count_threshold() == 1

    def test_quiescence(self):
        assert majority_function(3).preserves_quiescence()
        assert not threshold_count_function(3, 0).preserves_quiescence()

    def test_monotone_iff_count_threshold_for_symmetric(self):
        # Among symmetric functions, monotone <=> representable as count
        # threshold — exhaustively at arity 3.
        for f in symmetric_functions(3):
            assert (f.as_count_threshold() is not None) == f.is_monotone()


class TestThresholdRepresentation:
    def test_majority_is_threshold(self):
        rep = majority_function(3).threshold_representation()
        assert rep is not None
        weights, theta = rep
        # Check separation directly.
        f = majority_function(3)
        for x in range(8):
            bits = [(x >> j) & 1 for j in range(3)]
            value = float(np.dot(weights, bits))
            if f.evaluate(bits):
                assert value >= theta - 1e-9
            else:
                assert value <= theta - 1 + 1e-9

    def test_xor_is_not_threshold(self):
        assert not xor_function(2).is_linear_threshold()
        assert not xor_function(3).is_linear_threshold()

    def test_and_or_are_threshold(self):
        and2 = BooleanFunction([0, 0, 0, 1])
        or2 = BooleanFunction([0, 1, 1, 1])
        assert and2.is_linear_threshold()
        assert or2.is_linear_threshold()

    def test_all_monotone_symmetric_are_threshold(self):
        for f in monotone_symmetric_functions(3):
            assert f.is_linear_threshold()

    def test_importing_the_engine_leaves_the_lp_solver_unloaded(self):
        """Only the LP above needs ``scipy.optimize``, so importing the
        package and its phase-space modules does not pay to load it."""
        import subprocess
        import sys

        code = (
            "import sys, repro.cli, repro.core.nondet, repro.core.phase_space\n"
            "print('scipy.optimize' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestAlgebra:
    def test_negate(self):
        f = majority_function(3)
        g = f.negate()
        for x in range(8):
            assert int(g.table[x]) == 1 - int(f.table[x])

    def test_dual_of_majority_is_majority(self):
        # Odd-arity strict majority is self-dual.
        f = majority_function(3)
        assert f.dual() == f

    def test_double_dual_is_identity(self):
        for f in list(symmetric_functions(3))[:8]:
            assert f.dual().dual() == f


class TestEnumerations:
    def test_all_boolean_functions_count(self):
        assert sum(1 for _ in all_boolean_functions(2)) == 16

    def test_all_boolean_functions_refuses_big_arity(self):
        with pytest.raises(ValueError):
            list(all_boolean_functions(5))

    def test_symmetric_count(self):
        assert sum(1 for _ in symmetric_functions(3)) == 16

    def test_symmetric_all_symmetric(self):
        assert all(f.is_symmetric() for f in symmetric_functions(4))

    def test_monotone_symmetric_count(self):
        fns = list(monotone_symmetric_functions(3))
        assert len(fns) == 5
        assert all(f.is_monotone() and f.is_symmetric() for f in fns)

    def test_monotone_symmetric_distinct(self):
        fns = list(monotone_symmetric_functions(4))
        assert len(set(fns)) == len(fns)

    def test_threshold_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            threshold_count_function(3, 5)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=7))
    @settings(max_examples=30)
    def test_threshold_semantics(self, arity, threshold):
        if threshold > arity + 1:
            threshold = arity + 1
        f = threshold_count_function(arity, threshold)
        for x in range(1 << arity):
            expected = int(bin(x).count("1") >= threshold)
            assert int(f.table[x]) == expected


class TestWolfram:
    def test_rule_232_is_majority(self):
        assert wolfram_table(232) == majority_function(3)

    def test_rule_150_is_xor3(self):
        assert wolfram_table(150) == xor_function(3)

    def test_rule_0_and_255(self):
        assert wolfram_table(0).is_constant()
        assert wolfram_table(255).is_constant()

    def test_rule_110_spot_values(self):
        # Rule 110: neighborhood (l, c, r) = (1,1,1)->0, (1,1,0)->1,
        # (0,0,0)->0 per the standard table.
        f = wolfram_table(110)
        assert f.evaluate([1, 1, 1]) == 0
        assert f.evaluate([1, 1, 0]) == 1
        assert f.evaluate([0, 0, 0]) == 0
        assert f.evaluate([0, 1, 1]) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            wolfram_table(256)
