"""Tests for the transfer-matrix oracle (:mod:`repro.analysis.transfer`).

The oracle counts fixed points and period-two points from the rule's
lookup table alone, so agreeing with the attractor census (quotient,
SWAR lanes and Brent detection) at every tested ``n`` cross-checks two
implementations that share no code.
"""

import numpy as np
import pytest

from repro.analysis.census import build_attractor_census
from repro.analysis.quotient import quotient_mode
from repro.analysis.transfer import (
    MAX_TRANSFER_N,
    composed_rule,
    ring_rule,
    trace_power,
    transfer_counts,
    transfer_matrix,
)
from repro.core.automaton import CellularAutomaton
from repro.core.heterogeneous import HeterogeneousCA
from repro.core.rules import MajorityRule, SimpleThresholdRule, WolframRule, XorRule
from repro.qa.differential import run_check
from repro.qa.generators import InstanceSpec
from repro.spaces.line import Line, Ring

#: (label, rule, memory, threshold rule?) — census-checked at n = 3..20
CENSUS_RULES = [
    ("majority-mem", MajorityRule(), True, True),
    ("majority", MajorityRule(), False, True),
    ("threshold1", SimpleThresholdRule(1), False, True),
    ("xor-mem", XorRule(), True, False),
    ("wolfram184-mem", WolframRule(184), True, False),
]


class TestOracleVsCensus:
    @pytest.mark.parametrize(
        "label,rule,memory,threshold",
        CENSUS_RULES,
        ids=[c[0] for c in CENSUS_RULES],
    )
    def test_equals_census(self, label, rule, memory, threshold):
        for n in range(3, 21):
            ca = CellularAutomaton(Ring(n), rule, memory=memory)
            partial = build_attractor_census(ca)
            assert partial.complete, partial.reason
            row = partial.value
            counts = transfer_counts(ca)
            assert counts.fixed_points == row.fixed_points, n
            assert counts.two_cycle_configs == row.two_cycle_configs, n
            if threshold:
                # Prop. 1: threshold cycles have length at most two.
                assert counts.two_cycle_configs == row.cycle_configs, n

    def test_asymmetric_rule_runs_cyclic_quotient(self):
        ca = CellularAutomaton(Ring(8), WolframRule(184), memory=True)
        assert quotient_mode(ca) == "cyclic"


class TestOracleVsSuccessors:
    @pytest.mark.parametrize(
        "rule,memory,radius",
        [
            (SimpleThresholdRule(2), True, 2),
            (SimpleThresholdRule(3), False, 2),
            (WolframRule(30), True, 1),
            (WolframRule(110), True, 1),
        ],
    )
    def test_counts_match_materialized_map(self, rule, memory, radius):
        for n in range(2 * radius + 1, 13):
            ca = CellularAutomaton(Ring(n, radius=radius), rule, memory=memory)
            succ = np.asarray(ca.step_all())
            codes = np.arange(1 << n)
            counts = transfer_counts(ca)
            assert counts.fixed_points == int(np.count_nonzero(succ == codes))
            assert counts.period2_points == int(
                np.count_nonzero(succ[succ] == codes)
            )


class TestPinnedValues:
    @pytest.mark.parametrize(
        "n,fixed",
        [(12, 324), (20, 15126), (26, 271442), (28, 710646),
         (32, 4870846), (34, 12752042)],
    )
    def test_majority_with_memory(self, n, fixed):
        ca = CellularAutomaton(Ring(n), MajorityRule(), memory=True)
        counts = transfer_counts(ca)
        assert counts.fixed_points == fixed
        assert counts.two_cycle_configs == 2

    def test_cayley_hamilton_proves_recurrence(self):
        """``T^4 - 2T^3 + T^2 - I = 0``, so ``a(n) = 2a(n-1) - a(n-2) + a(n-4)``."""
        ca = CellularAutomaton(Ring(5), MajorityRule(), memory=True)
        t = transfer_matrix(*ring_rule(ca))
        assert t.shape == (4, 4)
        t2 = t @ t
        t3 = t2 @ t
        t4 = t3 @ t
        eye = np.eye(4, dtype=np.int64)
        np.testing.assert_array_equal(t4 - 2 * t3 + t2 - eye, 0)
        a = [trace_power(t, k) for k in range(1, 40)]
        for k in range(4, 39):
            assert a[k] == 2 * a[k - 1] - a[k - 2] + a[k - 4]


class TestConstruction:
    def test_window_offsets(self):
        mem = CellularAutomaton(Ring(7, radius=2), MajorityRule(), memory=True)
        assert ring_rule(mem)[1] == (-2, -1, 0, 1, 2)
        nomem = CellularAutomaton(Ring(7, radius=2), MajorityRule(), memory=False)
        assert ring_rule(nomem)[1] == (-2, -1, 1, 2)

    def test_composed_rule_is_f_twice(self):
        ca = CellularAutomaton(Ring(9), WolframRule(110), memory=True)
        lut2, offsets2 = composed_rule(*ring_rule(ca))
        assert offsets2 == (-2, -1, 0, 1, 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = rng.integers(0, 2, size=9).astype(np.uint8)
            twice = ca.step(ca.step(state))
            code = sum(int(state[(4 + o) % 9]) << k for k, o in enumerate(offsets2))
            assert lut2[code] == twice[4]

    def test_rejects_lines_and_heterogeneous_rules(self):
        with pytest.raises(ValueError, match="ring"):
            transfer_counts(CellularAutomaton(Line(6), MajorityRule()))
        hetero = HeterogeneousCA(
            Ring(6), [MajorityRule() if i % 2 else XorRule() for i in range(6)]
        )
        with pytest.raises(ValueError, match="homogeneous"):
            transfer_counts(hetero)

    def test_trace_power_bounds(self):
        t = np.ones((2, 2), dtype=np.int64)
        assert trace_power(t, MAX_TRANSFER_N) == 1 << MAX_TRANSFER_N
        with pytest.raises(ValueError):
            trace_power(t, MAX_TRANSFER_N + 1)
        with pytest.raises(ValueError):
            trace_power(t, 0)


class TestQaWiring:
    def _spec(self, **overrides):
        base = dict(
            seed=5, space="ring", n=7, radius=2, memory=False,
            rules=[{"kind": "table", "table": [int(b) for b in
                    np.random.default_rng(5).integers(0, 2, 16)]}],
            schedule={"kind": "perm", "perm": list(range(7))},
        )
        base.update(overrides)
        return InstanceSpec(**base)

    def test_check_passes_on_a_random_table_rule(self):
        assert run_check(self._spec(), "differential.transfer_counts") is None

    def test_check_skips_lines(self):
        spec = self._spec(space="line")
        assert run_check(spec, "differential.transfer_counts") is None

    def test_check_reports_a_wrong_count(self, monkeypatch):
        import repro.analysis.transfer as transfer

        real = transfer.trace_power
        monkeypatch.setattr(
            transfer, "trace_power", lambda mat, n: real(mat, n) + 1
        )
        violation = run_check(self._spec(), "differential.transfer_counts")
        assert violation is not None and violation["vs"] == "step_naive"
