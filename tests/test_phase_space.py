"""Tests for deterministic phase spaces (repro.core.phase_space)."""

import numpy as np
import pytest

from repro.core.automaton import CellularAutomaton
from repro.core.budget import PHASE_ANALYSIS_BYTES_PER_STATE, SUCC_BYTES_PER_STATE
from repro.core.phase_space import ConfigClass, PhaseSpace
from repro.core.rules import MajorityRule, WolframRule, XorRule
from repro.spaces.line import Ring


@pytest.fixture(scope="module")
def majority8_ps():
    ca = CellularAutomaton(Ring(8), MajorityRule())
    return PhaseSpace.from_automaton(ca)


class TestConstruction:
    def test_size(self, majority8_ps):
        assert majority8_ps.size == 256

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PhaseSpace(np.zeros(10, dtype=np.int64), 4)


class TestClassification:
    def test_classes_partition(self, majority8_ps):
        ps = majority8_ps
        total = (
            ps.fixed_points.size
            + ps.cycle_configs.size
            + ps.transient_configs.size
        )
        assert total == ps.size

    def test_uniform_configs_are_fixed(self, majority8_ps):
        assert majority8_ps.classify(0) is ConfigClass.FIXED_POINT
        assert majority8_ps.classify(255) is ConfigClass.FIXED_POINT

    def test_alternating_is_cycle_config(self, majority8_ps):
        assert majority8_ps.classify(0b01010101) is ConfigClass.CYCLE
        assert majority8_ps.classify(0b10101010) is ConfigClass.CYCLE

    def test_single_one_is_transient(self, majority8_ps):
        assert majority8_ps.classify(0b00000001) is ConfigClass.TRANSIENT

    def test_deterministic_trichotomy(self, majority8_ps):
        # Definition 3: every configuration is FP, CC, or TC; FP/CC are
        # exactly the on-cycle configurations.
        ps = majority8_ps
        for code in range(ps.size):
            cls = ps.classify(code)
            on_cycle = bool(ps.graph.on_cycle[code])
            assert (cls in (ConfigClass.FIXED_POINT, ConfigClass.CYCLE)) == on_cycle


class TestCycles:
    def test_majority8_has_exactly_one_proper_cycle(self, majority8_ps):
        proper = majority8_ps.proper_cycles
        assert len(proper) == 1
        assert sorted(proper[0]) == [0b01010101, 0b10101010]

    def test_has_proper_cycle(self, majority8_ps):
        assert majority8_ps.has_proper_cycle()

    def test_cycle_lengths_at_most_two(self, majority8_ps):
        assert max(majority8_ps.cycle_lengths()) == 2

    def test_odd_ring_majority_has_no_proper_cycle(self):
        # No alternating configuration fits an odd ring.
        ca = CellularAutomaton(Ring(7), MajorityRule())
        ps = PhaseSpace.from_automaton(ca)
        assert not ps.has_proper_cycle()

    def test_xor_ring4_has_long_cycles(self):
        # XOR CA on a 4-ring are non-monotone: cycles beyond period 2 exist
        # (the paper notes XOR CA "do have nontrivial cycles ... in the
        # parallel case" for rings of >= 4 nodes).
        ca = CellularAutomaton(Ring(4), XorRule())
        ps = PhaseSpace.from_automaton(ca)
        assert ps.has_proper_cycle()


class TestAttractorsAndBasins:
    def test_attractor_of_transient(self, majority8_ps):
        # A single 1 dies out: attractor is the all-zero fixed point.
        assert majority8_ps.attractor_of(0b00000001) == [0]

    def test_basin_sizes_sum(self, majority8_ps):
        assert majority8_ps.basin_sizes().sum() == 256

    def test_transient_length_zero_on_cycle(self, majority8_ps):
        assert majority8_ps.transient_length(0) == 0
        assert majority8_ps.transient_length(0b01010101) == 0

    def test_transient_length_positive_off_cycle(self, majority8_ps):
        assert majority8_ps.transient_length(0b00000001) >= 1

    def test_max_transient_is_attained(self, majority8_ps):
        ps = majority8_ps
        depths = [ps.transient_length(c) for c in range(ps.size)]
        assert max(depths) == ps.max_transient()


class TestReachability:
    def test_gardens_of_eden_have_no_predecessor(self, majority8_ps):
        ps = majority8_ps
        for code in ps.gardens_of_eden[:20]:
            assert ps.predecessors(int(code)).size == 0

    def test_non_gardens_have_predecessor(self, majority8_ps):
        ps = majority8_ps
        goe = set(ps.gardens_of_eden.tolist())
        for code in range(ps.size):
            if code not in goe:
                assert ps.predecessors(code).size >= 1

    def test_fixed_points_are_stable(self, majority8_ps):
        ps = majority8_ps
        for code in ps.fixed_points:
            assert ps.is_stable_attractor(int(code))

    def test_cycle_config_not_stable_attractor(self, majority8_ps):
        assert not majority8_ps.is_stable_attractor(0b01010101)


class TestExports:
    def test_networkx_graph(self, majority8_ps):
        g = majority8_ps.to_networkx()
        assert g.number_of_nodes() == 256
        assert g.number_of_edges() <= 256
        assert g.nodes[0]["label"] == "00000000"

    def test_summary_keys(self, majority8_ps):
        summary = majority8_ps.summary()
        assert summary["configurations"] == 256
        assert summary["proper_cycles"] == 1

    def test_wolfram_rule_90_phase_space(self):
        # Rule 90 (memoryless-like XOR of neighbors) on an 8-ring is
        # linear; its phase space is highly regular: in-degrees are 0 or a
        # constant power of two.
        ca = CellularAutomaton(Ring(8), WolframRule(90))
        ps = PhaseSpace.from_automaton(ca)
        degs = set(ps.graph.in_degrees.tolist())
        assert degs == {0, 4}


class TestBasinMembers:
    def test_basins_partition_configs(self, majority8_ps):
        ps = majority8_ps
        seen = set()
        for k in range(len(ps.cycles)):
            members = ps.basin_members(k)
            assert not (set(members.tolist()) & seen)
            seen.update(members.tolist())
        assert len(seen) == ps.size

    def test_two_cycle_basin_is_itself(self, majority8_ps):
        ps = majority8_ps
        k = ps.attractor_index_of(0b01010101)
        members = sorted(ps.basin_members(k).tolist())
        assert members == [0b01010101, 0b10101010]

    def test_members_consistent_with_sizes(self, majority8_ps):
        ps = majority8_ps
        sizes = ps.basin_sizes()
        for k in range(len(ps.cycles)):
            assert ps.basin_members(k).size == sizes[k]

    def test_rejects_bad_index(self, majority8_ps):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            majority8_ps.basin_members(10_000)


class TestAnalysisMemory:
    """Peak bytes per configuration the analysis holds beside ``succ``."""

    @staticmethod
    def _peak_per_state(n, analyse):
        import tracemalloc

        succ = CellularAutomaton(Ring(n), MajorityRule(), memory=True).step_all()
        tracemalloc.start()
        try:
            analyse(PhaseSpace(succ, n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (1 << n)

    @pytest.mark.parametrize("n", [16, 20])
    def test_proper_cycle_and_classes_fit_the_charge(self, n):
        """What the governed build charges beyond ``succ`` covers the
        Lemma 1 check and the classification."""

        def analyse(ps):
            ps.has_proper_cycle()
            ps.classes

        peak = self._peak_per_state(n, analyse)
        assert peak <= PHASE_ANALYSIS_BYTES_PER_STATE - SUCC_BYTES_PER_STATE

    @pytest.mark.parametrize("n", [16, 20])
    @pytest.mark.parametrize("attr", ["attractor_of", "steps_to_cycle"])
    def test_descent_holds_under_four_int64_arrays(self, n, attr):
        peak = self._peak_per_state(n, lambda ps: getattr(ps.graph, attr))
        assert peak <= 4 * SUCC_BYTES_PER_STATE
