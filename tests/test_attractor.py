"""Tests for the attractor-direct SWAR kernel and the symmetry quotient.

The load-bearing property: for every automaton the kernel supports, the
weighted counts it produces over orbit representatives are byte-identical
to classifying the materialized functional graph
(:func:`repro.analysis.cycles.cycle_length_counts`) — that equivalence is
what licenses the exact census past the materialized ceiling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.census import (
    AttractorCensusRow,
    attractor_ring_census,
    build_attractor_census,
    majority_ring_census,
)
from repro.analysis.cycles import FunctionalGraph, cycle_length_counts
from repro.analysis.quotient import (
    QuotientSpec,
    orbit_reps_in_range,
    orbit_weights,
    quotient_mode,
)
from repro.core.automaton import CellularAutomaton
from repro.core.heterogeneous import HeterogeneousCA
from repro.core.rules import MajorityRule, WolframRule, XorRule
from repro.perf.attractor import (
    COUNT_FIELDS,
    K_COUNTS,
    AttractorKernel,
    merge_counts,
    zero_counts,
)
from repro.perf.base import MAX_ATTRACTOR_N, BackendUnsupported
from repro.spaces.line import Line, Ring


def _automata():
    """A spread of spaces / rules / quotient modes (n kept materializable)."""
    return [
        ("ring-majority-mem", CellularAutomaton(Ring(9), MajorityRule(), memory=True)),
        ("ring-majority", CellularAutomaton(Ring(10), MajorityRule(), memory=False)),
        ("ring-xor", CellularAutomaton(Ring(8), XorRule(), memory=True)),
        ("ring-wolfram110", CellularAutomaton(Ring(9), WolframRule(110), memory=True)),
        ("line-majority", CellularAutomaton(Line(9), MajorityRule(), memory=True)),
        (
            "ring-hetero",
            HeterogeneousCA(
                Ring(8),
                [MajorityRule() if i % 2 else XorRule() for i in range(8)],
                memory=True,
            ),
        ),
    ]


def _expected_counts(ca) -> dict:
    return cycle_length_counts(FunctionalGraph(ca.step_all()))


class TestKernelVsMaterialized:
    @pytest.mark.parametrize("label,ca", _automata(), ids=[a[0] for a in _automata()])
    def test_census_matches_functional_graph(self, label, ca):
        partial = build_attractor_census(ca)
        assert partial.complete, partial.reason
        row = partial.value
        expected = _expected_counts(ca)
        assert row.fixed_points == expected["fixed_points"]
        assert row.cycle_configs == expected["cycle_configs"]
        assert row.two_cycle_configs == expected["two_cycle_configs"]
        assert row.max_cycle_len == expected["max_cycle_len"]
        assert row.configurations == 1 << ca.n

    def test_classify_matches_brute_force(self):
        ca = CellularAutomaton(Ring(7), MajorityRule(), memory=True)
        succ = ca.step_all()
        graph = FunctionalGraph(succ)
        cycle_len = np.array(
            [len(graph.cycles[k]) for k in graph.attractor_of], dtype=np.int64
        )
        codes = np.arange(1 << 7, dtype=np.uint64)
        lam, on_cycle = AttractorKernel(ca).classify(codes)
        np.testing.assert_array_equal(lam, cycle_len)
        np.testing.assert_array_equal(on_cycle, graph.on_cycle)

    def test_split_ranges_merge_exactly(self):
        ca = CellularAutomaton(Ring(10), MajorityRule(), memory=True)
        kernel = AttractorKernel(ca)
        whole = kernel.census_range(0, 1 << 10)
        acc = zero_counts()
        for lo in range(0, 1 << 10, 177):
            merge_counts(acc, kernel.census_range(lo, min(lo + 177, 1 << 10)))
        np.testing.assert_array_equal(acc, whole)

    def test_agrees_with_materialized_census_rows(self):
        sizes = range(4, 10)
        direct = attractor_ring_census(sizes)
        full = majority_ring_census(sizes)
        for d, f in zip(direct, full):
            assert (d.n, d.fixed_points, d.cycle_configs) == (
                f.n,
                f.fixed_points,
                f.cycle_configs,
            )

    def test_counts_vector_shape(self):
        assert len(COUNT_FIELDS) == K_COUNTS
        assert zero_counts().shape == (K_COUNTS,)

    def test_merge_counts_maxes_cycle_len(self):
        a, b = zero_counts(), zero_counts()
        a[6], b[6] = 3, 5
        a[3], b[3] = 2, 7
        merge_counts(a, b)
        assert a[6] == 5 and a[3] == 9

    def test_rejects_oversized_ring(self):
        ca = CellularAutomaton(Ring(MAX_ATTRACTOR_N + 1), MajorityRule())
        with pytest.raises(BackendUnsupported):
            AttractorKernel(ca)


class TestConfigurationQuotient:
    @given(st.integers(min_value=1, max_value=14), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_weights_cover_space(self, n, reflections):
        reps = orbit_reps_in_range(n, 0, 1 << n, reflections)
        weights = orbit_weights(reps, n, reflections)
        assert int(weights.sum()) == 1 << n

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_union_is_exact(self, n, pieces):
        full = orbit_reps_in_range(n, 0, 1 << n)
        cuts = np.linspace(0, 1 << n, pieces + 1).astype(int)
        parts = [
            orbit_reps_in_range(n, int(lo), int(hi))
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_reps_are_canonical_minima(self):
        from repro.util.bitops import canonical_ring_form

        n = 11
        reps = orbit_reps_in_range(n, 0, 1 << n)
        np.testing.assert_array_equal(canonical_ring_form(reps, n), reps)
        # and every code canonicalizes onto exactly this set
        codes = np.arange(1 << n, dtype=np.uint64)
        assert set(canonical_ring_form(codes, n).tolist()) == set(reps.tolist())

    def test_mode_selection(self):
        assert quotient_mode(CellularAutomaton(Ring(8), MajorityRule())) == "dihedral"
        assert (
            quotient_mode(
                CellularAutomaton(Ring(8), WolframRule(110), memory=True)
            )
            == "cyclic"
        )
        assert quotient_mode(CellularAutomaton(Line(8), MajorityRule())) == "trivial"
        assert (
            quotient_mode(
                HeterogeneousCA(
                    Ring(6),
                    [MajorityRule() if i % 2 else XorRule() for i in range(6)],
                )
            )
            == "trivial"
        )

    def test_census_identical_across_modes(self):
        """Dihedral, cyclic and trivial quotients must agree exactly."""
        ca = CellularAutomaton(Ring(10), MajorityRule(), memory=True)
        rows = []
        for mode in ("dihedral", "cyclic", "trivial"):
            kernel = AttractorKernel(ca, quotient=QuotientSpec(10, mode))
            partial = build_attractor_census(ca, kernel=kernel)
            assert partial.complete, partial.reason
            rows.append(partial.value)
        base = rows[0]
        for row in rows[1:]:
            assert (
                row.fixed_points,
                row.cycle_configs,
                row.two_cycle_configs,
                row.max_cycle_len,
            ) == (
                base.fixed_points,
                base.cycle_configs,
                base.two_cycle_configs,
                base.max_cycle_len,
            )
        # the quotient earns its keep: strictly fewer reps than configs
        assert rows[0].orbit_reps < rows[2].orbit_reps == 1 << 10


class TestScheduleQuotient:
    def test_conjugate_orders_share_attractor_stats(self):
        """Dihedrally conjugate update orders share every attractor statistic."""
        n = 5
        ca = CellularAutomaton(Ring(n), MajorityRule(), memory=True)
        node_succ = ca.all_node_successors()

        def sweep_map(order):
            codes = np.arange(1 << n, dtype=np.int64)
            for i in order:
                codes = node_succ[i][codes]
            return codes

        order = (2, 0, 4, 1, 3)
        base = cycle_length_counts(FunctionalGraph(sweep_map(order)))
        for s in range(n):
            rotated = tuple((i + s) % n for i in order)
            mirrored = tuple((n - 1 - i + s) % n for i in order)
            assert cycle_length_counts(FunctionalGraph(sweep_map(rotated))) == base
            assert cycle_length_counts(FunctionalGraph(sweep_map(mirrored))) == base


class TestAttractorCensusRow:
    def test_summary_keys(self):
        row = AttractorCensusRow(4, 16, 6, 6, 2, 2, 2, "dihedral")
        assert row.summary()["configurations"] == 16
        assert row.summary()["quotient"] == "dihedral"
