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
from repro.analysis.quotient import QuotientSpec, quotient_mode
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
from repro.util.bitops import canonical_ring_form, reverse_bits, rotate_bits


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
        spec = QuotientSpec(n, "dihedral" if reflections else "cyclic")
        reps, weights = spec.reps_in_range(0, 1 << n)
        assert int(weights.sum()) == 1 << n

    @given(
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_union_is_exact(self, n, pieces):
        spec = QuotientSpec(n, "dihedral")
        full, _ = spec.reps_in_range(0, 1 << n)
        cuts = np.linspace(0, 1 << n, pieces + 1).astype(int)
        parts = [
            spec.reps_in_range(int(lo), int(hi))[0]
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]
        np.testing.assert_array_equal(np.concatenate(parts), full)

    def test_reps_are_canonical_minima(self):
        n = 11
        reps, _ = QuotientSpec(n, "dihedral").reps_in_range(0, 1 << n)
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


def _brute_quotient(n: int, reflections: bool):
    """Every canonical code and its orbit size, by canonicalizing all codes."""
    codes = np.arange(1 << n, dtype=np.uint64)
    canon = canonical_ring_form(codes, n, reflections).astype(np.int64)
    sizes = np.bincount(canon, minlength=1 << n)
    reps = np.flatnonzero(sizes)
    return reps.astype(np.uint64), sizes[reps].astype(np.int64)


class TestNecklaceGeneration:
    """``QuotientSpec.reps_in_range`` against canonicalizing every code."""

    @staticmethod
    def _splits(n: int, rng) -> list[list[tuple[int, int]]]:
        total = 1 << n
        widths = {0 if n <= 8 else 1, 3, n // 2, n - 1, n}
        aligned = [
            [(lo, lo + (1 << j)) for lo in range(0, total, 1 << j)]
            for j in sorted(w for w in widths if w <= n)
        ]
        unaligned = []
        for pieces in (3, 7):
            cuts = np.sort(rng.integers(0, total + 1, size=pieces - 1))
            cuts = np.concatenate([[0], cuts, [total]]).astype(int)
            unaligned.append(list(zip(cuts[:-1].tolist(), cuts[1:].tolist())))
        return aligned + unaligned

    @pytest.mark.parametrize("mode", ["cyclic", "dihedral"])
    def test_matches_brute_force(self, mode):
        rng = np.random.default_rng(19)
        for n in range(1, 15):
            reps, weights = _brute_quotient(n, mode == "dihedral")
            spec = QuotientSpec(n, mode)
            for split in self._splits(n, rng):
                for lo, hi in split:
                    got_reps, got_weights = spec.reps_in_range(lo, hi)
                    inside = (reps >= lo) & (reps < hi)
                    np.testing.assert_array_equal(got_reps, reps[inside])
                    np.testing.assert_array_equal(got_weights, weights[inside])
                    assert got_reps.dtype == np.uint64
                    assert got_weights.dtype == np.int64

    @pytest.mark.parametrize("n", [33, MAX_ATTRACTOR_N])
    @pytest.mark.parametrize("mode", ["cyclic", "dihedral"])
    def test_matches_brute_force_on_widest_rings(self, mode, n):
        """Small ranges of the widest rings, where ``2n`` bits exceed a word:
        representatives against ``canonical_ring_form``, weights against
        the size of each orbit's image set under scalar rotation and
        reversal."""
        reflections = mode == "dihedral"
        rng = np.random.default_rng(n)
        start = int(rng.integers(0, 1 << (n - 4)))
        interior = int("0001" * 8 + "1" * (n - 32), 2) - 150
        ranges = [
            (0, 1 << 10),
            (interior, interior + 300),
            (start, start + 300),
            ((1 << n) - 300, 1 << n),
        ]
        spec = QuotientSpec(n, mode)
        found = 0
        for lo, hi in ranges:
            codes = np.arange(lo, hi, dtype=np.uint64)
            reps = codes[canonical_ring_form(codes, n, reflections) == codes]
            weights = []
            for c in reps.tolist():
                images = {rotate_bits(c, n, s) for s in range(n)}
                if reflections:
                    images |= {rotate_bits(reverse_bits(c, n), n, s) for s in range(n)}
                weights.append(len(images))
            got_reps, got_weights = spec.reps_in_range(lo, hi)
            np.testing.assert_array_equal(got_reps, reps)
            np.testing.assert_array_equal(got_weights, np.array(weights, dtype=np.int64))
            found += reps.size
        assert found > 1 << 8

    def test_non_prenecklace_prefixes_hold_nothing(self):
        """n = 20 in 2**8-code ranges: each range's 12-bit prefix decides."""
        n, low = 20, 8
        prefixes = np.arange(1 << (n - low), dtype=np.uint64)
        # A prenecklace padded with ones is a necklace, so a prefix is a
        # prenecklace iff its ones-padding is its own least rotation.
        padded = (prefixes << np.uint64(low)) | np.uint64((1 << low) - 1)
        prenecklace = canonical_ring_form(padded, n, reflections=False) == padded
        for mode in ("cyclic", "dihedral"):
            reps, weights = _brute_quotient(n, mode == "dihedral")
            spec = QuotientSpec(n, mode)
            for prefix in range(1 << (n - low)):
                lo, hi = prefix << low, (prefix + 1) << low
                got_reps, got_weights = spec.reps_in_range(lo, hi)
                inside = (reps >= lo) & (reps < hi)
                np.testing.assert_array_equal(got_reps, reps[inside])
                np.testing.assert_array_equal(got_weights, weights[inside])
                if not prenecklace[prefix]:
                    assert got_reps.size == 0
                elif mode == "cyclic":
                    assert got_reps.size > 0

    def test_period_drop_breaks_coverage_at_n4(self):
        from repro.qa.mutants import active_mutant

        ca = CellularAutomaton(Ring(4), MajorityRule(), memory=True)
        with active_mutant("necklace-period-drop"):
            partial = build_attractor_census(ca)
        assert not partial.complete
        assert "covered 24 of 16" in partial.reason

    def test_reflection_drop_keeps_chiral_pairs(self):
        from repro.qa.mutants import active_mutant

        spec = QuotientSpec(6, "dihedral")
        reps, weights = spec.reps_in_range(0, 1 << 6)
        with active_mutant("quotient-reflection-drop"):
            bad_reps, bad_weights = spec.reps_in_range(0, 1 << 6)
        assert {0b001011, 0b001101} <= set(bad_reps.tolist())
        assert len({0b001011, 0b001101} & set(reps.tolist())) == 1
        assert int(bad_weights.sum()) > int(weights.sum()) == 1 << 6


class TestScratchCharge:
    @pytest.mark.parametrize("n", [26, 30])
    def test_transient_bytes_bound_census_range_peak(self, n):
        import tracemalloc

        ca = CellularAutomaton(Ring(n), MajorityRule(), memory=True)
        kernel = AttractorKernel(ca)
        charge = kernel.transient_bytes()
        # The first chunk is the densest in necklaces; the second is an
        # interior one that is nearly as dense.
        for lo in (0, kernel.chunk):
            tracemalloc.start()
            try:
                kernel.census_range(lo, lo + kernel.chunk)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= charge, (n, lo, peak, charge)


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
