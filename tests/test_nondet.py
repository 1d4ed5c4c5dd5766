"""Tests for sequential (nondeterministic) phase spaces (repro.core.nondet)."""

import numpy as np
import pytest

from repro import obs
from repro.analysis.cycles import scc_labels
from repro.core.automaton import CellularAutomaton
from repro.core.budget import Budget, BudgetExceeded
from repro.core.heterogeneous import HeterogeneousCA
from repro.core.nondet import (
    NondetPhaseSpace,
    build_nondet_phase_space,
    sink_peel,
)
from repro.core.phase_space import PhaseSpace
from repro.core.rules import MajorityRule, SimpleThresholdRule, WolframRule, XorRule
from repro.spaces.line import Line, Ring
from repro.util.bitops import flip_successors


@pytest.fixture(scope="module")
def xor2_nps(request):
    import networkx as nx

    from repro.spaces.graph import GraphSpace

    ca = CellularAutomaton(GraphSpace(nx.path_graph(2)), XorRule())
    return NondetPhaseSpace.from_automaton(ca)


@pytest.fixture(scope="module")
def majority6_nps():
    ca = CellularAutomaton(Ring(6), MajorityRule())
    return NondetPhaseSpace.from_automaton(ca)


class TestConstruction:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            NondetPhaseSpace(np.zeros((3, 4), dtype=np.int64), 2)

    def test_rejects_successors_changing_another_bit(self):
        succ = CellularAutomaton(Ring(4), MajorityRule()).all_node_successors()
        succ[1, 5] ^= 0b1000  # node 1's update touching bit 3
        with pytest.raises(ValueError, match="row 1 .* other than bit 1"):
            NondetPhaseSpace(succ, 4)

    def test_transitions_listing(self, xor2_nps):
        # From 11, node 0 -> 10 (code 2), node 1 -> 01 (code 1).
        assert xor2_nps.transitions(0b11) == [(0, 0b10), (1, 0b01)]


class TestFigure1bStructure:
    """The paper's Fig. 1(b), checked fact by fact."""

    def test_00_is_the_only_fixed_point(self, xor2_nps):
        assert xor2_nps.fixed_points.tolist() == [0]

    def test_pseudo_fixed_points(self, xor2_nps):
        assert sorted(xor2_nps.pseudo_fixed_points.tolist()) == [1, 2]

    def test_00_unreachable(self, xor2_nps):
        assert xor2_nps.unreachable_configs().tolist() == [0]
        for start in (1, 2, 3):
            assert not xor2_nps.can_reach(start, 0)

    def test_proper_cycles_exist(self, xor2_nps):
        assert xor2_nps.has_proper_cycle()
        comps = xor2_nps.proper_cycle_components()
        assert len(comps) == 1
        assert sorted(comps[0].tolist()) == [1, 2, 3]

    def test_two_cycle_witness(self, xor2_nps):
        witness = xor2_nps.find_two_cycle()
        assert witness is not None
        a, i, b, j = witness
        assert xor2_nps.transitions(a)[i] == (i, b)
        assert xor2_nps.transitions(b)[j] == (j, a)


class TestThresholdSequential:
    def test_no_proper_cycle(self, majority6_nps):
        assert not majority6_nps.has_proper_cycle()
        assert majority6_nps.proper_cycle_components() == []
        assert majority6_nps.find_two_cycle() is None

    def test_fixed_points_match_parallel(self, majority6_nps):
        ca = CellularAutomaton(Ring(6), MajorityRule())
        ps = PhaseSpace.from_automaton(ca)
        np.testing.assert_array_equal(
            majority6_nps.fixed_points, ps.fixed_points
        )

    def test_every_config_reaches_a_fixed_point(self, majority6_nps):
        fps = set(majority6_nps.fixed_points.tolist())
        for code in range(majority6_nps.size):
            reach = set(majority6_nps.reachable_from(code).tolist())
            assert reach & fps, f"config {code} cannot reach any fixed point"

    def test_alternating_cannot_return(self, majority6_nps):
        # From the alternating config, after any effective update the
        # config is never seen again (cycle-freeness in action).
        alt = 0b010101
        for _, nxt in majority6_nps.transitions(alt):
            if nxt != alt:
                assert not majority6_nps.can_reach(nxt, alt)


class TestReachability:
    def test_reachable_includes_self(self, majority6_nps):
        assert 7 in majority6_nps.reachable_from(7).tolist()

    def test_can_reach_reflexive(self, majority6_nps):
        assert majority6_nps.can_reach(5, 5)

    def test_coreachable_inverse_of_reachable(self, majority6_nps):
        nps = majority6_nps
        target = 0
        co = set(nps.coreachable_to(target).tolist())
        for code in range(nps.size):
            assert (target in set(nps.reachable_from(code).tolist())) == (
                code in co
            )

    def test_fixed_points_reach_only_themselves(self, majority6_nps):
        for fp in majority6_nps.fixed_points.tolist():
            assert majority6_nps.reachable_from(fp).tolist() == [fp]

    @pytest.mark.parametrize("n", [*range(3, 13), 16])
    def test_majority_ring_reaches_zero_from_no_adjacent_ones(self, n):
        """On a MAJORITY ring two adjacent 1s never update, and an isolated
        1 always can: ``0`` is reached exactly from the configurations
        with no two cyclically adjacent 1s (the Lucas number L(n) of
        them), each in one effective update per 1."""
        nps = NondetPhaseSpace.from_automaton(
            CellularAutomaton(Ring(n), MajorityRule())
        )
        codes = np.arange(1 << n)
        rotated = (codes >> 1) | ((codes & 1) << (n - 1))
        expected = codes[(codes & rotated) == 0]
        lucas = [2, 1]
        while len(lucas) <= n:
            lucas.append(lucas[-1] + lucas[-2])
        assert expected.size == lucas[n]
        np.testing.assert_array_equal(nps.coreachable_to(0), expected)
        for x in expected[:: max(1, expected.size // 16)].tolist():
            assert len(nps.shortest_schedule(x, 0)) == bin(x).count("1")
        assert nps.can_reach(0b11, 0) is False
        assert nps.shortest_schedule(0b11, 0) is None

    def test_rejects_codes_out_of_range(self, majority6_nps):
        for query in (
            lambda: majority6_nps.reachable_from(64),
            lambda: majority6_nps.coreachable_to(-1),
            lambda: majority6_nps.can_reach(0, 64),
            lambda: majority6_nps.shortest_schedule(64, 0),
        ):
            with pytest.raises(ValueError, match="out of range"):
                query()

    def test_schedules_are_shortest_and_deterministic(self):
        """A schedule is as long as the breadth-first distance, replays
        through effective ``update_node`` steps, and is the one the walk
        back from the target picks by taking, at each step, the smallest
        node whose update enters it from one step nearer the source."""
        import networkx as nx

        ca = CellularAutomaton(Ring(7), WolframRule(110))
        nps = NondetPhaseSpace.from_automaton(ca)
        graph = nps.to_networkx()
        for a in range(0, nps.size, 5):
            dist = nx.single_source_shortest_path_length(graph, a)
            for b in range(nps.size):
                word = nps.shortest_schedule(a, b)
                if b not in dist:
                    assert word is None
                    continue
                expected, code = [], b
                while code != a:
                    node = min(
                        i
                        for i in range(ca.n)
                        if dist.get(code ^ (1 << i)) == dist[code] - 1
                        and (i, code) in nps.transitions(code ^ (1 << i))
                    )
                    expected.append(node)
                    code ^= 1 << node
                assert word == expected[::-1]
                state = ca.unpack(a)
                for i in word:
                    nxt = ca.update_node(state, i)
                    assert not np.array_equal(nxt, state)
                    state = nxt
                assert ca.pack(state) == b


class TestExports:
    def test_networkx_multigraph(self, xor2_nps):
        g = xor2_nps.to_networkx()
        assert g.number_of_nodes() == 4
        # Change edges only: 01->11, 10->11, 11->10, 11->01.
        assert g.number_of_edges() == 4
        with_loops = xor2_nps.to_networkx(include_self_loops=True)
        assert with_loops.number_of_edges() == 8

    def test_summary(self, majority6_nps):
        s = majority6_nps.summary()
        assert s["has_proper_cycle"] is False
        assert s["configurations"] == 64


class TestMemorylessVariant:
    def test_memoryless_majority_sequential_also_cycle_free(self):
        # The energy argument extends to memoryless threshold SCA with
        # integer weights: still cycle-free (see repro.core.energy notes).
        ca = CellularAutomaton(Ring(7), MajorityRule(), memory=False)
        nps = NondetPhaseSpace.from_automaton(ca)
        assert not nps.has_proper_cycle()


class _CountingBudget:
    """Stands in for a Budget: counts the peel's polls."""

    def __init__(self):
        self.polls = 0

    def check(self):
        self.polls += 1


def _traced_peel(words, budget) -> tuple[bool, int]:
    """The peel's verdict and the ``rounds`` of its ``nondet.peel`` span."""
    events = []
    sink = events.append
    obs.enable()
    obs.add_sink(sink)
    try:
        cyclic = sink_peel(words, budget)
    finally:
        obs.remove_sink(sink)
        obs.disable()
    (peel,) = [e for e in events if e["name"] == "nondet.peel"]
    return cyclic, peel["attrs"]["rounds"]


class TestSinkPeel:
    @pytest.mark.parametrize(
        "make_ca",
        [
            lambda: CellularAutomaton(Ring(9), MajorityRule()),
            lambda: CellularAutomaton(Ring(7), MajorityRule(), memory=False),
            lambda: CellularAutomaton(Line(8), SimpleThresholdRule(1)),
            lambda: CellularAutomaton(Ring(8), SimpleThresholdRule(2)),
            lambda: CellularAutomaton(Ring(5), WolframRule(204)),  # identity
        ],
        ids=["majority", "memoryless", "line-threshold1", "threshold2", "identity"],
    )
    def test_acyclic_rounds_are_longest_change_path_plus_one(self, make_ca):
        """One poll per round, and one round more than the longest change
        path of the (acyclic) reference graph."""
        import networkx as nx

        ca = make_ca()
        node_succ = _scalar_node_successors(ca)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(1 << ca.n))
        codes = np.arange(1 << ca.n)
        for row in node_succ:
            moved = row != codes
            graph.add_edges_from(zip(codes[moved].tolist(), row[moved].tolist()))
        assert nx.is_directed_acyclic_graph(graph)
        words = NondetPhaseSpace(node_succ, ca.n).words
        budget = _CountingBudget()
        cyclic, rounds = _traced_peel(words, budget)
        assert cyclic is False
        assert rounds == nx.dag_longest_path_length(graph) + 1
        assert budget.polls == rounds

    @pytest.mark.parametrize("number", [30, 51, 90, 110, 150, 184])
    def test_cyclic_verdict_matches_scc(self, number):
        ca = CellularAutomaton(Ring(7), WolframRule(number))
        node_succ = _scalar_node_successors(ca)
        ref = _reference_analysis(node_succ)["summary"]["has_proper_cycle"]
        budget = _CountingBudget()
        cyclic, rounds = _traced_peel(NondetPhaseSpace(node_succ, 7).words, budget)
        assert cyclic is ref
        assert budget.polls == rounds

    def test_cancelled_budget_stops_the_peel(self):
        ca = CellularAutomaton(Ring(10), MajorityRule())
        nps = build_nondet_phase_space(ca, budget=Budget()).value
        budget = Budget()
        budget.token.cancel("test")
        fresh = NondetPhaseSpace(nps.words, ca.n)
        with pytest.raises(BudgetExceeded):
            fresh._peel(budget)
        assert fresh._cyclic is None  # no verdict cached from a stopped peel
        assert fresh.has_proper_cycle() is False

    def test_cancel_during_the_peel_truncates_the_build(self):
        class CancelAtPeel(Budget):
            """Cancels at its first ``check()``: only the peel calls it."""

            def check(self, pending_bytes=0, partial=None):
                self.token.cancel("test")
                super().check(pending_bytes, partial)

        ca = CellularAutomaton(Ring(10), MajorityRule())
        partial = build_nondet_phase_space(ca, budget=CancelAtPeel())
        assert not partial.complete
        assert partial.reason == "cancelled: test"
        # the sweep completed: the frontier holds every word
        assert partial.stats == {}
        assert partial.explored == partial.total == 10 << 10
        assert partial.frontier["next_lo"] == 1 << 10


class TestAnalysisMemory:
    @pytest.mark.parametrize("n", [14, 16])
    @pytest.mark.parametrize(
        # a quarter (acyclic), half and (Wolfram 51: NOT of the own
        # state) all of the updates change their configuration
        "rule", [MajorityRule(), XorRule(), WolframRule(51)], ids=str
    )
    def test_build_and_summary_fit_the_charge(self, rule, n):
        """The governed build charges its flip words and the analysis (a
        row's sweep scratch or the peel's word rows, and a cyclic space's
        SCC from its change-edge count): together they cover the traced
        peak."""
        import tracemalloc

        ca = CellularAutomaton(Ring(n), rule)
        ca.backend  # kernel lowering is not part of the build
        budget = Budget()
        tracemalloc.start()
        try:
            build_nondet_phase_space(ca, budget=budget).value.summary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget.bytes_held

    @pytest.mark.parametrize("n", [16, 18])
    @pytest.mark.parametrize("rule", [MajorityRule(), XorRule()], ids=str)
    def test_analysis_before_the_scc_fits_the_peel_rows(self, rule, n):
        """Besides the flip words, what the analysis runs before any SCC
        holds at most ``NONDET_PEEL_ROWS`` word rows: the peel, the
        change-edge count that prices a cyclic space's SCC and, on the
        acyclic MAJORITY space, all of ``summary()`` (no SCC, no
        per-configuration array)."""
        import tracemalloc

        from repro.core.budget import NONDET_PEEL_ROWS

        ca = CellularAutomaton(Ring(n), rule)
        words = build_nondet_phase_space(ca, budget=Budget()).value.words
        nps = NondetPhaseSpace(words, n)
        tracemalloc.start()
        try:
            cyclic = nps.has_proper_cycle()
            nps.change_edge_count()
            if not cyclic:
                nps.summary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cyclic is isinstance(rule, XorRule)
        assert peak <= NONDET_PEEL_ROWS * words[0].nbytes


class TestQueryMemory:
    @pytest.mark.parametrize(
        "rule, source",
        [(MajorityRule(), int("01" * 8, 2)), (XorRule(), 1)],
        ids=["majority", "xor"],
    )
    def test_searches_hold_at_most_six_word_rows(self, rule, source):
        """Besides the flip words a search holds ``seen``, two levels, a
        masked copy, a flipped copy and ``flip_lanes``' temporary: no
        change edge and no per-configuration array."""
        import tracemalloc

        nps = NondetPhaseSpace.from_automaton(CellularAutomaton(Ring(16), rule))
        reached = set(nps.reachable_from(source).tolist())
        target = next(c for c in range(nps.size) if c not in reached)
        for search in (
            lambda: nps.can_reach(source, target),
            lambda: [None for _ in nps._levels(source)],
            lambda: [None for _ in nps._levels(target, forward=False)],
        ):
            tracemalloc.start()
            try:
                search()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 6 * nps.words[0].nbytes + 4096


    @pytest.mark.parametrize("query", ["coreachable_to", "fixed_points"])
    def test_lane_answers_hold_under_two_bytes_per_configuration(self, query):
        """Turning word rows into codes unpacks one byte per configuration
        and views it as bool, with no bool copy beside it: at n = 20 the
        Lucas-number set and the fixed points stay under 1.6 B each."""
        import tracemalloc

        nps = NondetPhaseSpace.from_automaton(
            CellularAutomaton(Ring(20), MajorityRule())
        )
        tracemalloc.start()
        try:
            if query == "coreachable_to":
                nps.coreachable_to(0)
            else:
                nps.fixed_points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * nps.size


def _scalar_node_successors(ca) -> np.ndarray:
    """Node successors from the scalar ``step_naive``: updating node ``i``
    alone takes bit ``i`` of the parallel image."""
    size = 1 << ca.n
    codes = np.arange(size, dtype=np.int64)
    image = np.array(
        [ca.pack(ca.step_naive(ca.unpack(c))) for c in range(size)],
        dtype=np.int64,
    )
    return np.stack([codes ^ ((codes ^ image) & (1 << i)) for i in range(ca.n)])


def _reference_two_cycle(node_succ: np.ndarray, comps: list) -> tuple | None:
    n = node_succ.shape[0]
    for comp in comps:
        comp_set = set(int(c) for c in comp)
        for a in comp_set:
            for i in range(n):
                b = int(node_succ[i, a])
                if b == a or b not in comp_set:
                    continue
                for j in range(n):
                    if int(node_succ[j, b]) == a:
                        return a, i, b, j
    return None


def _reference_analysis(node_succ: np.ndarray) -> dict:
    """What ``NondetPhaseSpace`` answered from an int64 successor matrix,
    by the formulas it used before it stored flip rows."""
    n, size = node_succ.shape
    codes = np.arange(size, dtype=np.int64)
    stable = np.ones(size, dtype=bool)
    any_loop = np.zeros(size, dtype=bool)
    srcs, dsts = [], []
    for i in range(n):
        loop = node_succ[i] == codes
        stable &= loop
        any_loop |= loop
        srcs.append(codes[~loop])
        dsts.append(node_succ[i][~loop])
    srcs, dsts = np.concatenate(srcs), np.concatenate(dsts)
    n_comp, labels = scc_labels(srcs, dsts, size)
    sizes = np.bincount(labels, minlength=n_comp)
    comps = [np.flatnonzero(labels == k) for k in np.flatnonzero(sizes >= 2)]
    fixed = np.flatnonzero(stable)
    pseudo = np.flatnonzero(any_loop & ~stable)
    unreachable = np.flatnonzero(np.bincount(dsts, minlength=size) == 0)
    return {
        "fixed_points": fixed,
        "pseudo_fixed_points": pseudo,
        "unreachable": unreachable,
        "components": [c.tolist() for c in comps],
        "two_cycle": _reference_two_cycle(node_succ, comps),
        "transitions": [
            [(i, int(node_succ[i, c])) for i in range(n)] for c in range(size)
        ],
        "summary": {
            "configurations": size,
            "fixed_points": int(fixed.size),
            "pseudo_fixed_points": int(pseudo.size),
            "has_proper_cycle": bool(np.any(sizes >= 2)),
            "proper_cycle_components": len(comps),
            "unreachable_configs": int(unreachable.size),
        },
    }


class TestFlipFormat:
    """The flip-word analysis gives the int64-successor formulas'
    answers, on every sweep backend."""

    @staticmethod
    def _check(make_ca):
        """``make_ca(backend)`` builds the automaton on one backend."""
        node_succ = _scalar_node_successors(make_ca("numpy"))
        ref = _reference_analysis(node_succ)
        n, size = node_succ.shape
        # bit x of row i is set iff updating node i changes x; a space of
        # less than one word is one word with zero padding bits
        flips = node_succ != np.arange(size)
        want = np.zeros((n, max(1, size >> 6)), dtype=np.uint64)
        for i, x in zip(*np.nonzero(flips)):
            want[i, x >> 6] |= np.uint64(1) << np.uint64(x & 63)
        for backend in ("numpy", "bitplane"):
            ca = make_ca(backend)
            what = f"{ca.describe()} on {backend}"
            nps = build_nondet_phase_space(ca, budget=Budget()).value
            assert nps.words.dtype == np.uint64, what
            np.testing.assert_array_equal(nps.words, want, what)
            np.testing.assert_array_equal(
                flip_successors(nps.words), node_succ, what
            )
            for attr in ("fixed_points", "pseudo_fixed_points"):
                np.testing.assert_array_equal(
                    getattr(nps, attr), ref[attr], what
                )
            np.testing.assert_array_equal(
                nps.unreachable_configs(), ref["unreachable"], what
            )
            comps = [c.tolist() for c in nps.proper_cycle_components()]
            assert comps == ref["components"], what
            assert nps.find_two_cycle() == ref["two_cycle"], what
            transitions = [nps.transitions(c) for c in range(nps.size)]
            assert transitions == ref["transitions"], what
            assert nps.summary() == ref["summary"], what
        # the integer and the bool matrix convert to the same words
        for matrix in (node_succ, flips):
            converted = NondetPhaseSpace(matrix, ca.n)
            np.testing.assert_array_equal(converted.words, want)
            assert converted.summary() == ref["summary"]

    def test_every_wolfram_rule_on_ring6(self):
        for number in range(256):
            self._check(
                lambda b: CellularAutomaton(Ring(6), WolframRule(number), backend=b)
            )

    @pytest.mark.parametrize("space", [Ring, Line], ids=["ring", "line"])
    @pytest.mark.parametrize(
        "rule",
        [MajorityRule(), XorRule(), SimpleThresholdRule(1), SimpleThresholdRule(2)],
        ids=str,
    )
    def test_threshold_and_xor_rules(self, rule, space):
        # n = 2..5 are one padded word; XOR on Line(2) is Fig. 1's automaton
        for n in range(3 if space is Ring else 2, 11):
            self._check(lambda b: CellularAutomaton(space(n), rule, backend=b))

    def test_heterogeneous_ring(self):
        rules = [
            MajorityRule(), XorRule(), SimpleThresholdRule(1), WolframRule(110),
            SimpleThresholdRule(2), XorRule(), MajorityRule(), WolframRule(30),
        ]
        self._check(lambda b: HeterogeneousCA(Ring(8), rules, backend=b))
