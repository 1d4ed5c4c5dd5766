"""Property tests for the sweep-backend subsystem (repro.perf).

Every backend must produce *bit-identical* successor maps: the numpy
window-gather reference, the compiled ``bitplane`` kernel and the
``process`` shard layer are interchangeable by construction, and
these tests pin that down against the scalar ``step_naive`` oracle and
against each other — across spaces (rings, lines, wide radii, sizes
below one 64-configuration word), rule families (threshold, XOR, raw
tables, heterogeneous mixtures) and both memory conventions.  Governance is part of the contract too: budget
trips must yield the same resumable frontier whichever kernel runs.
"""

from __future__ import annotations

import hashlib

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.automaton import CellularAutomaton
from repro.core.budget import Budget, BudgetExceeded, CancelToken, use_budget
from repro.core.heterogeneous import HeterogeneousCA
from repro.core.nondet import NondetPhaseSpace, build_nondet_phase_space
from repro.core.phase_space import PhaseSpace, build_phase_space
from repro.core.rules import (
    MajorityRule,
    SimpleThresholdRule,
    TableRule,
    TotalisticRule,
    WolframRule,
    XorRule,
)
from repro.harness.checkpoint import load_frontier, save_frontier
from repro.perf import (
    BACKENDS,
    BackendUnsupported,
    BitplaneBackend,
    ProcessBackend,
    lower_bit_kernel,
    resolve_backend,
)
from repro.perf.base import sweep_entries
from repro.perf.bitplane import eval_bit_kernel
from repro.spaces.graph import GraphSpace
from repro.spaces.line import Line, Ring
from repro.util.bitops import config_str, int_to_bits

SERIAL = ("numpy", "bitplane")

#: a non-symmetric 7-input table (radius-3 window with memory): wider than
#: the bitplane sum-of-products and not totalistic, so nothing lowers it
_UNLOWERABLE = TableRule(
    [(c * 0x9E3779B1 >> 7) & 1 for c in range(128)], name="scrambled7"
)


def oracle_step_all(ca: CellularAutomaton) -> np.ndarray:
    """Successor of every configuration via the scalar step_naive path."""
    out = np.empty(1 << ca.n, dtype=np.int64)
    for code in range(1 << ca.n):
        out[code] = ca.pack(ca.step_naive(int_to_bits(code, ca.n)))
    return out


def make_ca(space, rule, memory=True, backend=None, workers=None):
    return CellularAutomaton(
        space, rule, memory=memory, backend=backend, workers=workers
    )


CASES = [
    pytest.param(Ring(9), MajorityRule(), True, id="ring9-majority"),
    pytest.param(Ring(9), XorRule(), True, id="ring9-xor"),
    pytest.param(Ring(9), SimpleThresholdRule(2), False, id="ring9-thr2-nomem"),
    pytest.param(Line(9), MajorityRule(), True, id="line9-majority"),
    pytest.param(Ring(8, radius=2), XorRule(), True, id="ring8-r2-xor"),
    pytest.param(Ring(9), WolframRule(110), True, id="ring9-w110"),
    pytest.param(Ring(9), WolframRule(30), True, id="ring9-w30"),
    # below one 64-configuration word: bitplane pads the range
    pytest.param(Ring(3), MajorityRule(), True, id="ring3-majority"),
    pytest.param(Ring(5), WolframRule(110), True, id="ring5-w110"),
    pytest.param(Line(2), XorRule(), True, id="line2-xor"),
    pytest.param(Line(5), SimpleThresholdRule(1), False, id="line5-thr1-nomem"),
]


class TestSerialBackendsMatchOracle:
    @pytest.mark.parametrize("space,rule,memory", CASES)
    @pytest.mark.parametrize("backend", SERIAL)
    def test_step_all_matches_step_naive(self, space, rule, memory, backend):
        ca = make_ca(space, rule, memory=memory, backend=backend)
        if ca.backend.name != backend:
            pytest.fail(f"requested {backend}, resolved {ca.backend.name}")
        np.testing.assert_array_equal(ca.step_all(), oracle_step_all(ca))

    @pytest.mark.parametrize("space,rule,memory", CASES)
    @pytest.mark.parametrize("backend", SERIAL)
    def test_node_successors_flip_exactly_one_bit(
        self, space, rule, memory, backend
    ):
        ca = make_ca(space, rule, memory=memory, backend=backend)
        ref = make_ca(space, rule, memory=memory, backend="numpy")
        for i in range(ca.n):
            succ = ca.node_successors(i)
            np.testing.assert_array_equal(succ, ref.node_successors(i))
            # single-node update: nothing but bit i may change
            diff = succ ^ np.arange(1 << ca.n, dtype=np.int64)
            assert np.all((diff & ~(np.int64(1) << i)) == 0)

    @pytest.mark.parametrize("backend", SERIAL)
    def test_all_node_successors_one_pass_matches_rows(self, backend):
        ca = make_ca(Ring(9), MajorityRule(), backend=backend)
        table = ca.all_node_successors()
        assert table.shape == (9, 1 << 9)
        for i in range(ca.n):
            np.testing.assert_array_equal(table[i], ca.node_successors(i))


def _scalar_flips(ca) -> np.ndarray:
    """Flip words from the scalar ``update_node``: bit ``c`` of row ``i``
    is set iff updating node ``i`` alone changes configuration ``c``."""
    size = 1 << ca.n
    want = np.zeros((ca.n, max(1, size >> 6)), dtype=np.uint64)
    for c in range(size):
        state = int_to_bits(c, ca.n)
        for i in range(ca.n):
            if ca.update_node(state, i)[i] != state[i]:
                want[i, c >> 6] |= np.uint64(1) << np.uint64(c & 63)
    return want


FLIP_CASES = [
    pytest.param(Ring(9), SimpleThresholdRule(2), False, id="ring9-thr2-nomem"),
    pytest.param(Line(2), XorRule(), False, id="line2-xor-nomem"),
    pytest.param(Line(7), MajorityRule(), True, id="line7-majority"),
    pytest.param(Line(10), XorRule(), True, id="line10-xor"),
    pytest.param(Ring(10), WolframRule(110), True, id="ring10-w110"),
    pytest.param(Ring(8), WolframRule(30), True, id="ring8-w30"),
    pytest.param(Ring(5), MajorityRule(), True, id="ring5-majority"),
]


class TestFlipsRange:
    """The one range kernel against the scalar node update, on every
    backend (process delegates to its serial kernel)."""

    @staticmethod
    def _check(ca):
        want = _scalar_flips(ca)
        size = 1 << ca.n
        np.testing.assert_array_equal(ca.backend.flips_range(0, size), want)
        # ranges ending inside a word: the padding bits past them are zero
        for lo in range(0, size, 64):
            for length in (1, 5, 33, 63):
                hi = min(lo + length, size)
                got = ca.backend.flips_range(lo, hi)
                mask = np.uint64((1 << (hi - lo)) - 1)
                np.testing.assert_array_equal(
                    got, want[:, lo >> 6 : (lo >> 6) + 1] & mask
                )

    @pytest.mark.parametrize("space,rule,memory", FLIP_CASES)
    @pytest.mark.parametrize("backend", ["numpy", "bitplane", "process"])
    def test_matches_update_node(self, space, rule, memory, backend):
        self._check(make_ca(space, rule, memory=memory, backend=backend, workers=2))

    @pytest.mark.parametrize("backend", ["numpy", "bitplane", "process"])
    def test_heterogeneous_matches_update_node(self, backend):
        rules = [
            MajorityRule(), XorRule(), SimpleThresholdRule(1), WolframRule(110),
            SimpleThresholdRule(2), XorRule(), MajorityRule(), WolframRule(30),
        ]
        self._check(HeterogeneousCA(Ring(8), rules, backend=backend, workers=2))


class TestHeterogeneous:
    @pytest.mark.parametrize("backend", SERIAL)
    def test_mixed_rules_match_oracle(self, backend):
        n = 9
        rules = [MajorityRule() if i % 2 else XorRule() for i in range(n)]
        ca = HeterogeneousCA(Ring(n), rules, backend=backend)
        np.testing.assert_array_equal(ca.step_all(), oracle_step_all(ca))

    @pytest.mark.parametrize("backend", SERIAL)
    def test_mixed_rules_all_node_successors(self, backend):
        n = 8
        rules = [SimpleThresholdRule(1) if i < 4 else XorRule() for i in range(n)]
        ca = HeterogeneousCA(Ring(n), rules, backend=backend)
        ref = HeterogeneousCA(Ring(n), rules, backend="numpy")
        np.testing.assert_array_equal(
            ca.all_node_successors(), ref.all_node_successors()
        )


class TestRandomRules:
    """Hypothesis: arbitrary 3-input tables agree across every backend."""

    @given(table=st.integers(min_value=0, max_value=255))
    @settings(max_examples=30, deadline=None)
    def test_random_elementary_table(self, table):
        rule = WolframRule(table)
        results = {}
        for backend in SERIAL:
            ca = make_ca(Ring(8), rule, backend=backend)
            results[backend] = ca.step_all()
        for backend in SERIAL[1:]:
            np.testing.assert_array_equal(results["numpy"], results[backend])

    @given(
        bits=st.lists(st.integers(0, 1), min_size=32, max_size=32),
        memory=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_radius2_table(self, bits, memory):
        # width-5 windows with memory, width-4 without
        width = 5 if memory else 4
        rule = TableRule([bits[i] for i in range(1 << width)])
        results = {}
        for backend in SERIAL:
            ca = make_ca(Ring(7, radius=2), rule, memory=memory, backend=backend)
            results[backend] = ca.step_all()
        oracle = oracle_step_all(
            make_ca(Ring(7, radius=2), rule, memory=memory, backend="numpy")
        )
        for backend in SERIAL:
            np.testing.assert_array_equal(results[backend], oracle)


class TestProcessBackend:
    def test_step_all_matches_serial(self, monkeypatch):
        # Chunks of 256 configurations, so each of the 8 shards holds two:
        # the int64 successors and a node's packed flip words must both
        # land at their own entries, with no shard failing on the way
        # (the inline fallback would hide it).
        import repro.perf.base as base_mod
        import repro.perf.process as process_mod
        from repro import obs

        def shard_errors():
            counters = obs.REGISTRY.snapshot()["counters"]
            return counters.get("perf.process.shard_errors", 0)

        monkeypatch.setattr(base_mod, "CHUNK", 256)
        monkeypatch.setattr(process_mod, "CHUNK", 256)
        errors = shard_errors()
        ca = make_ca(Ring(12), MajorityRule(), backend="process", workers=2)
        assert isinstance(ca.backend, ProcessBackend)
        ref = make_ca(Ring(12), MajorityRule(), backend="numpy")
        np.testing.assert_array_equal(ca.step_all(), ref.step_all())
        np.testing.assert_array_equal(
            ca.all_node_successors(), ref.all_node_successors()
        )
        assert shard_errors() == errors

    def test_governed_build_matches_serial(self):
        ca = make_ca(Ring(16), MajorityRule(), backend="process", workers=2)
        ref = make_ca(Ring(16), MajorityRule(), backend="numpy")
        p = build_phase_space(ca, budget=Budget())
        assert p.complete
        assert p.value.summary() == PhaseSpace.from_automaton(ref).summary()

    def test_trip_yields_prefix_frontier_and_resume(self, tmp_path):
        # Ring(17) splits into two CHUNK-sized shards; a one-chunk states
        # cap trips between them, leaving a strict prefix.
        ca = make_ca(Ring(17), MajorityRule(), backend="process", workers=2)
        exact = PhaseSpace.from_automaton(
            make_ca(Ring(17), MajorityRule(), backend="numpy")
        )
        p1 = build_phase_space(ca, budget=Budget(max_states=1 << 16))
        assert not p1.complete
        assert "states" in p1.reason
        assert 0 < p1.explored < 1 << 17
        assert p1.frontier is not None and p1.frontier["next_lo"] == p1.explored
        # the charged prefix is bit-identical to the serial sweep
        ref_succ = make_ca(Ring(17), MajorityRule(), backend="numpy").step_all()
        np.testing.assert_array_equal(
            np.asarray(p1.frontier["succ"])[: p1.explored],
            ref_succ[: p1.explored],
        )
        save_frontier(tmp_path, p1)
        p2 = build_phase_space(
            ca, budget=Budget(), frontier=load_frontier(tmp_path)
        )
        assert p2.complete
        assert p2.value.summary() == exact.summary()

    def test_cancellation_interrupts_workers(self):
        token = CancelToken()
        token.cancel("user interrupt")
        ca = make_ca(Ring(16), MajorityRule(), backend="process", workers=2)
        p = build_phase_space(ca, budget=Budget(token=token))
        assert not p.complete
        assert p.reason.startswith("cancelled")

    def test_describe_names_inner_kernel(self):
        ca = make_ca(Ring(12), MajorityRule(), backend="process", workers=3)
        assert ca.backend.describe() == "process[bitplane x3]"

    @pytest.mark.parametrize("n", [12, 17, 20])  # shards of 1, 1, 2 chunks
    def test_sequential_states_trip_matches_serial(self, n, tmp_path):
        # A chunk of k configurations is n * k states, charged once
        # whichever backend fills it, so a states cap stops the sharded
        # build at the serial build's chunk (n = 12: after its only one,
        # at the analysis; n = 20: inside the second 2-chunk shard), and
        # either resume gives the plain build's words.
        plain = NondetPhaseSpace.from_automaton(
            make_ca(Ring(n), MajorityRule(), backend="numpy")
        ).words

        def fingerprint(backend):
            ca = make_ca(Ring(n), MajorityRule(), backend=backend, workers=2)
            p = build_nondet_phase_space(
                ca, budget=Budget(max_states=3 << n)
            )
            assert not p.complete and p.reason.startswith("states")
            meta = {k: v for k, v in p.frontier.items() if k != "succ"}
            k = sweep_entries(np.uint64, 0, meta["next_lo"]).stop
            prefix = np.ascontiguousarray(p.frontier["succ"][:, :k])
            save_frontier(tmp_path / backend, p)
            resumed = build_nondet_phase_space(
                ca, budget=Budget(), frontier=load_frontier(tmp_path / backend)
            )
            assert resumed.complete
            np.testing.assert_array_equal(resumed.value.words, plain)
            return meta, p.explored, hashlib.sha256(prefix.tobytes()).hexdigest()

        serial = fingerprint("bitplane")
        assert serial[0]["next_lo"] == {12: 1 << 12, 17: 1 << 16, 20: 3 << 16}[n]
        assert serial[1] == n * serial[0]["next_lo"]
        assert fingerprint("process") == serial

    def test_sequential_memory_cap_matches_serial(self):
        # The pool's budget holds what its inner backend's serial loop
        # holds, so the build's analysis gate admits on process exactly
        # what it admits on bitplane.
        builds = {
            backend: build_nondet_phase_space(
                make_ca(Ring(20), MajorityRule(), backend=backend, workers=2),
                budget=Budget(mem_bytes=5 << 20),
            )
            for backend in ("bitplane", "process")
        }
        assert builds["process"].complete, builds["process"].reason
        assert builds["bitplane"].complete
        np.testing.assert_array_equal(
            builds["process"].value.words, builds["bitplane"].value.words
        )
        assert builds["process"].value.summary() == builds["bitplane"].value.summary()

    @pytest.mark.parametrize(
        "space, rule, inner",
        [
            (Ring(20), MajorityRule(), "bitplane"),
            (Ring(9, radius=3), _UNLOWERABLE, "numpy"),
        ],
        ids=["bitplane", "numpy"],
    )
    def test_transient_bytes_is_the_inner_backends(self, space, rule, inner):
        ca = make_ca(space, rule, backend=inner)
        backend = ProcessBackend(ca)
        assert backend.describe().startswith(f"process[{inner} ")
        assert backend.transient_bytes() == ca.backend.transient_bytes()

    @pytest.mark.parametrize("backend", ["bitplane", "process"])
    def test_ungoverned_sweeps_charge_nothing(self, backend):
        # step_all / node_successors see only the ambient cancel token and
        # deadline: no caps apply and nothing is charged.
        ca = make_ca(Ring(12), MajorityRule(), backend=backend, workers=2)
        budget = Budget(max_states=1000)
        with use_budget(budget):
            ca.step_all()
            ca.node_successors(0)
        assert budget.states_used == 0 and budget.bytes_held == 0
        budget.token.cancel("stop")
        with use_budget(budget):
            with pytest.raises(BudgetExceeded, match="cancelled: stop"):
                ca.step_all()
            with pytest.raises(BudgetExceeded, match="cancelled: stop"):
                ca.node_successors(0)


class TestGovernedTripEquivalence:
    """A states-cap trip leaves the same frontier whichever kernel ran."""

    @pytest.mark.parametrize("backend", SERIAL)
    def test_trip_and_resume_match_exact(self, backend, tmp_path):
        ca = make_ca(Ring(17), MajorityRule(), backend=backend)
        exact = PhaseSpace.from_automaton(
            make_ca(Ring(17), MajorityRule(), backend="numpy")
        )
        p1 = build_phase_space(ca, budget=Budget(max_states=1 << 16))
        assert not p1.complete
        assert p1.explored == 1 << 16  # exactly one chunk, every backend
        save_frontier(tmp_path, p1)
        p2 = build_phase_space(
            ca, budget=Budget(), frontier=load_frontier(tmp_path)
        )
        assert p2.complete
        assert p2.value.summary() == exact.summary()


class TestSmallSpaceScratch:
    """Below 2**16 configurations a sweep's one chunk is the whole space,
    so its scratch, and what the budget projects for it, shrink with it."""

    #: (backend, n, sequential ceiling, parallel ceiling): each under
    #: what a full 2**16-configuration chunk projects on that backend
    CEILINGS = [
        ("numpy", 8, 512 << 10, 512 << 10),
        ("numpy", 12, 1536 << 10, 1536 << 10),
        ("numpy", 14, 6 << 20, 6 << 20),
        ("bitplane", 8, 512 << 10, 512 << 10),
        ("bitplane", 12, 512 << 10, 512 << 10),
        ("bitplane", 14, 1434 << 10, 1843 << 10),
    ]

    @pytest.mark.parametrize("backend, n, seq_ceiling, par_ceiling", CEILINGS)
    def test_small_builds_fit_small_ceilings(
        self, backend, n, seq_ceiling, par_ceiling
    ):
        ca = make_ca(Ring(n), MajorityRule(), backend=backend)
        assert build_nondet_phase_space(
            ca, budget=Budget(mem_bytes=seq_ceiling)
        ).complete
        assert build_phase_space(ca, budget=Budget(mem_bytes=par_ceiling)).complete

    @staticmethod
    def _chunk_peak_within_projection(backend):
        """One governed chunk of parallel successors or of every node's
        flip words peaks within ``transient_bytes()``, give or take the
        few KiB of Python objects any call allocates.  Below 2**15
        configurations NumPy elides no temporary, which n = 14 would
        show."""
        import tracemalloc

        from repro.perf.base import flip_row_words

        n = backend.ca.n
        for out, fill in (
            (np.empty(1 << n, dtype=np.int64), backend.step_all_range),
            (
                np.empty((n, flip_row_words(n)), dtype=np.uint64),
                backend.flips_range,
            ),
        ):
            backend.governed_sweep(out, Budget(), fill=fill)  # warm caches
            tracemalloc.start()
            try:
                backend.governed_sweep(out, Budget(), fill=fill)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= backend.transient_bytes() + (16 << 10)

    RULES = [MajorityRule(), XorRule(), WolframRule(110)]

    @pytest.mark.parametrize("n", [4, 8, 12, 14, 16])
    @pytest.mark.parametrize("rule", RULES, ids=str)
    def test_bitplane_chunk_peak_within_projection(self, rule, n):
        backend = make_ca(Ring(n), rule, backend="bitplane").backend
        self._chunk_peak_within_projection(backend)

    @pytest.mark.parametrize("n", [4, 8, 12, 14, 16])
    @pytest.mark.parametrize("rule", RULES, ids=str)
    def test_numpy_chunk_peak_within_projection(self, rule, n):
        # the reference kernel's window sums (totalistic rules) and int64
        # window codes (tables) are most of its scratch
        backend = make_ca(Ring(n), rule, backend="numpy").backend
        self._chunk_peak_within_projection(backend)


class TestSelectionPolicy:
    def test_explicit_name_wins(self):
        ca = make_ca(Ring(9), MajorityRule(), backend="numpy")
        assert ca.backend.name == "numpy"

    def test_auto_prefers_bitplane_for_threshold(self):
        ca = make_ca(Ring(9), MajorityRule())
        assert ca.backend.name == "bitplane"

    def test_auto_picks_bitplane_below_one_word(self):
        # fewer than 64 configurations: bitplane pads the last word
        for n in range(1, 6):
            assert make_ca(Line(n), MajorityRule()).backend.name == "bitplane"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        ca = make_ca(Ring(9), MajorityRule())
        assert ca.backend.name == "numpy"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        ca = make_ca(Ring(9), MajorityRule(), backend="bitplane")
        assert ca.backend.name == "bitplane"

    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            make_ca(Ring(9), MajorityRule(), backend="simd")

    def test_unsupported_explicit_backend_raises(self):
        ca = make_ca(Ring(9, radius=3), _UNLOWERABLE, backend="bitplane")
        with pytest.raises(BackendUnsupported, match="no bitwise lowering"):
            ca.backend  # resolution is lazy

    def test_supports_reasons_are_strings(self):
        ca = make_ca(Ring(9, radius=3), _UNLOWERABLE)
        reason = BitplaneBackend.supports(ca)
        assert isinstance(reason, str) and "no bitwise lowering" in reason
        assert ca.backend.name == "numpy"  # auto falls back

    def test_registry_covers_all_names(self):
        assert set(BACKENDS) == {"numpy", "bitplane", "process"}

    def test_auto_stays_serial_for_small_spaces(self):
        backend = resolve_backend(make_ca(Ring(10), MajorityRule()), "auto",
                                  workers=4)
        assert not backend.is_sharded


class TestBitKernelLowering:
    def test_xor_lowers_to_parity(self):
        kind, _ = lower_bit_kernel(XorRule(), 3)
        assert kind == "parity"

    def test_majority_lowers_to_profile(self):
        kind, prof = lower_bit_kernel(MajorityRule(), 3)
        assert kind == "profile"
        assert list(prof) == [0, 0, 1, 1]

    def test_arbitrary_table_lowers_to_sop(self):
        kind, _ = lower_bit_kernel(WolframRule(110), 3)
        assert kind in ("table", "profile", "parity")


def _profiles(width: int, rng) -> list[np.ndarray]:
    """Every count profile of ``width`` inputs to 7, else 300 random ones."""
    if width <= 7:
        codes = range(1 << (width + 1))
    else:
        codes = rng.integers(0, 1 << (width + 1), 300).tolist()
    return [
        np.array([(c >> t) & 1 for t in range(width + 1)], dtype=np.uint8)
        for c in codes
    ]


class TestCountProfileKernel:
    """``eval_bit_kernel`` on a ``profile`` kernel against per-lane counting.

    The reference shares nothing with the kernel: unpack every input's
    lanes, count the ones, look the count up in the profile and pack the
    bits back.  Row 0 of the planes holds all ``2**width`` input
    combinations (512 lanes), row 1 random lanes.
    """

    @pytest.mark.parametrize("width", range(10))
    def test_matches_unpacked_count(self, width):
        rng = np.random.default_rng(width)
        lane = np.arange(512)
        blocks = [
            np.stack(
                [
                    np.packbits((lane >> j) & 1, bitorder="little").view(np.uint64),
                    rng.integers(0, 1 << 64, 8, dtype=np.uint64),
                ]
            )
            for j in range(width)
        ]
        for shape, inputs in (
            ((2, 8), blocks),
            (8, [b[0].copy() for b in blocks]),
        ):
            count = np.zeros(64 * np.prod(shape, dtype=int), dtype=np.int64)
            for x in inputs:
                count += np.unpackbits(x.view(np.uint8), bitorder="little")
            before = [x.copy() for x in inputs]
            for profile in _profiles(width, rng):
                out = eval_bit_kernel(("profile", profile), inputs, shape)
                assert out.shape == np.empty(shape).shape
                assert out.dtype == np.uint64
                np.testing.assert_array_equal(
                    out.view(np.uint8).ravel(),
                    np.packbits(profile[count], bitorder="little"),
                    err_msg=str(profile),
                )
                for x, old in zip(inputs, before):
                    np.testing.assert_array_equal(x, old)
                    assert not np.shares_memory(out, x)


class TestPhaseSpaceIndexes:
    """Satellite: vectorized to_networkx and the CSR predecessor index."""

    def test_predecessors_match_bruteforce(self, majority_ring8):
        ps = PhaseSpace.from_automaton(majority_ring8)
        succ = ps.succ
        for code in (0, 1, 37, 255):
            expected = np.flatnonzero(succ == code)
            np.testing.assert_array_equal(ps.predecessors(code), expected)

    def test_predecessors_range_checked(self, majority_ring8):
        ps = PhaseSpace.from_automaton(majority_ring8)
        with pytest.raises(ValueError):
            ps.predecessors(1 << 8)
        with pytest.raises(ValueError):
            ps.predecessors(-1)

    def test_to_networkx_labels_and_edges(self, majority_ring8):
        ps = PhaseSpace.from_automaton(majority_ring8)
        g = ps.to_networkx()
        assert g.number_of_nodes() == 256
        assert g.number_of_edges() == 256
        for code in (0, 1, 128, 255):
            assert g.nodes[code]["label"] == config_str(code, 8)
            assert list(g.successors(code)) == [int(ps.succ[code])]


class TestConvergenceCode:
    def test_fixed_point_code_packs_final_state(self, majority_ring8):
        from repro.core.evolution import sequential_converge
        from repro.core.schedules import FixedPermutation
        from repro.util.bitops import bits_to_int

        state = int_to_bits(0b11001100, 8)
        res = sequential_converge(
            majority_ring8, state, FixedPermutation(), max_updates=1000
        )
        assert res.converged
        assert res.fixed_point_code == bits_to_int(res.final_state)
        assert res.fixed_point_code == majority_ring8.pack(res.final_state)


class TestDegenerateArities:
    """Arity-0/1 and constant rules through the LUT lowering (satellite).

    An edgeless graph gives uniform window width 1 (with memory) or 0
    (memoryless), exercising the degenerate ends of every backend's rule
    lowering that the ring/line matrix above never reaches.
    """

    DEGENERATE = [
        pytest.param(False, TableRule([1], name="const1"), id="arity0-const1"),
        pytest.param(False, TableRule([0], name="const0"), id="arity0-const0"),
        pytest.param(False, TotalisticRule([1]), id="arity0-totalistic"),
        pytest.param(True, TableRule([0, 1], name="identity"), id="arity1-identity"),
        pytest.param(True, TableRule([1, 0], name="NOT"), id="arity1-not"),
        pytest.param(True, TotalisticRule([1, 0]), id="arity1-totalistic-not"),
    ]

    @pytest.mark.parametrize("memory,rule", DEGENERATE)
    @pytest.mark.parametrize("backend", SERIAL)
    def test_matches_oracle(self, memory, rule, backend):
        space = GraphSpace(nx.empty_graph(8))
        ca = make_ca(space, rule, memory=memory, backend=backend)
        assert np.array_equal(ca.step_all(), oracle_step_all(ca))

    @pytest.mark.parametrize("memory,rule", DEGENERATE)
    @pytest.mark.parametrize("backend", SERIAL)
    def test_node_successors(self, memory, rule, backend):
        ca = make_ca(GraphSpace(nx.empty_graph(8)), rule, memory=memory, backend=backend)
        oracle = oracle_step_all(ca)
        succ = ca.node_successors(3)
        codes = np.arange(1 << ca.n, dtype=np.int64)
        expect = codes ^ (((codes ^ oracle) >> 3) & 1) << 3
        assert np.array_equal(succ, expect)

    def test_constant_rule_lut_lowering(self):
        assert TableRule([1]).lut(0).tolist() == [1]
        assert TableRule([0]).lut(0).tolist() == [0]
        assert TotalisticRule([1]).lut(0).tolist() == [1]
        assert TableRule([1, 1], name="const").count_profile(1).tolist() == [1, 1]

    def test_arity0_symmetric_rules(self):
        # Explicit arity 0 is now legal on the symmetric families.
        assert MajorityRule(arity=0).lut(0).tolist() == [0]
        assert XorRule(arity=0).lut(0).tolist() == [0]
        assert SimpleThresholdRule(1, arity=0).lut(0).tolist() == [0]
        assert MajorityRule().truth_table(0).table.tolist() == [0]

    def test_arity1_lut_and_kernel_lowering(self):
        assert XorRule().lut(1).tolist() == [0, 1]
        assert MajorityRule().lut(1).tolist() == [0, 1]
        kind, data = lower_bit_kernel(TableRule([1, 0], name="NOT"), 1)
        assert kind == "profile" and data.tolist() == [1, 0]
        kind, _ = lower_bit_kernel(XorRule(), 1)
        assert kind == "parity"
