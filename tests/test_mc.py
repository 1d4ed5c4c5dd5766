"""Streaming Monte-Carlo engine: exact-census oracle, calibration,
determinism, artifact contract, and qa wiring.

The load-bearing suites here are the *oracle* tests: at n = 12 the
attractor kernel classifies every one of the 4096 configurations
exactly, so the MC estimate's own reported confidence intervals can be
held to ground truth — a statistical test with no tunable tolerance.
Everything else (interval calibration, merge associativity, serial vs
sharded vs resumed byte-identity) guards the properties that make those
intervals trustworthy at n = 10**6, where no oracle exists.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.analysis.statistics import Z95, Z99, StreamingMoments, wilson_interval
from repro.core.automaton import CellularAutomaton
from repro.core.budget import Budget
from repro.core.energy import ThresholdNetwork
from repro.core.rules import MajorityRule, SimpleThresholdRule, WolframRule, XorRule
from repro.mc import (
    K_MC_COUNTS,
    MC_COUNT_FIELDS,
    McKernel,
    build_mc_estimate,
    lanes_for,
    merge_mc_counts,
    round_samples,
    sample_planes,
    write_mc_artifact,
    zero_mc_counts,
)
from repro.perf.attractor import AttractorKernel
from repro.perf.bitplane import eval_bit_kernel, lower_bit_kernel
from repro.spaces.line import Ring


def _payload_bytes(partial) -> bytes:
    """Canonical byte serialisation of a completed estimate."""
    assert partial.complete
    return json.dumps(partial.value, sort_keys=True).encode()


def _lane_states(planes: np.ndarray, n: int, lanes: int) -> np.ndarray:
    """Decode a bitplane batch into a ``(lanes, n)`` uint8 state matrix."""
    bits = np.unpackbits(
        np.ascontiguousarray(planes).view(np.uint8), axis=1, bitorder="little"
    )[:, :lanes]
    return bits.T.astype(np.uint8)


# -- exact-census statistical oracle (the acceptance gate) ---------------------


class TestExactOracle:
    """MC intervals must contain the exactly enumerable ground truth."""

    def test_parallel_n12_intervals_contain_exact_masses(self, mc_seed):
        n = 12
        ca = CellularAutomaton(Ring(n), MajorityRule(), memory=True)
        lam, _ = AttractorKernel(ca).classify(np.arange(1 << n, dtype=np.int64))
        exact_fp = float(np.mean(lam == 1))
        exact_two = float(np.mean(lam == 2))
        assert exact_fp + exact_two == 1.0  # Proposition 1 dichotomy

        kernel = McKernel(MajorityRule(), n, seed=mc_seed)
        partial = build_mc_estimate(kernel, 16384)
        est = partial.value["estimates"]
        fp_lo, fp_hi = est["fixed_point"]["ci99"]
        two_lo, two_hi = est["two_cycle"]["ci99"]
        assert fp_lo <= exact_fp <= fp_hi
        assert two_lo <= exact_two <= two_hi
        assert est["undecided"]["count"] == 0

    def test_fixed_perm_n12_all_fixed_points(self, mc_seed):
        # Theorem 1: under any fixed permutation every trajectory of a
        # symmetric threshold automaton reaches a fixed point — the exact
        # basin mass is 1.0, and the sweep kernel must agree.
        kernel = McKernel(
            MajorityRule(), 12, seed=mc_seed, schedule="sweep"
        )
        partial = build_mc_estimate(kernel, 16384)
        est = partial.value["estimates"]
        assert est["fixed_point"]["count"] == est["samples"]
        lo, hi = est["fixed_point"]["ci99"]
        assert lo <= 1.0 <= hi
        assert est["two_cycle"]["count"] == 0
        assert est["two_cycle"]["ci99"][0] == 0.0


# -- sequential sweep: wavefront levels against the per-node loop --------------


def _reference_sweep(kernel: McKernel, planes: np.ndarray) -> np.ndarray:
    """One sweep in ``kernel.perm`` order, one node at a time."""
    lowered = lower_bit_kernel(kernel.rule, kernel.width)
    out = planes.copy()
    for i in kernel.perm:
        inputs = [out[(i + d) % kernel.n] for d in kernel.offsets]
        out[i] = eval_bit_kernel(lowered, inputs, kernel.nwords)
    return out


SWEEP_RULES = {
    "majority": MajorityRule(),
    "threshold1": SimpleThresholdRule(1),
    "threshold2": SimpleThresholdRule(2),
    "xor": XorRule(),
    "wolfram110": WolframRule(110),
}

#: (radius, memory, rule); a Wolfram rule is defined on 3-cell windows only
SWEEP_CASES = [
    (radius, memory, rule)
    for radius in (1, 2, 3)
    for memory in (True, False)
    for rule in sorted(SWEEP_RULES)
    if rule != "wolfram110" or (radius, memory) == (1, True)
]


class TestSweepLevels:
    @pytest.mark.parametrize("radius, memory, rule", SWEEP_CASES)
    def test_level_sweep_equals_per_node_loop(self, radius, memory, rule, mc_seed):
        lanes = 128
        # From n = 2r + 1, where every pair of nodes is adjacent, upward.
        for n in range(2 * radius + 1, 41):
            planes = sample_planes("uniform", n, lanes, mc_seed, n * lanes)
            orders = {
                "identity": list(range(n)),
                "reversed": list(range(n))[::-1],
                "random": np.random.default_rng([mc_seed, n]).permutation(n),
            }
            for name, perm in orders.items():
                kernel = McKernel(
                    SWEEP_RULES[rule], n, radius, memory,
                    schedule="sweep", perm=perm, lanes=lanes,
                )
                want = _reference_sweep(kernel, planes)
                assert np.array_equal(kernel.step(planes), want), (n, name)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_large_ring_sweeps_settle_on_a_parallel_fixed_point(
        self, radius, mc_seed
    ):
        # A configuration no single-node update changes is fixed by the
        # synchronous map too: an oracle sharing no code with the plan.
        n, lanes = 10_000, 64
        perm = np.random.default_rng(mc_seed).permutation(n)
        sweeper = McKernel(
            MajorityRule(), n, radius, schedule="sweep", perm=perm, lanes=lanes
        )
        planes = sample_planes("uniform", n, lanes, mc_seed, 0)
        cur = sweeper.step(planes)
        assert np.array_equal(cur, _reference_sweep(sweeper, planes))
        for _ in range(sweeper.horizon):  # Theorem 1: sweeps settle
            nxt = sweeper.step(cur)
            if np.array_equal(nxt, cur):
                break
            cur = nxt
        else:
            pytest.fail("sweeps did not settle within the horizon")
        parallel = McKernel(MajorityRule(), n, radius, lanes=lanes)
        assert np.array_equal(parallel.step(cur), cur)
        assert not np.array_equal(cur, planes)

    def test_identity_order_is_one_node_per_level(self):
        nodes, starts = McKernel(MajorityRule(), 50, schedule="sweep")._plan
        assert nodes.tolist() == list(range(50))
        assert starts.tolist() == list(range(51))


# -- estimator calibration -----------------------------------------------------


class TestCalibration:
    def test_wilson_interval_nominal_coverage(self, mc_seed):
        rng = np.random.default_rng(mc_seed)
        p, trials, reps = 0.3, 400, 300
        covered = 0
        for _ in range(reps):
            hits = int(rng.binomial(trials, p))
            lo, hi = wilson_interval(hits, trials, Z95)
            covered += lo <= p <= hi
        # Nominal 95%; Wilson is slightly conservative, so demand >= 92%
        # (a catastrophic mis-centering would land far below this).
        assert covered / reps >= 0.92

    def test_wilson_interval_edges(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        lo, hi = wilson_interval(0, 50, Z99)
        assert lo == 0.0 and 0.0 < hi < 0.3
        lo, hi = wilson_interval(50, 50, Z99)
        assert 0.7 < lo < 1.0 and hi == 1.0
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)

    def test_streaming_moments_nominal_coverage(self, mc_seed):
        rng = np.random.default_rng(mc_seed + 1)
        true_mean, reps, draws = 10 * 0.3, 300, 200
        covered = 0
        for _ in range(reps):
            m = StreamingMoments()
            for v in rng.binomial(10, 0.3, size=draws):
                m.add(int(v))
            lo, hi = m.ci(Z95)
            covered += lo <= true_mean <= hi
        assert covered / reps >= 0.90

    def test_streaming_moments_merge_is_exact(self, mc_seed):
        rng = np.random.default_rng(mc_seed + 2)
        values = [int(v) for v in rng.integers(0, 1000, size=500)]
        whole = StreamingMoments()
        for v in values:
            whole.add(v)
        for cut in (0, 1, 137, 250, 499, 500):
            left, right = StreamingMoments(), StreamingMoments()
            for v in values[:cut]:
                left.add(v)
            for v in values[cut:]:
                right.add(v)
            left.merge(right)
            # Exact integer state => bit-for-bit identical statistics.
            assert (left.count, left.total, left.total_sq, left.maximum) == (
                whole.count, whole.total, whole.total_sq, whole.maximum
            )
            assert left.mean == whole.mean
            assert left.variance == whole.variance
            assert left.ci(Z95) == whole.ci(Z95)

    def test_merge_mc_counts_sums_and_max_merges(self):
        a, b = zero_mc_counts(), zero_mc_counts()
        a[:] = np.arange(K_MC_COUNTS)
        b[:] = 2
        imax = MC_COUNT_FIELDS.index("conv_max")
        a[imax], b[imax] = 7, 9
        merged = merge_mc_counts(a.copy(), b)
        for i, name in enumerate(MC_COUNT_FIELDS):
            if name == "conv_max":
                assert merged[i] == 9
            else:
                assert merged[i] == np.arange(K_MC_COUNTS)[i] + 2


# -- determinism: serial / sharded / resumed are byte-identical ----------------


class TestDeterminism:
    N, LANES, SAMPLES = 16, 256, 2048

    def _kernel(self, seed: int) -> McKernel:
        return McKernel(MajorityRule(), self.N, seed=seed, lanes=self.LANES)

    def test_serial_vs_process_sharded_byte_identical(self, mc_seed):
        serial = build_mc_estimate(self._kernel(mc_seed), self.SAMPLES)
        ca = CellularAutomaton(
            Ring(self.N), MajorityRule(), memory=True,
            backend="process", workers=2,
        )
        kernel = McKernel.from_automaton(ca, seed=mc_seed, lanes=self.LANES)
        sharded = build_mc_estimate(kernel, self.SAMPLES, backend=ca.backend)
        assert _payload_bytes(serial) == _payload_bytes(sharded)

    def test_budget_trip_then_resume_byte_identical(self, mc_seed):
        # chunk = 4 * lanes = 1024 samples: a 1536-state cap admits the
        # first chunk and trips on the projection of the second.
        tripped = build_mc_estimate(
            self._kernel(mc_seed), self.SAMPLES, budget=Budget(max_states=1536)
        )
        assert not tripped.complete
        assert tripped.explored == 1024
        assert tripped.frontier["kind"] == "mc"
        assert tripped.frontier["next_lo"] == 1024
        resumed = build_mc_estimate(
            self._kernel(mc_seed), self.SAMPLES, frontier=tripped.frontier
        )
        uninterrupted = build_mc_estimate(self._kernel(mc_seed), self.SAMPLES)
        assert _payload_bytes(resumed) == _payload_bytes(uninterrupted)

    def test_frontier_checkpoint_roundtrip(self, mc_seed, tmp_path):
        from repro.harness.checkpoint import load_frontier, save_frontier

        tripped = build_mc_estimate(
            self._kernel(mc_seed), self.SAMPLES, budget=Budget(max_states=1536)
        )
        save_frontier(tmp_path, tripped)
        loaded = load_frontier(tmp_path)
        assert loaded is not None and loaded["kind"] == "mc"
        resumed = build_mc_estimate(
            self._kernel(mc_seed), self.SAMPLES, frontier=loaded
        )
        uninterrupted = build_mc_estimate(self._kernel(mc_seed), self.SAMPLES)
        assert _payload_bytes(resumed) == _payload_bytes(uninterrupted)

    def test_mismatched_frontier_rejected(self, mc_seed):
        tripped = build_mc_estimate(
            self._kernel(mc_seed), self.SAMPLES, budget=Budget(max_states=1536)
        )
        other = McKernel(MajorityRule(), 18, seed=mc_seed, lanes=self.LANES)
        with pytest.raises(ValueError, match="frontier"):
            build_mc_estimate(other, self.SAMPLES, frontier=tripped.frontier)
        with pytest.raises(ValueError, match="covers"):
            build_mc_estimate(
                self._kernel(mc_seed), 2 * self.SAMPLES,
                frontier=tripped.frontier,
            )


# -- energy stream against the scalar Lyapunov ---------------------------------


class TestEnergy:
    # n = 10 stays on lane_counts' unpacked tail; 37 and 200 rows go
    # through one and three adder-tree levels (odd row counts included).
    @pytest.mark.parametrize("n", [10, 37, 200])
    @pytest.mark.parametrize("radius", [1, 2])
    @pytest.mark.parametrize("memory", [True, False], ids=["mem", "nomem"])
    @pytest.mark.parametrize(
        "rule", [MajorityRule(), SimpleThresholdRule(2)], ids=["maj", "thr2"]
    )
    def test_energy2_is_twice_sequential_energy(
        self, mc_seed, n, radius, memory, rule
    ):
        lanes = 64
        ca = CellularAutomaton(Ring(n, radius=radius), rule, memory=memory)
        net = ThresholdNetwork.from_automaton(ca)
        kernel = McKernel(
            rule, n, radius=radius, memory=memory, seed=mc_seed, lanes=lanes
        )
        planes = sample_planes("uniform", n, lanes, mc_seed, 0)
        e2 = kernel.energy2(planes)
        for lane, state in enumerate(_lane_states(planes, n, lanes)):
            assert e2[lane] == 2 * net.sequential_energy(state)


# -- sampler properties --------------------------------------------------------


class TestSampler:
    def test_lanes_for_scaling(self):
        assert lanes_for(12) == 1 << 14
        assert lanes_for(10**6) == 64
        for n in (12, 10**4, 10**5, 10**6):
            assert lanes_for(n) % 64 == 0
        assert lanes_for(10**4) <= lanes_for(12)

    def test_round_samples(self):
        assert round_samples(1, 256) == 256
        assert round_samples(256, 256) == 256
        assert round_samples(257, 256) == 512
        with pytest.raises(ValueError):
            round_samples(0, 256)

    def test_uniform_stream_is_batch_keyed(self, mc_seed):
        a = sample_planes("uniform", 20, 256, mc_seed, 0)
        b = sample_planes("uniform", 20, 256, mc_seed, 0)
        c = sample_planes("uniform", 20, 256, mc_seed, 256)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_density_family_hits_target_density(self, mc_seed):
        n, lanes, density = 64, 4096, 0.2
        planes = sample_planes(
            "density", n, lanes, mc_seed, 0, density=density
        )
        ones = _lane_states(planes, n, lanes).mean()
        assert abs(ones - density) < 0.02

    def test_perturb_family_flips_exactly_one_bit(self, mc_seed):
        n, lanes = 31, 256
        planes = sample_planes("perturb", n, lanes, mc_seed, 0, flips=1)
        base = np.zeros(n, dtype=np.uint8)
        base[n // 2] = 1
        states = _lane_states(planes, n, lanes)
        assert np.all((states ^ base).sum(axis=1) == 1)


# -- artifact contract ---------------------------------------------------------


class TestArtifact:
    def _payload(self, mc_seed) -> dict:
        kernel = McKernel(MajorityRule(), 12, seed=mc_seed, lanes=256)
        return build_mc_estimate(kernel, 256).value

    def test_written_artifact_is_contract_valid(self, mc_seed, tmp_path):
        from repro.contracts.dialects import McContract, contract_for

        path = tmp_path / "mc.json"
        write_mc_artifact(path, self._payload(mc_seed))
        assert contract_for(path) is not None
        assert contract_for(tmp_path / "mc-n12.json") is not None
        check = McContract().validate(path)
        assert check.status == "valid", check.detail

    def test_unbalanced_ledger_is_corrupt(self, mc_seed, tmp_path):
        from repro.contracts.dialects import McContract

        payload = self._payload(mc_seed)
        payload["counts"]["fixed_point"] += 1  # books no longer balance
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        check = McContract().validate(path)
        assert check.status == "corrupt"
        assert "ledger" in check.detail


# -- qa wiring: applicability gate, differential checks, mutant ----------------


def _mc_spec(seed: int, n: int = 8, **overrides):
    from repro.qa.generators import InstanceSpec

    fields = dict(
        seed=seed, space="ring", n=n, radius=1, memory=True,
        rules=[{"kind": "majority"}],
        schedule={"kind": "perm", "perm": list(range(n))},
    )
    fields.update(overrides)
    return InstanceSpec(**fields)


class TestQaWiring:
    def test_mc_applicable_gate(self, mc_seed):
        from repro.qa.generators import mc_applicable

        assert mc_applicable(_mc_spec(mc_seed)) is None
        assert mc_applicable(_mc_spec(mc_seed, space="line")) is not None
        hetero = _mc_spec(
            mc_seed, n=4,
            rules=[{"kind": "majority"}, {"kind": "xor"}] * 2,
        )
        assert mc_applicable(hetero) is not None

    def test_differential_checks_clean_on_reference_kernel(self, mc_seed):
        from repro.qa.differential import run_check

        spec = _mc_spec(mc_seed)
        assert run_check(spec, "differential.mc_step", ["numpy"]) is None
        assert run_check(spec, "differential.mc_sampler", ["numpy"]) is None

    def test_tail_drop_mutant_is_caught(self, mc_seed):
        from repro.qa.differential import run_check
        from repro.qa.mutants import MUTANTS, active_mutant

        assert "mc-sampler-tail-drop" in MUTANTS
        spec = _mc_spec(mc_seed)
        with active_mutant("mc-sampler-tail-drop"):
            violation = run_check(spec, "differential.mc_sampler", ["numpy"])
        assert violation is not None
        # The oracles must see clean kernels again after the context exits.
        assert run_check(spec, "differential.mc_sampler", ["numpy"]) is None

    def test_sweep_level_merge_mutant_is_caught(self, mc_seed):
        from repro.qa.differential import run_check
        from repro.qa.mutants import MUTANTS, active_mutant

        assert "mc-sweep-level-merge" in MUTANTS
        spec = _mc_spec(mc_seed)
        with active_mutant("mc-sweep-level-merge"):
            violation = run_check(spec, "differential.mc_step", ["numpy"])
        assert violation is not None and violation["path"] == "sweep"
        assert run_check(spec, "differential.mc_step", ["numpy"]) is None

    @pytest.mark.parametrize("radius", [1, 2])
    def test_energy_wrap_drop_mutant_is_caught(self, mc_seed, radius):
        from repro.qa.differential import run_check
        from repro.qa.mutants import MUTANTS, active_mutant

        assert "mc-energy-wrap-drop" in MUTANTS
        spec = _mc_spec(mc_seed, radius=radius)
        assert run_check(spec, "differential.mc_energy", ["numpy"]) is None
        with active_mutant("mc-energy-wrap-drop"):
            violation = run_check(spec, "differential.mc_energy", ["numpy"])
        assert violation is not None and violation["vs"] == "sequential_energy"
        assert run_check(spec, "differential.mc_energy", ["numpy"]) is None

    def test_energy_check_skips_rules_without_threshold(self, mc_seed):
        from repro.qa.differential import run_check

        spec = _mc_spec(mc_seed, rules=[{"kind": "xor"}])
        assert run_check(spec, "differential.mc_energy", ["numpy"]) is None


# -- CLI -----------------------------------------------------------------------


class TestCli:
    def test_mc_smoke_writes_valid_artifact(self, mc_seed, tmp_path):
        from repro.cli import main
        from repro.contracts.dialects import McContract

        artifact = tmp_path / "mc.json"
        out = io.StringIO()
        code = main(
            ["mc", "--n", "12", "--samples", "256", "--seed", str(mc_seed),
             "--artifact", str(artifact)],
            out=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "fixed-point" in text
        assert "contract-valid" in text
        assert McContract().validate(artifact).status == "valid"
        payload = json.loads(artifact.read_text())
        assert payload["schema"] == "repro-mc/1"
        assert payload["seed"] == mc_seed

    def test_mc_usage_errors(self):
        from repro.cli import main

        for argv in (
            ["mc", "--samples", "0"],
            ["mc", "--horizon", "0"],
            ["mc", "--density", "1.5"],
            ["mc", "--flips", "-1"],
            ["mc", "--n", "2"],
            ["mc", "--rule", "threshold"],  # missing --threshold
        ):
            with pytest.raises(SystemExit):
                main(argv, out=io.StringIO())
