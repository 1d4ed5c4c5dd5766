"""Tests for the differential fuzzing / invariant-oracle subsystem."""

import numpy as np
import pytest

from repro import qa
from repro.core.budget import Budget
from repro.qa.differential import CHECKS, Instance, applicable_backends
from repro.qa.findings import Finding, canonical_json, spec_digest
from repro.qa.generators import build_automaton, sample_spec
from repro.qa.shrink import shrink_candidates, shrink_spec


class TestGenerators:
    def test_sampled_specs_build_and_roundtrip(self, fuzz_seed):
        for case in range(40):
            spec = sample_spec(qa.case_seed(fuzz_seed, case), Budget())
            ca = build_automaton(spec, backend="numpy")
            assert ca.n == spec.n
            clone = type(spec).from_dict(spec.to_dict())
            assert clone.to_dict() == spec.to_dict()
            assert spec_digest(clone) == spec_digest(spec)

    def test_sampling_is_deterministic(self, fuzz_seed):
        a = sample_spec(fuzz_seed, Budget()).to_dict()
        b = sample_spec(fuzz_seed, Budget()).to_dict()
        assert a == b

    def test_budget_caps_instance_size(self):
        tight = Budget(max_states=2**6)
        for case in range(20):
            spec = sample_spec(qa.case_seed(1, case), tight)
            assert spec.n <= 6

    def test_schedule_variety_appears(self):
        kinds = {
            sample_spec(qa.case_seed(7, case), Budget()).schedule["kind"]
            for case in range(120)
        }
        assert {"perm", "word", "block", "sweeps"} <= kinds


class TestDifferential:
    def test_clean_head_passes_all_checks(self, fuzz_seed):
        for case in range(25):
            spec = sample_spec(qa.case_seed(fuzz_seed, case), Budget())
            backends = applicable_backends(spec)
            inst = Instance(spec, backends)
            for name, checkfn in CHECKS.items():
                assert checkfn(inst) is None, f"{name} on case {case}"

    def test_backend_applicability_filters_bitplane(self):
        # bitplane pads to whole words, so it also runs below n = 6
        small = None
        for case in range(200):
            spec = sample_spec(qa.case_seed(3, case), Budget())
            if spec.n < 6:
                small = spec
                break
        assert small is not None
        assert "bitplane" in applicable_backends(small)


class TestMutantsAndShrinking:
    @pytest.mark.parametrize("mutant", sorted(qa.MUTANTS))
    def test_mutant_caught_and_shrunk(self, mutant):
        with qa.active_mutant(mutant):
            report = qa.run_fuzz(seed=0, cases=400, max_findings=1)
        assert report.findings, f"mutant {mutant} not caught in 400 cases"
        finding = report.findings[0]
        assert finding.spec["n"] <= 6
        # the shrunk spec must still fail with the mutant active...
        spec = type(sample_spec(0, Budget())).from_dict(finding.spec)
        with qa.active_mutant(mutant):
            assert qa.replay_spec(spec, check=finding.check) is not None
        # ...and pass on the healthy kernels.
        assert qa.replay_spec(spec, check=finding.check) is None

    def test_shrink_candidates_only_shrink(self, fuzz_seed):
        spec = sample_spec(fuzz_seed, Budget())
        for cand in shrink_candidates(spec):
            assert cand.n <= spec.n
            build_automaton(cand, backend="numpy")  # stays well-formed

    def test_shrink_requires_deterministic_failure(self):
        spec = sample_spec(qa.case_seed(0, 0), Budget())
        # no violation at all -> shrinker returns the spec unchanged
        shrunk, steps = shrink_spec(spec, "differential.step_all", ["numpy"])
        assert steps == 0 and shrunk.to_dict() == spec.to_dict()


class TestFindings:
    def test_same_seed_byte_identical_finding(self):
        blobs = []
        for _ in range(2):
            with qa.active_mutant("bitplane-parity-drop"):
                report = qa.run_fuzz(seed=0, cases=200, max_findings=1)
            assert report.findings
            blobs.append(report.findings[0].to_bytes())
        assert blobs[0] == blobs[1]

    def test_finding_save_load_replay_roundtrip(self, tmp_path):
        with qa.active_mutant("bitplane-parity-drop"):
            report = qa.run_fuzz(
                seed=0, cases=200, max_findings=1,
                findings_dir=str(tmp_path),
            )
        path = tmp_path / f"{report.findings[0].name}.json"
        assert path.exists()
        loaded = Finding.load(str(path))
        assert loaded.to_bytes() == report.findings[0].to_bytes()
        with qa.active_mutant("bitplane-parity-drop"):
            assert qa.replay_finding(str(path)) is not None
        assert qa.replay_finding(str(path)) is None  # healthy HEAD passes

    def test_finding_embeds_runnable_pytest_snippet(self):
        with qa.active_mutant("bitplane-stale-bit"):
            report = qa.run_fuzz(seed=0, cases=200, max_findings=1)
        snippet = report.findings[0].pytest_snippet()
        assert snippet.startswith("def test_qa_")
        assert "replay_spec" in snippet
        compile(snippet, "<finding>", "exec")  # syntactically valid

    def test_canonical_json_is_stable_and_sorted(self):
        a = canonical_json({"b": np.int64(2), "a": [np.uint8(1)]})
        b = canonical_json({"a": [1], "b": 2})
        assert a == b == b'{"a":[1],"b":2}'


class TestFuzzLoop:
    def test_clean_run_summary(self):
        report = qa.run_fuzz(seed=0, cases=30)
        assert report.clean and report.cases_run == 30
        assert set(report.backends_seen) <= {"numpy", "bitplane"}

    def test_wall_budget_truncates(self):
        report = qa.run_fuzz(seed=0, cases=10**6, budget=Budget(wall_s=1))
        assert report.truncated
        assert 0 < report.cases_run < 10**6

    def test_self_test_catches_every_mutant(self):
        results = qa.run_self_test(seed=0, cases=400)
        assert set(results) == set(qa.MUTANTS)
        for name, res in results.items():
            assert res["caught"], f"mutant {name} escaped"
            assert res["shrunk_n"] <= 6
