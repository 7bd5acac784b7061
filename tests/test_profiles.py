"""Cross-layer tests for the two-tier evaluation runtime.

The contract: execution profiles are a pure performance knob.  Seeded engine
runs must produce bit-identical covered/saturated branch sets and generated
inputs for every profile, every worker count and with or without the
bit-pattern memo cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import CoverMeConfig
from repro.core.coverme import cover
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.fdlibm.k_cos import kernel_cos
from repro.fdlibm.s_tanh import fdlibm_tanh
from repro.instrument.program import instrument
from repro.instrument.runtime import EXECUTION_PROFILES, ExecutionProfile, Runtime
from tests import sample_programs as sp


def run_sets(target, **overrides):
    config = CoverMeConfig(n_start=16, n_iter=3, seed=42, **overrides)
    result = cover(target, config)
    return result.covered, result.saturated, frozenset(result.infeasible), tuple(result.inputs)


class TestEngineProfileDeterminism:
    @pytest.mark.parametrize("target", [sp.nested_branches, fdlibm_tanh, kernel_cos])
    def test_profiles_produce_identical_results(self, target):
        baseline = run_sets(target, eval_profile="full-trace")
        for profile in EXECUTION_PROFILES:
            assert run_sets(target, eval_profile=profile) == baseline, profile

    def test_profiles_and_workers_compose(self):
        baseline = run_sets(fdlibm_tanh, eval_profile="full-trace", n_workers=1)
        for profile in EXECUTION_PROFILES:
            for n_workers, mode in ((2, "thread"), (4, "process")):
                got = run_sets(
                    fdlibm_tanh, eval_profile=profile, n_workers=n_workers, worker_mode=mode
                )
                assert got == baseline, (profile, n_workers, mode)

    def test_memoization_does_not_change_results(self):
        with_memo = run_sets(kernel_cos, memoize=True)
        without = run_sets(kernel_cos, memoize=False)
        assert with_memo == without

    def test_default_profile_is_penalty_only(self):
        assert CoverMeConfig().eval_profile == ExecutionProfile.PENALTY_ONLY.value

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown eval profile"):
            CoverMeConfig(eval_profile="fastest")


class TestRepresentingProfiles:
    """FOO_R values must be bit-identical under every profile."""

    @pytest.mark.parametrize("target", [sp.paper_foo, sp.nested_branches, sp.boolean_condition])
    def test_pointwise_value_equality(self, target):
        program = instrument(target)
        tracker = SaturationTracker(program)
        rng = np.random.default_rng(5)
        # Partially saturate so all pen cases (a/b/c of Def. 4.2) are hit.
        for _ in range(3):
            _, _, record = program.run(
                tuple(rng.normal(scale=5.0, size=program.arity)), runtime=Runtime()
            )
            tracker.add_execution(record)
        functions = {
            profile: RepresentingFunction(program, tracker, profile=profile)
            for profile in ExecutionProfile
        }
        for _ in range(100):
            x = rng.normal(scale=10.0, size=program.arity)
            values = {p: f(x) for p, f in functions.items()}
            assert len(set(values.values())) == 1, values

    def test_fast_profile_tracks_tracker_updates(self):
        """The saturation snapshot is re-read on every call, like FULL_TRACE."""
        program = instrument(sp.paper_foo)
        tracker = SaturationTracker(program)
        fast = RepresentingFunction(
            program, tracker, profile=ExecutionProfile.PENALTY_ONLY
        )
        assert fast([0.7]) == 0.0  # nothing saturated: pen case (a)
        for x in (0.7, 1.0, 1.1, -5.2):
            _, _, record = program.run((x,), runtime=Runtime())
            tracker.add_execution(record)
        assert tracker.all_saturated()
        assert fast([0.7]) > 0.0  # everything saturated: pen case (c)

    def test_evaluate_with_coverage_identical_across_profiles(self):
        program = instrument(sp.nested_branches)
        outcomes = {}
        for profile in ExecutionProfile:
            representing = RepresentingFunction(
                program, SaturationTracker(program), profile=profile
            )
            value, coverage = representing.evaluate_with_coverage([1.0, -1.0])
            outcomes[profile] = (value, coverage.covered, coverage.last_conditional,
                                 coverage.last_outcome)
        assert len(set(outcomes.values())) == 1, outcomes

    def test_evaluate_with_record_works_under_fast_profile(self):
        """Trace consumers get a real record even on a penalty-only instance."""
        program = instrument(sp.paper_foo)
        representing = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_ONLY
        )
        value, record = representing.evaluate_with_record([0.5])
        assert record.path  # full trace materialized on demand
        assert representing.evaluations == 1
        assert value == representing.last_value

    def test_saturated_mask_matches_saturated_set(self):
        from repro.instrument.runtime import branch_mask

        program = instrument(sp.paper_foo)
        tracker = SaturationTracker(program)
        assert tracker.saturated_mask == 0
        _, _, record = program.run((0.7,), runtime=Runtime())
        tracker.add_execution(record)
        assert tracker.saturated_mask == branch_mask(tracker.saturated)
