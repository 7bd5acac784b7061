"""Tests for InstrumentedProgram construction and execution."""

from __future__ import annotations

import pytest

from repro.instrument.program import (
    InstrumentationError,
    _CODE_CACHE,
    clear_compiled_cache,
    compiled_cache_info,
    instrument,
)
from repro.instrument.runtime import (
    BranchId,
    CoverageOutcome,
    FastRuntime,
    Runtime,
)
from repro.instrument.signature import ProgramSignature
from tests import sample_programs as sp


class TestConstruction:
    def test_counts_conditionals_and_branches(self, paper_foo_program):
        assert paper_foo_program.n_conditionals == 2
        assert paper_foo_program.n_branches == 4
        assert paper_foo_program.all_branches == frozenset(
            {BranchId(0, True), BranchId(0, False), BranchId(1, True), BranchId(1, False)}
        )

    def test_signature_derived_from_parameters(self):
        program = instrument(sp.nested_branches)
        assert program.arity == 2
        assert program.signature.name == "nested_branches"

    def test_explicit_signature_is_used(self):
        signature = ProgramSignature(name="custom", arity=1, low=(-2.0,), high=(2.0,))
        program = instrument(sp.single_branch, signature=signature)
        assert program.signature.low == (-2.0,)

    def test_source_is_kept_for_inspection(self, paper_foo_program):
        assert "__coverme_rt__" in paper_foo_program.source

    def test_lambda_cannot_be_instrumented(self):
        with pytest.raises((InstrumentationError, ValueError)):
            instrument(lambda x: 1 if x > 0 else 0)

    def test_builtin_cannot_be_instrumented(self):
        with pytest.raises(InstrumentationError):
            instrument(abs)


class TestExecution:
    def test_run_returns_value_r_and_record(self, paper_foo_program):
        value, r, record = paper_foo_program.run((0.5,), runtime=Runtime())
        assert value == sp.paper_foo(0.5)
        assert r == 1.0
        assert record.covered == {BranchId(0, True), BranchId(1, False)}

    def test_run_uses_fresh_runtime_when_none_given(self, paper_foo_program):
        value, r, record = paper_foo_program.run((2.0,))
        assert value == sp.paper_foo(2.0)
        assert record.covered == {BranchId(0, False), BranchId(1, True)}

    def test_exceptions_in_program_are_swallowed(self):
        program = instrument(sp.raises_for_small)
        value, _, record = program.run((0.5,))  # 1.0 / 0 raises inside the program
        assert value is None
        assert BranchId(0, True) in record.covered  # branch before the fault recorded

    def test_helper_instrumentation_redirects_calls(self):
        program = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        _, _, record = program.run((0.1,), runtime=Runtime())
        assert BranchId(0, True) in record.covered
        _, _, record = program.run((10.0,), runtime=Runtime())
        assert BranchId(0, False) in record.covered

    def test_original_function_is_not_mutated(self, paper_foo_program):
        # The module-level function keeps working without any runtime installed.
        assert sp.paper_foo(0.7) == 0
        assert sp.paper_foo(1.0) == 1


def _run_fast(program, args, runtime):
    """One execution of ``program`` on the allocation-free ``runtime``."""
    program.handle.install(runtime)
    runtime.begin()
    return program.entry(*args)


class TestProfiledExecution:
    def test_full_trace_returns_record(self, paper_foo_program):
        value, r, record = paper_foo_program.run((0.5,))
        assert value == sp.paper_foo(0.5)
        assert record.covered == {BranchId(0, True), BranchId(1, False)}

    def test_coverage_profile_returns_coverage_outcome(self, paper_foo_program):
        runtime = FastRuntime(paper_foo_program.n_conditionals)
        value = _run_fast(paper_foo_program, (0.5,), runtime)
        outcome = runtime.snapshot()
        assert value == sp.paper_foo(0.5)
        assert isinstance(outcome, CoverageOutcome)
        assert outcome.covered == {BranchId(0, True), BranchId(1, False)}
        assert outcome.last_conditional == 1
        assert outcome.last_outcome is False

    def test_penalty_profile_returns_flat_bitmask(self, paper_foo_program):
        from repro.instrument.runtime import branch_mask

        runtime = FastRuntime(paper_foo_program.n_conditionals)
        value = _run_fast(paper_foo_program, (0.5,), runtime)
        mask = runtime.covered_mask()
        assert value == sp.paper_foo(0.5)
        assert isinstance(mask, int)
        assert mask == branch_mask({BranchId(0, True), BranchId(1, False)})

    def test_reused_runtime_keeps_configured_mask(self, paper_foo_program):
        """Regression: a begin() without a mask must not clobber the runtime's."""
        from repro.instrument.runtime import branch_mask

        mask = branch_mask(paper_foo_program.all_branches)
        runtime = FastRuntime(paper_foo_program.n_conditionals, saturated_mask=mask)
        _run_fast(paper_foo_program, (0.5,), runtime)
        # Everything saturated: pen case (c) keeps r at 1, and the runtime's
        # configured mask survives the call.
        assert runtime.r == 1.0
        assert runtime.saturated_mask == mask

    def test_profiles_agree_on_coverage(self, paper_foo_program):
        runtime = FastRuntime(paper_foo_program.n_conditionals)
        for x in (0.5, 1.0, -3.0, 7.7):
            _, r_trace, record = paper_foo_program.run((x,))
            _run_fast(paper_foo_program, (x,), runtime)
            assert runtime.snapshot().covered == frozenset(record.covered)
            # The fast runtime hardwires CoverMe's pen: with an empty
            # saturation mask every conditional is case (a), so r is 0; the
            # recording default (policy=None) leaves r at 1.
            assert r_trace == 1.0
            assert runtime.r == 0.0

    def test_explicit_fast_runtime_is_reused(self, paper_foo_program):
        runtime = FastRuntime(paper_foo_program.n_conditionals)
        _run_fast(paper_foo_program, (0.5,), runtime)
        _run_fast(paper_foo_program, (2.0,), runtime)
        assert runtime.total_evaluations == 2

    def test_exceptions_swallowed_in_fast_profile(self):
        """The coverage harvest runs on the fast runtime and keeps FOO_R total."""
        from repro.core.representing import RepresentingFunction

        program = instrument(sp.raises_for_small)
        representing = RepresentingFunction(program, profile="penalty-specialized")
        _, outcome = representing.evaluate_with_coverage([0.5])
        assert BranchId(0, True) in outcome.covered


class TestCompiledCodeCache:
    def test_reinstrumenting_same_source_hits_cache(self):
        clear_compiled_cache()
        first = instrument(sp.paper_foo)
        entries_after_first = compiled_cache_info()["entries"]
        second = instrument(sp.paper_foo)
        assert compiled_cache_info()["entries"] == entries_after_first
        # Cached artifacts are shared; namespaces and handles are not.
        assert first.entry is not second.entry
        assert first.handle is not second.handle
        assert first.conditionals == second.conditionals

    def test_clone_shares_compiled_code(self):
        clear_compiled_cache()
        program = instrument(sp.nested_branches)
        entries = compiled_cache_info()["entries"]
        clone = program.clone()
        assert compiled_cache_info()["entries"] == entries
        assert clone.entry.__code__ is not None
        # Clones execute independently (separate handles).
        _, _, record = clone.run((1.0, 1.0), runtime=Runtime())
        assert record.covered

    def test_cache_key_includes_start_label(self):
        """The same helper at a different label offset must compile separately."""
        clear_compiled_cache()
        # paper_foo has 2 conditionals, so helper_goo compiles at start label 2.
        offset = instrument(sp.paper_foo, extra_functions=[sp.helper_goo])
        assert offset.conditionals[-1].label == 2
        entries = compiled_cache_info()["entries"]
        # helper_goo alone starts at label 0: a distinct cache entry.
        program = instrument(sp.helper_goo)
        assert compiled_cache_info()["entries"] == entries + 1
        assert program.conditionals[0].label == 0

    def test_cached_programs_behave_identically(self):
        clear_compiled_cache()
        uncached = instrument(sp.loop_program)
        cached = instrument(sp.loop_program)
        for x in (0.5, 9.0, 1.0e6):
            assert cached.run((x,))[0] == uncached.run((x,))[0] == sp.loop_program(x)

    def test_clear_compiled_cache(self):
        instrument(sp.paper_foo)
        assert compiled_cache_info()["entries"] >= 1
        clear_compiled_cache()
        assert compiled_cache_info()["entries"] == 0
        assert _CODE_CACHE == {}


class TestSignature:
    def test_rejects_zero_arity(self):
        with pytest.raises(ValueError):
            ProgramSignature(name="bad", arity=0)

    def test_bounds_must_match_arity(self):
        with pytest.raises(ValueError):
            ProgramSignature(name="bad", arity=2, low=(0.0,), high=(1.0,))

    def test_from_callable_counts_positional_parameters(self):
        signature = ProgramSignature.from_callable(sp.three_dimensional)
        assert signature.arity == 3
        assert len(signature.low) == 3


class TestFallbackReport:
    """Distance-blind conditionals are observable via fallback_conditionals."""

    def test_complete_lowering_reports_no_fallbacks(self):
        for func in (sp.paper_foo, sp.nested_boolean, sp.demorgan, sp.ternary_test,
                     sp.chained_comparison, sp.mixed_leaves, sp.truthiness):
            program = instrument(func)
            assert program.fallback_conditionals == (), func.__name__

    def test_oversized_tree_is_reported(self):
        from repro.instrument.ast_pass import instrument_source

        clauses = " or ".join(f"x > {i}.0" for i in range(70))
        _, conds, _, _ = instrument_source(
            f"def f(x):\n    if {clauses}:\n        return 1\n    return 0\n"
        )
        assert [c.form for c in conds] == ["truth"]

    def test_conditional_forms_histogram(self):
        program = instrument(sp.ternary_test)
        assert program.conditional_forms() == {"ternary": 1}
        program = instrument(sp.truthiness)
        assert program.conditional_forms() == {"promoted": 1}
