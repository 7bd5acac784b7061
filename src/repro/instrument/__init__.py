"""Instrumentation substrate.

The paper instruments the program under test with an LLVM pass that inserts
``r = pen(l_i, op, a, b)`` immediately before every conditional statement.
This package is the Python analogue: an AST pass rewrites every conditional
test of a Python function into calls on a :class:`~repro.instrument.runtime.Runtime`
object which evaluates branch distances, drives the injected ``r`` register
through a pluggable penalty policy, and records branch coverage.

The package is deliberately independent of :mod:`repro.core`: the runtime is
parameterised by a *penalty policy* so the same instrumentation serves both
CoverMe's representing function and plain coverage measurement for the
baseline tools.
"""

from repro._exports import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "repro.instrument.ast_pass": ("InstrumentationPass", "instrument_source"),
    "repro.instrument.cfg": ("DescendantAnalysis",),
    "repro.instrument.program": ("InstrumentedProgram", "SpecializedVariant", "instrument"),
    "repro.instrument.runtime": (
        "BranchId",
        "ConditionalOutcome",
        "ExecutionProfile",
        "ExecutionRecord",
        "PenaltyPolicy",
        "Runtime",
    ),
    "repro.instrument.signature": ("ProgramSignature",),
    "repro.instrument.specialize": ("specialize_source", "specialized_unit"),
})

__all__ = [
    "BranchId",
    "ConditionalOutcome",
    "DescendantAnalysis",
    "ExecutionProfile",
    "ExecutionRecord",
    "InstrumentationPass",
    "InstrumentedProgram",
    "PenaltyPolicy",
    "ProgramSignature",
    "Runtime",
    "SpecializedVariant",
    "instrument",
    "instrument_source",
    "specialize_source",
    "specialized_unit",
]
