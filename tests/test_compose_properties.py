"""Property-style tests for composed branch distances (Eq. 8) and profile parity.

Random nested and/or/not/chained/ternary trees over numeric leaves are
generated as real Python conditionals, instrumented, and executed on random
inputs.  Two properties must hold on every execution:

* **Eq. 8** -- the composed ``(d_true, d_false)`` of the whole test is
  non-negative and zero exactly on the side the test actually took;
* **profile parity** -- :class:`FastRuntime` (the coverage harvest of the
  compiled tiers) computes bit-identical ``r`` and coverage to the recording
  :class:`Runtime` + ``CoverMePenalty`` (the ``full-trace`` profile) under
  random saturation states.
"""

from __future__ import annotations

import ast
import random
import struct

import numpy as np
import pytest

from repro.core.pen import CoverMePenalty
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.instrument.ast_pass import HANDLE_NAME, instrument_source
from repro.instrument.runtime import (
    BranchId,
    ExecutionProfile,
    FastRuntime,
    Runtime,
    RuntimeHandle,
    branch_mask,
)
from tests import sample_programs as sp

N_VARS = 3
N_TREES = 30
N_POINTS = 12


class _SaturatedStub:
    def __init__(self, branches):
        self.saturated = frozenset(branches)


def _gen_leaf(rng: random.Random) -> str:
    kind = rng.random()
    var = f"x{rng.randrange(N_VARS)}"
    const = round(rng.uniform(-4.0, 4.0) * 4.0) / 4.0  # friendly constants
    if kind < 0.55:
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"{var} {op} {const}"
    if kind < 0.75:  # chained comparison
        op1, op2 = rng.choice(["<", "<="]), rng.choice(["<", "<="])
        hi = const + round(rng.uniform(0.0, 4.0) * 4.0) / 4.0
        return f"{const} {op1} {var} {op2} {hi}"
    if kind < 0.9:  # truthiness over an arithmetic value (promoted != 0)
        return f"({var} - {const})"
    return f"not {var} > {const}"


def _gen_tree(rng: random.Random, depth: int) -> str:
    if depth <= 0:
        return _gen_leaf(rng)
    kind = rng.random()
    if kind < 0.35:
        parts = [_gen_tree(rng, depth - 1) for _ in range(rng.choice([2, 2, 3]))]
        return "(" + " and ".join(parts) + ")"
    if kind < 0.7:
        parts = [_gen_tree(rng, depth - 1) for _ in range(rng.choice([2, 2, 3]))]
        return "(" + " or ".join(parts) + ")"
    if kind < 0.85:
        return f"(not {_gen_tree(rng, depth - 1)})"
    cond = _gen_tree(rng, depth - 1)
    body = _gen_tree(rng, depth - 1)
    orelse = _gen_tree(rng, depth - 1)
    return f"({body} if {cond} else {orelse})"


def _build(test_expr: str):
    """Compile one instrumented conditional function plus its original twin."""
    params = ", ".join(f"x{i}" for i in range(N_VARS))
    source = f"def f({params}):\n    if {test_expr}:\n        return 1\n    return 0\n"
    tree, conds, _, _ = instrument_source(source)
    handle = RuntimeHandle()
    namespace = {HANDLE_NAME: handle}
    exec(compile(tree, "<compose-property>", "exec"), namespace)  # noqa: S102
    original_ns: dict = {}
    exec(compile(ast.parse(source), "<compose-original>", "exec"), original_ns)  # noqa: S102
    return namespace["f"], original_ns["f"], handle, conds


def _random_saturation(rng: random.Random) -> frozenset[BranchId]:
    branches = set()
    for outcome in (True, False):
        if rng.random() < 0.5:
            branches.add(BranchId(0, outcome))
    return frozenset(branches)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("seed", range(N_TREES))
def test_random_trees_satisfy_eq8_and_profile_parity(seed):
    rng = random.Random(seed)
    expr = _gen_tree(rng, rng.choice([1, 2, 2, 3]))
    instrumented, original, handle, conds = _build(expr)
    assert conds[0].form in {"boolean", "chained", "ternary"} or "not" in expr

    for _ in range(N_POINTS):
        args = tuple(round(rng.uniform(-5.0, 5.0) * 4.0) / 4.0 for _ in range(N_VARS))
        saturated = _random_saturation(rng)

        recording = Runtime(policy=CoverMePenalty(_SaturatedStub(saturated)))
        handle.install(recording)
        recording.begin()
        value = instrumented(*args)
        assert value == original(*args), (expr, args)

        outcome = recording.record.path[0]
        d_true, d_false = outcome.distance_true, outcome.distance_false
        assert d_true is not None and d_false is not None, (expr, args)
        # Eq. 8: non-negative, zero exactly on the taken side.
        assert d_true >= 0.0 and d_false >= 0.0
        if outcome.outcome:
            assert d_true == 0.0 and d_false > 0.0, (expr, args)
        else:
            assert d_false == 0.0 and d_true > 0.0, (expr, args)

        fast = FastRuntime(len(conds), saturated_mask=branch_mask(saturated))
        handle.install(fast)
        fast.begin()
        assert instrumented(*args) == value
        assert _bits(fast.r) == _bits(recording.r), (expr, args, saturated)
        assert fast.covered_branches() == recording.record.covered


@pytest.mark.parametrize(
    "func",
    [sp.nested_boolean, sp.demorgan, sp.chained_comparison, sp.ternary_test, sp.mixed_leaves],
    ids=lambda f: f.__name__,
)
def test_profiles_bit_identical_on_new_forms(func):
    """All three execution profiles agree on r for the new conditional forms."""
    from repro.instrument.program import instrument

    program = instrument(func)
    tracker = SaturationTracker(program)
    rng = np.random.default_rng(11)
    for _ in range(4):
        _, _, record = program.run(tuple(rng.normal(scale=4.0, size=program.arity)))
        tracker.add_execution(record)
    functions = {
        profile: RepresentingFunction(program, tracker, profile=profile)
        for profile in ExecutionProfile
    }
    for _ in range(60):
        x = rng.normal(scale=6.0, size=program.arity)
        values = {profile: f(x) for profile, f in functions.items()}
        reference = values[ExecutionProfile.FULL_TRACE]
        for profile, value in values.items():
            assert _bits(value) == _bits(reference), (func.__name__, profile, x)
