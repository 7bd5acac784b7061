"""Property tests of the runtime-mask native kernel against ``FastRuntime``.

One kernel serves every saturation mask of a program: each probe site reads
its two mask bits at run time.  For random masks (all-clear and all-set
included) and inputs drawn from the floating-point edge cases -- signed
zeros, infinities, subnormals, int64 edges, NaNs of both signs with quiet
and signalling payloads -- the kernel must agree with the generic
:class:`~repro.instrument.runtime.FastRuntime` bit for bit on ``r``, on the
covered set and on the last conditional and its outcome: through the serial
entry (``sp_entry``, which the coverage harvest calls), the batch entry and
the fused Powell search's memo.  A row the kernel bails on (the sample
forms that compare ints beyond int64) must be harvested on ``FastRuntime``
instead.  Every test self-skips without a C compiler.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.representing import RepresentingFunction
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.native import local_min
from repro.instrument.native.cache import cc_available
from repro.instrument.program import instrument
from repro.instrument.runtime import ExecutionProfile, FastRuntime
from tests import sample_programs as sp
from tests.test_native import _NO_INF, _FixedMask, _bits, _from_word, library
from tests.test_specialize import PARITY_TARGETS

pytestmark = pytest.mark.skipif(
    not cc_available(), reason="no C compiler (cc/gcc/clang) on PATH"
)

_CLAMP = 1.0e300

#: Edge-case inputs: signed zeros, infinities, subnormals, doubles at the
#: int64 edges, and NaNs of both signs with quiet and signalling payloads.
_EDGES = (
    0.0,
    -0.0,
    float("inf"),
    -float("inf"),
    _from_word(0x0000000000000001),  # smallest subnormal
    _from_word(0x800FFFFFFFFFFFFF),  # largest negative subnormal
    _from_word(0x0010000000000000),  # smallest normal
    2.0 ** 63,  # just beyond int64
    -(2.0 ** 63),  # int64 min
    9223372036854774784.0,  # largest double below 2**63
    -9223372036854774784.0,
    2.0 ** 53 + 2.0,
    -(2.0 ** 31) - 1.0,
    _from_word(0x7FF8000000000000),  # quiet NaN
    _from_word(0xFFF8000000000000),  # negative quiet NaN
    _from_word(0x7FF8DEADBEEF0001),  # quiet NaN with a payload
    _from_word(0x7FF0000000000001),  # signalling NaN
    _from_word(0xFFF4000000000000),  # negative signalling NaN
    _from_word(0x7FF7FFFFFFFFFFFF),  # signalling NaN, full payload
)

#: Programs whose loops never terminate on +inf input (in every tier alike).
_NO_INF_NAMES = {target.__name__ for target in _NO_INF}

_PROGRAMS: dict = {}


def _program(name: str):
    program = _PROGRAMS.get(name)
    if program is None:
        by_case = {c.function.split("(")[0]: c for c in BENCHMARKS}
        if name in by_case:
            program = instrument_case(by_case[name])
        else:
            target = getattr(sp, name)
            extra = [sp.helper_goo] if target is sp.calls_helper else []
            program = instrument(target, extra_functions=extra)
        _PROGRAMS[name] = program
    return program


def _inputs(name: str):
    edges = [v for v in _EDGES if not (name in _NO_INF_NAMES and v == float("inf"))]
    return st.one_of(
        st.sampled_from(edges),
        st.floats(-60.0, 60.0),
        st.floats(allow_nan=False, allow_infinity=name not in _NO_INF_NAMES),
    )


@st.composite
def _cases(draw, name: str):
    program = _program(name)
    n_bits = 2 * program.n_conditionals
    top = (1 << n_bits) - 1
    mask = draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)), label="mask")
    rows = draw(st.lists(st.tuples(*[_inputs(name)] * program.arity),
                         min_size=1, max_size=4), label="rows")
    return program, mask, [list(row) for row in rows]


def _fast(program, mask: int, args):
    """FastRuntime's ``(r, covered outcome)`` of one row."""
    fast = FastRuntime(program.n_conditionals)
    program.handle.install(fast)
    fast.begin(mask)
    try:
        program.entry(*args)
    except (ArithmeticError, ValueError, OverflowError):
        pass
    return fast.r, fast.snapshot(), fast.covered_mask()


def _last_bit(outcome) -> int:
    if outcome.last_conditional is None:
        return -1
    return 2 * outcome.last_conditional + int(outcome.last_outcome)


def _batch_last(kernel, X: np.ndarray) -> tuple:
    """``sp_batch`` over ``X`` with the per-row last-conditional output."""
    n = X.shape[0]
    r = np.empty(n, dtype=np.float64)
    cov = np.zeros(kernel.loaded.n_words, dtype=np.uint64)
    bail = np.empty(n, dtype=np.int32)
    last = np.empty(n, dtype=np.int64)
    sat = (ctypes.c_uint64 * kernel.loaded.n_words)()
    ctypes.memmove(sat, kernel._sat, ctypes.sizeof(sat))
    kernel.loaded.sp_batch(
        X.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), n, sat,
        r.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        cov.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
        bail.ctypes.data_as(ctypes.POINTER(ctypes.c_int32)),
        last.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
    )
    return r, bail, last


def _assert_mask_parity(library, name: str, program, mask: int, rows) -> list:
    """The kernel's serial entry, batch entry, harvest and fused memo agree
    with FastRuntime on every row; returns the rows that bailed."""
    kernel = program.native_kernel(mask)
    X = np.ascontiguousarray(rows, dtype=np.float64)
    r_batch, bail_batch, last_batch = _batch_last(kernel, X)
    representing = RepresentingFunction(program, _FixedMask(mask),
                                        profile=ExecutionProfile.PENALTY_NATIVE)
    assert representing.native_kernel() is kernel
    fused = local_min.NativeObjective(representing, kernel, library)
    bailed = []
    try:
        for i, args in enumerate(rows):
            context = (name, hex(mask), args)
            r_fast, outcome, covered = _fast(program, mask, args)
            clamped = r_fast if np.isfinite(r_fast) else _CLAMP
            row = kernel.coverage(args)
            fast_runs = representing._fast.total_evaluations if representing._fast else 0
            value, harvested = representing.evaluate_with_coverage(args)
            ran_fast = representing._fast is not None and (
                representing._fast.total_evaluations > fast_runs)
            assert _bits(value) == _bits(clamped), context
            assert harvested == outcome, context
            assert _bits(fused(args)) == _bits(clamped), context
            if row is None:
                bailed.append(i)
                assert bail_batch[i] != 0, context
                assert ran_fast, context  # the harvest fell back
                continue
            r_native, cov_native, last_native = row
            assert not ran_fast, context  # one kernel call served it
            assert _bits(r_native) == _bits(r_fast), context
            assert cov_native == covered, context
            assert last_native == _last_bit(outcome), context
            assert bail_batch[i] == 0, context
            assert _bits(float(r_batch[i])) == _bits(r_fast), context
            assert int(last_batch[i]) == last_native, context
    finally:
        fused.close()
    return bailed


_FUZZ = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])


class TestRuntimeMaskParity:
    @pytest.mark.parametrize("name", [t.__name__ for t in PARITY_TARGETS] + ["calls_helper"])
    @_FUZZ
    @given(data=st.data())
    def test_sample_forms(self, library, name, data):
        program, mask, rows = data.draw(_cases(name))
        _assert_mask_parity(library, name, program, mask, rows)

    @pytest.mark.parametrize("name", [c.function.split("(")[0] for c in BENCHMARKS])
    @_FUZZ
    @given(data=st.data())
    def test_suite_entries(self, library, name, data):
        program, mask, rows = data.draw(_cases(name))
        # ``scalb``'s one bail site (``int()`` of its second input) is
        # reached only by values within +-65000, so no suite row bails.
        assert _assert_mask_parity(library, name, program, mask, rows) == [], (
            name, hex(mask))

    @pytest.mark.parametrize("name,rows,expected", [
        # An int product beyond int64 for |x| > 2**31.5 (Python promotes it).
        ("int_square", [[3.0], [4e9], [-7.5], [-2.0 ** 40], [float("nan")]], [1, 3]),
        # A constant beyond int64 reaches the only test: every row bails
        # but +inf, whose int() overflows (a swallowed exception) first.
        ("huge_int_guard", [[3.0], [-0.0], [float("inf")], [-7e300]], [0, 1, 3]),
    ])
    def test_bailing_rows_harvest_on_fast_runtime(self, library, name, rows, expected):
        program = _program(name)
        top = (1 << (2 * program.n_conditionals)) - 1
        for mask in (0, top, 1, 2):
            bailed = _assert_mask_parity(library, name, program, mask, rows)
            assert bailed == expected, hex(mask)
